"""Time one workload's set-up in this fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG_JSON

Times ``import splitsim``, building the dataset (generate_synthetic
plus train_test_split) and ``SplitNet.build``, and prints the seconds.
"""

import json
import sys
import time


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    cfg = json.loads(sys.argv[2])

    from splitsim import data, model, numeric  # imports the package

    ds_cfg, net_cfg, seed = cfg["dataset"], cfg["net"], cfg["seed"]
    dataset = data.generate_synthetic(
        ds_cfg["n"],
        ds_cfg["d_in"],
        ds_cfg["pos_frac"],
        ds_cfg["separation"],
        ds_cfg["noise_scale"],
        seed=seed,
    )
    train, _ = data.train_test_split(dataset, ds_cfg["test_frac"], numeric.make_rng(seed, 1))
    model.SplitNet.build(
        train.d,
        net_cfg["hidden_dims"],
        net_cfg["activations"],
        net_cfg["cut_index"],
        numeric.make_rng(seed),
    )
    elapsed = time.perf_counter() - start
    print(repr(elapsed))


if __name__ == "__main__":
    main()
