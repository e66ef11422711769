"""NormalStream returns its generator's own float32 standard normals,
whoever draws them, and its helper process never outlives it.

A float32 normal takes a varying number of 32-bit halves of the
generator's 64-bit outputs, so a block can end with a spare half in the
generator's state; random chunks of odd lengths make the parent's own
draws and the helper's blocks meet at such a carry."""

import os
import select
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from splitsim.numeric import make_rng
from splitsim.stream import NormalStream

_BLOCK = NormalStream.BLOCK


def _want(seed: int, stream: int, n: int) -> np.ndarray:
    """The first n float32 normals of make_rng(seed, stream), in one call."""
    return make_rng(seed, stream).standard_normal(n, dtype=np.float32)


def _draw_chunked(stream, chooser, total: int) -> np.ndarray:
    """`total` values from `stream` in random chunks: small ints (odd ones
    among them), (n, d) tuples and draws that span several blocks; each
    keeps its shape and is float32."""
    parts, n = [], 0
    while n < total:
        kind = chooser.integers(3)
        if kind == 0:
            size = int(chooser.integers(1, 500))
        elif kind == 1:
            size = (int(chooser.integers(1, 300)), int(chooser.integers(1, 400)))
        else:
            size = int(chooser.integers(_BLOCK, 4 * _BLOCK))
        if np.prod(size) > total - n:
            size = total - n
        part = stream.standard_normal(size, dtype=np.float32)
        assert part.shape == np.empty(size).shape and part.dtype == np.float32
        parts.append(part.reshape(-1))
        n += part.size
    return np.concatenate(parts)


@pytest.mark.parametrize("chunking", range(3))
def test_normal_stream_matches_its_generator(chunking):
    want = _want(8, chunking, 40 * _BLOCK)
    with NormalStream(make_rng(8, chunking)) as stream:
        got = _draw_chunked(stream, np.random.default_rng(chunking), want.size)
    assert got.tobytes() == want.tobytes()


def test_some_blocks_end_on_a_spare_half():
    # the tests here cross block boundaries that fall on a spare 32-bit
    # half, which the helper hands on in the state it records
    rng = make_rng(8, 0)
    spare = []
    for _ in range(40):
        rng.standard_normal(_BLOCK, dtype=np.float32)
        spare.append(rng.bit_generator.state["has_uint32"])
    assert 0 < sum(spare) < len(spare)


def test_normal_stream_draws_float32_only():
    with NormalStream(make_rng(3)) as stream:
        with pytest.raises(ValueError, match="float32 only"):
            stream.standard_normal(4, dtype=np.float64)


def test_normal_stream_matches_while_its_helper_is_stopped():
    # stopped, the helper delivers nothing and the parent draws each
    # block itself; resumed, it skips to the parent's frontier and
    # delivers the blocks after it
    want = _want(9, 0, 60 * _BLOCK)
    chooser = np.random.default_rng(9)
    with NormalStream(make_rng(9)) as stream:
        parts = [_draw_chunked(stream, chooser, 10 * _BLOCK)]
        os.kill(stream.pid, signal.SIGSTOP)
        parts.append(_draw_chunked(stream, chooser, 20 * _BLOCK))
        assert stream.parent_blocks > 0
        os.kill(stream.pid, signal.SIGCONT)
        time.sleep(0.5)
        delivered = stream.helper_blocks
        parts.append(_draw_chunked(stream, chooser, 30 * _BLOCK))
        assert stream.helper_blocks > delivered
    assert np.concatenate(parts).tobytes() == want.tobytes()


def test_normal_stream_matches_after_its_helper_dies():
    # a helper that dies (say, of a ^C) leaves the parent to draw the rest
    want = _want(10, 0, 20 * _BLOCK)
    chooser = np.random.default_rng(10)
    with NormalStream(make_rng(10)) as stream:
        parts = [_draw_chunked(stream, chooser, 5 * _BLOCK)]
        os.kill(stream.pid, signal.SIGKILL)
        parts.append(_draw_chunked(stream, chooser, 15 * _BLOCK))
        assert stream.parent_blocks > 0
    assert np.concatenate(parts).tobytes() == want.tobytes()


def test_normal_stream_close_reaps_its_helper():
    stream = NormalStream(make_rng(1))
    pid = stream.pid
    stream.standard_normal(3 * _BLOCK, dtype=np.float32)
    stream.close()
    stream.close()  # idempotent
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_normal_stream_helper_exits_with_its_parent(module_env, tmp_path):
    # the child interpreter exits without close(), once its helper has
    # filled the ring and waits for the parent; the helper holds the
    # inherited write end of `keep` until it exits, so the read end sees
    # end-of-file once both processes are gone
    keep_r, keep_w = os.pipe()
    script = (
        "import os, time\n"
        "from splitsim.numeric import make_rng\n"
        "from splitsim.stream import NormalStream\n"
        "stream = NormalStream(make_rng(2))\n"
        "stream.standard_normal(10, dtype='float32')\n"
        "print(stream.pid, flush=True)\n"
        "time.sleep(0.2)\n"
        "os._exit(0)\n"
    )
    # the output goes to a file: the helper would hold a pipe open
    out = tmp_path / "out.txt"
    try:
        with open(out, "w") as fh:
            proc = subprocess.run([sys.executable, "-c", script], env=module_env,
                                  pass_fds=(keep_w,), stdout=fh, stderr=fh, timeout=60)
        os.close(keep_w)
        keep_w = None
        assert proc.returncode == 0, out.read_text()
        assert int(out.read_text()) > 0
        readable, _, _ = select.select([keep_r], [], [], 1.0)
        assert readable and os.read(keep_r, 1) == b"", "the helper outlived its parent"
    finally:
        for fd in (keep_r, keep_w):
            if fd is not None:
                os.close(fd)
