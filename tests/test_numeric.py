import numpy as np
import pytest

from oracles import finite_difference_gradient
from splitsim.numeric import StructuredCovariance, make_rng, sample_structured_gaussian_batch


def test_same_seed_same_draws():
    a = make_rng(42).standard_normal(3)
    b = make_rng(42).standard_normal(3)
    assert np.array_equal(a, b)


def test_different_streams_differ():
    a = make_rng(42, 0).standard_normal(8)
    b = make_rng(42, 1).standard_normal(8)
    assert not np.array_equal(a, b)


def test_first_draws_pinned():
    # every run's bytes follow from these streams, so a change of bit
    # generator or seeding shows here first
    pinned = {
        0: ["-0x1.73345c39414cbp+0", "-0x1.418bc514d5871p-1", "-0x1.2908cfd35ab3ap+0"],
        1: ["0x1.4437bc7657f2ep-1", "-0x1.b6fa5628b28dcp+0", "-0x1.0185837114984p+0"],
    }
    for stream, want in pinned.items():
        got = [float(x).hex() for x in make_rng(7, stream).standard_normal(3)]
        assert got == want, f"stream {stream}"


def test_standard_normal_moments():
    x = make_rng(0).standard_normal(10**5)
    assert abs(x.mean()) <= 4.0 / np.sqrt(10**5)
    assert abs(x.var() - 1.0) <= 0.02


def test_structured_degenerate_is_zero():
    cov = StructuredCovariance(direction=np.array([1.0, 0.0]), along_var=0.0, iso_var=0.0)
    out = sample_structured_gaussian_batch(cov, make_rng(1), 5)
    assert np.array_equal(out, np.zeros((5, 2)))


def test_structured_rank_one_support():
    d = 6
    e1 = np.zeros(d)
    e1[0] = 1.0
    cov = StructuredCovariance(direction=e1, along_var=2.0, iso_var=0.0)
    rng = make_rng(2)
    for n in (1, 20):
        out = sample_structured_gaussian_batch(cov, rng, n)
        assert out.shape == (n, d)
        assert np.all(out[:, 1:] == 0.0)


def test_structured_rank_one_draws_only_its_scalars():
    # with iso_var == 0 only the n along-direction scalars are drawn, so
    # the stream continues as after n plain normals
    u = np.array([0.6, 0.0, -0.8])
    cov = StructuredCovariance(direction=u, along_var=2.0, iso_var=0.0)
    rng, twin = make_rng(6), make_rng(6)
    out = sample_structured_gaussian_batch(cov, rng, 7)
    z0 = twin.standard_normal(7, dtype=np.float32)
    z0 *= np.sqrt(2.0)  # in float32, as the sampler scales its draws
    assert out.dtype == np.float32
    assert out.tobytes() == np.outer(z0, u.astype(np.float32)).tobytes()
    assert np.array_equal(rng.standard_normal(5, dtype=np.float32),
                          twin.standard_normal(5, dtype=np.float32))


def test_structured_empirical_covariance():
    # along_var=3, iso_var=1, d=2: empirical covariance ~ 3 u u^T + I
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    cov = StructuredCovariance(direction=u, along_var=3.0, iso_var=1.0)
    draws = sample_structured_gaussian_batch(cov, make_rng(3), 10**5)
    emp = draws.T @ draws / draws.shape[0]
    target = 3.0 * np.outer(u, u) + np.eye(2)
    assert np.max(np.abs(emp - target)) <= 0.05


def test_structured_mean_norm_bound():
    d, n = 16, 20000
    u = np.zeros(d)
    u[3] = 1.0
    cov = StructuredCovariance(direction=u, along_var=2.0, iso_var=0.5)
    draws = sample_structured_gaussian_batch(cov, make_rng(4), n)
    bound = 4.0 * np.sqrt((cov.along_var + cov.iso_var * d) / n)
    assert np.linalg.norm(draws.mean(axis=0)) <= bound


def test_finite_difference_quadratic():
    x = np.array([1.0, 2.0])
    grad = finite_difference_gradient(lambda v: 0.5 * float(v @ v), x, h=1e-5)
    assert np.allclose(grad, x, atol=1e-8)


def test_finite_difference_constant():
    grad = finite_difference_gradient(lambda v: 7.5, np.ones(4), h=1e-5)
    assert np.array_equal(grad, np.zeros(4))


def test_finite_difference_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_difference_gradient(lambda v: 0.0, np.ones(2), h=0.0)


def test_no_nan_inf_from_sampling():
    cov = StructuredCovariance(
        direction=np.array([0.0, 1.0, 0.0]), along_var=1e6, iso_var=1e-9
    )
    draws = sample_structured_gaussian_batch(cov, make_rng(5), 1000)
    assert np.all(np.isfinite(draws))
