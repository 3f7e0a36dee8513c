import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from cps_sentinel.numerics import (
    BAND_ENTRIES,
    DIM_CAP,
    DiagonalPsd,
    GaussianLaw,
    NotPositiveDefinite,
    NotSymmetric,
    as_square_matrix,
    block_steps,
    compensated_cumsum,
    eig_extremes,
    logdet,
    make_spd,
    matvec,
    reachable,
    sample_gaussian,
    split_seed,
)
from cps_sentinel.model import AttackConfig, CpsModel, honest_influence_check
from oracles import log_gaussian_density, quad_form_inv, step_loop_sum2


def det_cofactor(a):
    """Independent determinant oracle: first-row cofactor expansion."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * det_cofactor(minor)
    return total


class TestMakeSpd:
    def test_identity(self):
        v = make_spd(np.eye(2))
        assert np.array_equal(np.diag(v.chol), [1.0, 1.0])

    def test_positive_definite_accepted(self):
        # determinant 3 > 0 and positive trace, checked by hand
        v = make_spd([[2.0, 1.0], [1.0, 2.0]])
        assert v.dim == 2

    def test_indefinite_rejected(self):
        # determinant -3 < 0
        with pytest.raises(NotPositiveDefinite):
            make_spd([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetry_rejected(self):
        with pytest.raises(NotSymmetric):
            make_spd([[1.0, 0.1], [0.2, 1.0]])

    def test_asymmetry_within_tolerance_accepted(self):
        m = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
        make_spd(m)

    def test_cholesky_reproduces_matrix(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(1, 7)
            g = rng.standard_normal((n, n))
            m = g @ g.T + 0.5 * np.eye(n)
            v = make_spd(m)
            np.testing.assert_allclose(v.chol @ v.chol.T, m, rtol=1e-10)

    def test_dim_cap(self):
        with pytest.raises(ValueError):
            make_spd(np.eye(33))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            make_spd([[np.inf, 0.0], [0.0, 1.0]])


class TestLogdet:
    def test_identity_any_dim(self):
        for n in (1, 3, 8):
            assert logdet(make_spd(np.eye(n))) == 0.0

    def test_diagonal(self):
        # product of diagonal entries
        assert logdet(make_spd([[2.0, 0.0], [0.0, 3.0]])) == pytest.approx(math.log(6.0))

    def test_two_by_two(self):
        # 2x2 determinant by hand: 2*2 - 1*1 = 3
        assert logdet(make_spd([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(math.log(3.0))

    def test_matches_cofactor_expansion_up_to_dim_3(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            g = rng.standard_normal((n, n))
            m = g @ g.T + 0.3 * np.eye(n)
            assert logdet(make_spd(m)) == pytest.approx(
                math.log(det_cofactor(m)), abs=1e-10)

    def test_diag_psd_logdet(self):
        assert logdet(DiagonalPsd([2.0, 3.0])) == pytest.approx(math.log(6.0))
        with pytest.raises(NotPositiveDefinite):
            logdet(DiagonalPsd([1.0, 0.0]))


class TestEigExtremes:
    def test_identity(self):
        assert eig_extremes(make_spd(np.eye(3))) == (1.0, 1.0)

    def test_diagonal(self):
        assert eig_extremes(make_spd([[1.0, 0.0], [0.0, 4.0]])) == (1.0, 4.0)

    def test_coupled(self):
        # characteristic polynomial: lambda^2 - 4 lambda + 3 -> roots 1 and 3
        lo, hi = eig_extremes(make_spd([[2.0, 1.0], [1.0, 2.0]]))
        assert lo == pytest.approx(1.0, rel=1e-8)
        assert hi == pytest.approx(3.0, rel=1e-8)

    def test_ordering(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            g = rng.standard_normal((n, n))
            lo, hi = eig_extremes(make_spd(g @ g.T + 0.1 * np.eye(n)))
            assert 0.0 < lo <= hi


class TestQuadFormInv:
    def test_identity(self):
        assert quad_form_inv(make_spd(np.eye(2)), [3.0, 4.0]) == pytest.approx(25.0)

    def test_diagonal(self):
        assert quad_form_inv(make_spd(2.0 * np.eye(2)), [2.0, 0.0]) == pytest.approx(2.0)

    def test_coupled(self):
        # explicit 2x2 inverse: (1/3) [[2,-1],[-1,2]], z=(1,1) -> 2/3
        v = make_spd([[2.0, 1.0], [1.0, 2.0]])
        assert quad_form_inv(v, [1.0, 1.0]) == pytest.approx(2.0 / 3.0)

    def test_rayleigh_sandwich_over_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            g = rng.standard_normal((n, n))
            v = make_spd(g @ g.T + 0.05 * np.eye(n))
            z = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            q = quad_form_inv(v, z)
            lo, hi = eig_extremes(v)
            norm2 = float(z @ z)
            assert q >= norm2 / hi * (1 - 1e-9)
            assert q <= norm2 / lo * (1 + 1e-9)
            assert q >= 0.0


class TestLogGaussianDensity:
    def test_at_mean_identity_cov(self):
        law = GaussianLaw([0.5, -0.5], make_spd(np.eye(2)))
        assert log_gaussian_density([0.5, -0.5], law) == pytest.approx(
            -math.log(2.0 * math.pi))

    def test_scalar_standard(self):
        law = GaussianLaw([0.0], make_spd([[1.0]]))
        assert log_gaussian_density([1.0], law) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi) - 0.5)

    def test_scalar_var4(self):
        law = GaussianLaw([0.0], make_spd([[4.0]]))
        assert log_gaussian_density([0.0], law) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi) - 0.5 * math.log(4.0))

    def test_integrates_to_one_scalar(self):
        mean, var = 0.3, 2.0
        law = GaussianLaw([mean], make_spd([[var]]))
        sigma = math.sqrt(var)
        xs = np.linspace(mean - 8 * sigma, mean + 8 * sigma, 16001)
        dens = np.array([math.exp(log_gaussian_density([x], law)) for x in xs])
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-6)


class TestSampleGaussian:
    def test_zero_diagonal_returns_mean(self):
        law = GaussianLaw([1.0, -2.0], DiagonalPsd([0.0, 0.0]))
        rng = np.random.default_rng(5)
        assert np.array_equal(sample_gaussian(rng, law), [1.0, -2.0])

    def test_pure_function_of_stream_state(self):
        law = GaussianLaw([0.0, 0.0], make_spd([[2.0, 0.5], [0.5, 1.0]]))
        a = sample_gaussian(np.random.default_rng(42), law)
        b = sample_gaussian(np.random.default_rng(42), law)
        assert np.array_equal(a, b)

    def test_large_sample_covariance(self):
        law = GaussianLaw([0.0, 0.0], make_spd(np.eye(2)))
        rng = np.random.default_rng(6)
        draws = np.array([sample_gaussian(rng, law) for _ in range(100_000)])
        cov = np.cov(draws.T)
        assert np.abs(cov - np.eye(2)).max() < 0.05

    def test_degenerate_entries_keep_stream_alignment(self):
        full = GaussianLaw([0.0, 0.0], DiagonalPsd([1.0, 1.0]))
        half = GaussianLaw([0.0, 0.0], DiagonalPsd([1.0, 0.0]))
        rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
        sample_gaussian(rng1, full)
        sample_gaussian(rng2, half)
        assert np.array_equal(rng1.standard_normal(4), rng2.standard_normal(4))


EPS = Fraction(1, 2 ** 53)


def sum2_bound(prefix: list, exact: Fraction) -> Fraction:
    """Sum2's error bound on a prefix: eps |s| + gamma_{n-1}^2 sum |x|."""
    k = len(prefix) - 1
    gamma = k * EPS / (1 - k * EPS)
    return EPS * abs(exact) + gamma * gamma * sum(abs(Fraction(v)) for v in prefix)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_compensated_cumsum_within_the_sum2_bound(values):
    out = compensated_cumsum(values)
    exact = Fraction(0)
    for i, v in enumerate(values):
        exact += Fraction(v)
        assert abs(Fraction(out[i]) - exact) <= sum2_bound(values[:i + 1], exact)


def step_loop_kahan(values):
    """Kahan's compensated prefix sums, one step at a time."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    total = np.zeros(values.shape[:-1])
    comp = np.zeros(values.shape[:-1])
    for i in range(values.shape[-1]):
        y = values[..., i] - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out[..., i] = total
    return out


def test_an_ill_conditioned_sum_is_the_rounded_exact_prefix_where_kahan_is_not():
    values = [1.0, 1e100, 1.0, -1e100]
    exact = [float(sum(map(Fraction, values[:i + 1]))) for i in range(len(values))]
    assert compensated_cumsum(values).tolist() == exact == [1.0, 1e100, 1e100, 2.0]
    # Kahan loses the first 1.0 inside 1e100 and ends at 0.0
    assert step_loop_kahan(values).tolist()[-1] == 0.0


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 1), (2, 5, 9), (4, 40, 500), (3, 7),
                                   (3, 5, 2)])
def test_compensated_cumsum_is_the_step_loop_bit_for_bit(shape):
    rng = np.random.default_rng(31)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
    values.reshape(-1)[::7] = -0.0
    given_values = values.copy()
    out = compensated_cumsum(values)
    assert out.shape == values.shape
    assert (out.view(np.int64) == step_loop_sum2(values).view(np.int64)).all()
    assert (values.view(np.int64) == given_values.view(np.int64)).all()
    # a strided view of the same numbers sums alike
    wide = np.zeros(shape[:-1] + (2 * shape[-1],))
    wide[..., ::2] = values
    assert (compensated_cumsum(wide[..., ::2]).view(np.int64) == out.view(np.int64)).all()
    # and so does each series alone
    for k in np.ndindex(shape[:-1]):
        assert (compensated_cumsum(values[k]).view(np.int64) == out[k].view(np.int64)).all()


def test_the_dimension_limit_is_fixed_and_named():
    assert DIM_CAP == 32
    as_square_matrix(np.eye(32))
    with pytest.raises(ValueError, match=r"^dimension 33 exceeds the fixed limit 32$"):
        as_square_matrix(np.eye(33))


@pytest.mark.parametrize("n", [1, 2, 16])
def test_matvec_never_returns_negative_zero(n):
    # every product is -0.0: a zero gain times negative states, a -0.0 gain
    # times positive ones, and positive gains times -0.0 states
    x = np.random.default_rng(27).uniform(0.5, 2.0, (3, 4, n))
    for a, v in ((np.zeros((n, n)), -x), (np.full((n, n), -0.0), x),
                 (np.ones((n, n)), np.full_like(x, -0.0))):
        out = matvec(a, v)
        assert out.shape == v.shape
        assert (out == 0).all() and not np.signbit(out).any()


def test_split_seed_is_stable_and_spread():
    seeds = [split_seed(2025, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert all(0 <= s < 2 ** 64 for s in seeds)
    assert seeds[0] == split_seed(2025, 0)
    assert split_seed(0, 1) == split_seed(1, 0)


def test_gaussian_law_dimension_check():
    with pytest.raises(ValueError):
        GaussianLaw([0.0, 0.0, 0.0], make_spd(np.eye(2)))


@pytest.mark.parametrize("cuts", [(1,), (3, 4), (1, 1, 1), (17,), (5, 30, 2)])
def test_compensated_cumsum_continues_from_a_carry_bit_for_bit(cuts):
    rng = np.random.default_rng(43)
    values = rng.standard_normal((3, 40)) * 10.0 ** rng.integers(-12, 12, (3, 40))
    values.reshape(-1)[::7] = -0.0
    whole = compensated_cumsum(values)
    carry = np.zeros((2, 3))
    pieces, lo = [], 0
    for hi in list(np.cumsum(cuts)) + [40]:
        pieces.append(compensated_cumsum(values[:, lo:hi], carry))
        lo = hi
    assert (np.concatenate(pieces, axis=-1).view(np.int64) == whole.view(np.int64)).all()
    # a carry that is a strided view of a larger array is read and written alike
    wide = np.zeros((2, 7))
    a = compensated_cumsum(values[:, :20], wide[:, ::3])
    b = compensated_cumsum(values[:, 20:], wide[:, ::3])
    assert (np.concatenate([a, b], axis=-1).view(np.int64) == whole.view(np.int64)).all()
    assert not wide[:, 1::3].any() and not wide[:, 2::3].any()


@pytest.mark.parametrize("n_agents", range(1, DIM_CAP + 1))
def test_the_detector_block_is_the_largest_divisor_of_the_simulator_s_that_fits(n_agents):
    top = block_steps(n_agents)
    assert top == max(1, 64 // n_agents)
    for rows in range(n_agents, 4 * n_agents + 1, n_agents):
        for lags in (1, 2, 3):
            def fits(b):
                return b * rows * (lags + b) * n_agents <= BAND_ENTRIES

            block = block_steps(n_agents, rows, lags)
            assert top % block == 0 and (block == 1 or fits(block))
            assert not any(fits(b) for b in range(block + 1, top + 1) if top % b == 0)


def test_the_detector_blocks_of_two_agents():
    # one lag; two, three and four stacked residual blocks of two rows
    assert [block_steps(2, rows, 1) for rows in (4, 6, 8)] == [16, 16, 8]


def finite_distances(edges):
    """Reachability oracle: a finite hop count from x to y along nonzero ``edges[x, y]``."""
    return np.isfinite(shortest_path(np.ascontiguousarray(edges != 0), directed=True,
                                     unweighted=True))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 64), density=st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3]),
       seed=st.integers(0, 2**32 - 1))
def test_reachable_is_a_finite_shortest_path(n, density, seed):
    rng = np.random.default_rng(seed)
    edges = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
    np.testing.assert_array_equal(reachable(edges), finite_distances(edges))
    if n > DIM_CAP:
        return
    # the influence check's graph is the transpose: dynamics[i, j] != 0 is an edge j -> i
    gains = (rng.random(n) < 0.3).astype(float)
    m = CpsModel(n, edges, gains, np.eye(n), np.ones(n), None)
    sources = np.flatnonzero(gains)
    reached = finite_distances(edges.T)[sources].any(axis=0)
    holds, unreachable = honest_influence_check(m, None)
    assert unreachable == frozenset((np.flatnonzero(~reached) + 1).tolist())
    assert holds == reached.all()
