import math

import numpy as np
import pytest

from uwq.constants import BOUND_K_LADDER
from uwq.errors import SaturationError, TailBoundError, UwqError
from uwq.expansion import ClassParams, PolySymbol, compositions, gamma_norm_estimate, poly_derive
from uwq.weights import (
    Ultrapolynomial,
    WeightSequence,
    assoc_fn,
    check_assoc_bound,
    check_conditions,
    fit_bound_scale,
    load_weights,
    save_weights,
    ultrapoly_eval,
    verify_ultrapoly_bound,
)
import uwq.weights as wt
from uwq.weights import _BLOCK_BYTES


@pytest.fixture(scope="module")
def gevrey2():
    return WeightSequence.gevrey(2.0)


def brute_force_assoc(s, rho, pmax=50):
    return max(0.0, max(p * math.log(rho) - s * math.lgamma(p + 1) for p in range(pmax + 1)))


class TestAssocFn:
    def test_small_rho_vanishes(self, gevrey2):
        # +0.0, not the -0.0 of 0 * ln(0.5)
        assert float.hex(assoc_fn(gevrey2, 0.5).value) == "0x0.0p+0"

    def test_rho_two_is_log_two(self, gevrey2):
        res = assoc_fn(gevrey2, 2.0)
        assert res.value == pytest.approx(math.log(2.0), abs=1e-15)
        assert res.argmax == 1
        assert not res.saturated

    def test_matches_brute_force_scan(self, gevrey2):
        # same computation by a different scan order; must agree to 1e-12
        for rho in [0.1, 0.7, 1.0, 2.0, 5.5, 20.0, 300.0]:
            assert assoc_fn(gevrey2, rho).value == pytest.approx(
                brute_force_assoc(2.0, rho), abs=1e-12
            )

    def test_degenerate_constant_sequence_saturates(self):
        ones = WeightSequence.explicit(values=[1.0] * 65)
        res = assoc_fn(ones, 3.0)
        assert res.saturated

    def test_non_positive_rho_rejected(self, gevrey2):
        with pytest.raises(UwqError):
            assoc_fn(gevrey2, 0.0)
        with pytest.raises(UwqError):
            assoc_fn(gevrey2, -1.0)

    def test_monotone_in_rho_and_zero_below_m1(self, gevrey2):
        rhos = np.linspace(0.05, 30.0, 120)
        vals = [assoc_fn(gevrey2, r).value for r in rhos]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
        # m_1 = 1 for the quadratic-factorial sequence
        for r in rhos[rhos <= 1.0]:
            assert assoc_fn(gevrey2, r).value == 0.0

    def test_strict_growth_past_vanishing_region(self, gevrey2):
        for rho in [1.5, 2.0, 4.0, 10.0]:
            a = assoc_fn(gevrey2, rho)
            b = assoc_fn(gevrey2, 2.0 * rho)
            if b.value > 0.0 and not b.saturated:
                assert b.value > a.value


# Gevrey s = 1.5, 2, 3 and an explicit log-convex sequence (ln m_p = p/2).
SEQUENCES = [WeightSequence.gevrey(1.5), WeightSequence.gevrey(2.0), WeightSequence.gevrey(3.0),
             WeightSequence.explicit(log_values=0.25 * np.arange(41) * np.arange(1, 42))]


def rho_sweep(w):
    """Radii from far below m_1 to past m_P, with m_P and its neighbours and
    repeated values."""
    m_P = math.exp(w.log_values[-1] - w.log_values[-2])
    edge = [np.nextafter(m_P, 0.0), m_P, np.nextafter(m_P, np.inf)]
    return np.concatenate([np.geomspace(1e-3, 4.0 * m_P, 3000), edge, [2.0, 2.0, 0.5]])


def scalar_fields(res):
    return float.hex(float(res.value)), int(res.argmax), bool(res.saturated)


def scalar_scan(w, rho):
    """M(rho) by one scan over p for a single float rho: the reference the
    array evaluation must match bit for bit."""
    P = w.truncation
    terms = np.arange(P + 1) * math.log(rho) - w.log_values
    k = int(np.argmax(terms))
    value = max(0.0, float(terms[k]))
    saturated = (k == P and value > 0.0) or math.log(rho) >= w.log_values[-1] - w.log_values[-2]
    return float.hex(value), k, saturated


class TestAssocArray:
    @pytest.mark.parametrize("w", SEQUENCES, ids=["s1.5", "s2", "s3", "explicit"])
    def test_array_equals_scalar(self, w):
        rhos = rho_sweep(w)
        res = assoc_fn(w, rhos)
        assert res.saturated.any() and not res.saturated.all()
        for i, rho in enumerate(rhos):
            got = (float.hex(float(res.value[i])), int(res.argmax[i]), bool(res.saturated[i]))
            assert got == scalar_fields(assoc_fn(w, float(rho))) == scalar_scan(w, float(rho)), rho

    def test_shapes_kept(self, gevrey2):
        scalar = assoc_fn(gevrey2, 10.0)
        assert isinstance(scalar.value, float)
        assert f"{scalar.value:.17g}" == f"{float(scalar):.17g}"
        assert np.shape(scalar.value) == np.shape(scalar.argmax) == np.shape(scalar.saturated) == ()
        assert scalar.argmax == assoc_fn(gevrey2, np.array([10.0])).argmax[0]
        rhos = np.linspace(0.5, 50.0, 12)
        for shape in [(), (12,), (3, 4)]:
            r = rhos[0] if shape == () else rhos.reshape(shape)
            res = assoc_fn(gevrey2, np.asarray(r))
            assert np.shape(res.value) == np.shape(res.argmax) == np.shape(res.saturated) == shape
        grid = assoc_fn(gevrey2, rhos.reshape(3, 4))
        np.testing.assert_array_equal(grid.value.ravel(), assoc_fn(gevrey2, rhos).value)

    def test_empty_array(self, gevrey2):
        assert assoc_fn(gevrey2, np.array([])).value.shape == (0,)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_any_bad_entry_rejected(self, gevrey2, bad):
        with pytest.raises(UwqError):
            assoc_fn(gevrey2, np.array([1.0, 5.0, bad, 2.0]))
        with pytest.raises(UwqError):
            assoc_fn(gevrey2, np.array([[1.0, bad]]))


def gamma_norm_reference(a, params, box, points_per_axis=121):
    """The Gamma-seminorm estimate with the damping weight evaluated one
    point at a time, as a reference for the array evaluation."""
    d = a.d
    ax = np.linspace(-box, box, points_per_axis)
    mesh = np.meshgrid(*([ax] * (2 * d)), indexing="ij")
    xs, ks = tuple(mesh[:d]), tuple(mesh[d:])
    jap = np.sqrt(1.0 + sum(m**2 for m in mesh))

    def m_of(r):
        vals = np.zeros(r.size)
        for i, v in enumerate(r.ravel()):
            if v > 0.0:
                res = assoc_fn(params.weight, params.m * v)
                if res.saturated:
                    raise SaturationError("saturated")
                vals[i] = res.value
        return vals.reshape(r.shape)

    damp = np.exp(-m_of(np.sqrt(sum(m**2 for m in ks))) - m_of(np.sqrt(sum(m**2 for m in xs))))
    best = 0.0
    for tot_a in range(a.xi_degree() + 1):
        for alpha in compositions(tot_a, d):
            for tot_b in range(a.x_degree() + 1):
                for beta in compositions(tot_b, d):
                    dp = poly_derive(a, alpha, beta)
                    if dp.is_zero():
                        continue
                    order = tot_a + tot_b
                    weight = (jap ** (params.rho * order) * damp
                              / (params.h**order
                                 * math.exp(params.log_a(tot_a) + params.log_a(tot_b))))
                    best = max(best, float(np.max(np.abs(dp.evaluate(xs, ks)) * weight)))
    return best


class TestGammaNormArray:
    SYMBOLS = [
        PolySymbol(1, {((2,), (2,)): 0.7, ((1,), (0,)): 1.3, ((0,), (0,)): 0.9}),
        PolySymbol(1, {((4,), (2,)): 1.1, ((2,), (4,)): 0.6, ((3,), (0,)): 1.4,
                       ((0,), (1,)): 0.8, ((0,), (0,)): 1.0}),
    ]

    @pytest.mark.parametrize("s,m", [(2.0, 1.0), (1.5, 0.5), (3.0, 2.0)])
    def test_equals_per_point_reference(self, s, m):
        params = ClassParams(rho=1.0, h=1.0, m=m, weight=WeightSequence.gevrey(s))
        for a in self.SYMBOLS:
            got = gamma_norm_estimate(a, params, 10.0, points_per_axis=31)
            ref = gamma_norm_reference(a, params, 10.0, points_per_axis=31)
            assert float.hex(got) == float.hex(ref)

    def test_two_dimensions_equal_reference(self):
        params = ClassParams(rho=0.5, h=1.0, m=1.0, weight=WeightSequence.gevrey(2.0))
        a = PolySymbol(2, {((1, 0), (0, 1)): 1.0, ((0, 0), (2, 0)): 0.5})
        assert float.hex(gamma_norm_estimate(a, params, 4.0, points_per_axis=7)) == \
            float.hex(gamma_norm_reference(a, params, 4.0, points_per_axis=7))

    def test_saturation_raises(self):
        # m_P = 8^2 = 64 for the Gevrey-2 prefix of length 8; the mesh reaches 100
        params = ClassParams(rho=1.0, h=1.0, m=10.0,
                             weight=WeightSequence.gevrey(2.0, truncation=8))
        with pytest.raises(SaturationError):
            gamma_norm_estimate(PolySymbol.one(), params, 10.0, points_per_axis=21)
        with pytest.raises(SaturationError):
            gamma_norm_reference(PolySymbol.one(), params, 10.0, points_per_axis=21)


class TestConditions:
    def test_gevrey_log_convex(self, gevrey2):
        rep = check_conditions(gevrey2)
        assert rep.m1_ok and rep.m2_ok and rep.m3_ok

    def test_factorial_product_condition(self):
        # (p+q)! <= 2^{p+q} p! q! brute force on p+q <= 40: H = 2 with c0 = 1
        for p in range(21):
            for q in range(21):
                assert math.comb(p + q, q) <= 2 ** (p + q)
        lv = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1.0, 41.0))]))
        fact = WeightSequence.explicit(log_values=lv)
        rep = check_conditions(fact)
        assert rep.m1_ok and rep.m2_ok
        assert rep.m2_H <= 2.0 + 1e-12

    def test_non_log_convex_detected(self):
        bad = WeightSequence.explicit(values=[1.0, 1.0, 10.0, 11.0, 12.0])
        assert not check_conditions(bad).m1_ok

    def test_short_truncation_rejected(self):
        w = WeightSequence.explicit(values=[1.0, 1.0, 2.0])
        with pytest.raises(UwqError):
            check_conditions(w)

    def test_constant_sequence_fails_tail_sum(self):
        ones = WeightSequence.explicit(values=[1.0] * 65)
        assert not check_conditions(ones).m3_ok


class TestAssocBound:
    def test_gevrey_two_holds(self, gevrey2):
        assert check_assoc_bound(gevrey2, 1.0, 20)

    def test_small_m_trivial(self, gevrey2):
        # m m_1 < 1 makes the left side vanish
        assert check_assoc_bound(gevrey2, 0.5, 5)

    def test_adversarial_constants_fail(self, gevrey2):
        assert not check_assoc_bound(gevrey2, 1.0, 20, constants=(1.0, 1.0))

    def test_saturation_raises(self):
        # m m_n reaches the last stored quotient m_8 at n = 8
        short = WeightSequence.gevrey(2.0, truncation=8)
        assert check_assoc_bound(short, 1.0, 7, constants=(10.0, 8.0))
        for constants in [(10.0, 8.0), (1.0, 1.0)]:
            with pytest.raises(SaturationError, match="m_8"):
                check_assoc_bound(short, 1.0, 10, constants=constants)


class TestUltrapolynomial:
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_scale_must_be_finite_and_positive(self, gevrey2, bad):
        with pytest.raises(UwqError, match="scale l must be finite and positive"):
            Ultrapolynomial(weight=gevrey2, scale=bad)

    def test_value_at_zero_is_one(self, gevrey2):
        P = Ultrapolynomial(weight=gevrey2, scale=1.0, q=1, truncation=50)
        assert ultrapoly_eval(P, 0.0, strict=False) == 1.0 + 0.0j

    def test_zero_at_i_m1(self, gevrey2):
        P = Ultrapolynomial(weight=gevrey2, scale=1.0, q=1, truncation=50)
        assert abs(ultrapoly_eval(P, 1j, strict=False)) < 1e-14

    def test_truncated_regression_value(self, gevrey2):
        # direct product of fifty factors at z = 2 (frozen regression value)
        P = Ultrapolynomial(weight=gevrey2, scale=1.0, q=1, truncation=50)
        val = ultrapoly_eval(P, 2.0, strict=False)
        assert val.real == pytest.approx(6.756704463028991, rel=1e-13)

    def test_strict_tail_enforced(self, gevrey2):
        P = Ultrapolynomial(weight=gevrey2, scale=1.0, q=1, truncation=50)
        with pytest.raises(TailBoundError):
            ultrapoly_eval(P, 2.0, strict=True)
        # the smallest J with zmax^2 J^(1-2s)/(2s-1) < 1e-12 at zmax = 2, s = 2, l = 1
        J = math.ceil((4.0 / (3.0 * 1e-12)) ** (1.0 / 3.0))
        big = Ultrapolynomial(weight=gevrey2, scale=1.0, q=1, truncation=J)
        val = ultrapoly_eval(big, 2.0, strict=True)
        assert val.real == pytest.approx(6.7567744, rel=1e-6)

    def test_monotone_on_reals(self, gevrey2):
        P = Ultrapolynomial(weight=gevrey2, scale=1.0, q=1, truncation=400)
        xs = np.linspace(0.0, 10.0, 40)
        vals = [abs(ultrapoly_eval(P, x, strict=False)) for x in xs]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf, complex(1.0, np.nan),
                                   complex(np.inf, 0.0), complex(0.0, -np.inf)])
    @pytest.mark.parametrize("strict", [True, False])
    def test_non_finite_z_rejected(self, gevrey2, z, strict):
        P = Ultrapolynomial(weight=gevrey2, scale=1.0, q=1, truncation=50)
        with pytest.raises(UwqError, match="finite z"):
            ultrapoly_eval(P, z, strict=strict)

    def test_explicit_weights_cannot_certify_tail(self):
        ones = WeightSequence.explicit(values=[1.0] * 65)
        P = Ultrapolynomial(weight=ones, scale=1.0, q=1, truncation=30)
        with pytest.raises(TailBoundError):
            ultrapoly_eval(P, 1.0, strict=True)


@pytest.fixture(scope="module")
def wide():
    return WeightSequence.gevrey(2.0, truncation=192)


# points where numpy's array log and math.log differ in the last bit
LOG_EDGE = [float.fromhex(h) for h in ("0x1.3f2b50e263e6dp+2", "0x1.5e3e7f4de55a8p+4",
                                       "0x1.06382e26cfa0ap+5")]


def pointwise_bound(P, k, grid, floor=1e-8):
    """The lower-bound check as one ultrapoly_eval call per grid point."""
    best, arg = math.inf, 0
    for i, x in enumerate(np.abs(np.asarray(grid, dtype=float))):
        m = float(assoc_fn(P.weight, x / k).value) if x else 0.0
        val = ultrapoly_eval(P, complex(x), strict=False, tail_correction=True)
        log_ratio = math.log(abs(val)) - m
        ratio = math.exp(log_ratio) if log_ratio > -700 else 0.0
        if ratio < best:
            best, arg = ratio, i
    return best.hex(), arg, best >= floor


def scalar_log_product(P, x):
    """log of the truncated product at real x >= 0, one point at a time, as
    one pairwise sum over every factor (the algorithm before the series
    tail)."""
    if x == 0.0:
        return 0.0
    t = np.exp(2.0 * (math.log(x) - P.log_scales() - P.log_m()))
    return float(np.sum(np.log1p(t)))


EPS = 2.0 ** -52


def fsum_reference(P, x):
    """sum_j log1p(x_j) with math.exp and math.log1p on the exp argument
    the head uses, 2 (ln(x/l) - ln m_j), summed exactly by math.fsum."""
    if x == 0.0:
        return 0.0
    d = math.log(x) - math.log(P.scale)
    return math.fsum(math.log1p(math.exp(2.0 * (d - lm))) for lm in P.log_m().tolist())


def head_size(P, x):
    """The number of factors ``_log_factor_sums`` sums term by term at x."""
    if x == 0.0:
        return 0
    dz = np.array([math.log(x) - math.log(P.scale)])
    return int(wt._head_sizes(P.log_m(), dz)[0])


def sub_error(a, b):
    """(a - b) - fl(a - b), exactly (Knuth's TwoSum)."""
    s = a - b
    bv = s - a
    return (a - (s - bv)) + (-b - bv)


def _add_roundings(x, y):
    """Bounds on the rounding error of x + y: half an ulp of the result, or
    the smaller operand if that is less (the other one is a double that
    close to the sum)."""
    return np.minimum(0.5 * np.spacing(np.abs(x + y)), np.minimum(np.abs(x), np.abs(y)))


def pairwise_roundings(a):
    """(bounds on the rounding error of each addition, sum) of numpy's
    pairwise sum of the 1-d array a.  Above 128 terms numpy halves the
    range at a multiple of 8; each leaf of at most 128 terms runs eight
    interleaved accumulators, adds them as a tree and then any last n % 8
    terms.  Leaves of one size are simulated together."""
    leaves, nodes = [], []

    def split(lo, n):
        if n <= 128:
            leaves.append((lo, n))
            return lo, n
        half = n // 2 - n // 2 % 8
        nodes.append((split(lo, half), split(lo + half, n - half)))
        return lo, n

    split(0, a.size)
    sums, bounds = {}, []
    for n in sorted({n for _, n in leaves}):
        los = np.array([lo for lo, size in leaves if size == n])
        rows = a[los[:, None] + np.arange(n)]
        m = 0 if n < 8 else n - n % 8
        if m:
            blocks = rows[:, :m].reshape(los.size, -1, 8)
            acc = np.cumsum(blocks, axis=1)
            last = acc[:, -1]
            pairs = last[:, 0::2] + last[:, 1::2]
            bounds += [_add_roundings(acc[:, :-1], blocks[:, 1:]),
                       _add_roundings(last[:, 0::2], last[:, 1::2]),
                       _add_roundings(pairs[:, 0::2], pairs[:, 1::2])]
            quads = pairs[:, 0::2] + pairs[:, 1::2]
            bounds.append(_add_roundings(quads[:, 0], quads[:, 1]))
            start = (quads[:, 0] + quads[:, 1])[:, None]
        else:
            start = np.zeros((los.size, 1))
        run = np.cumsum(np.concatenate([start, rows[:, m:]], axis=1), axis=1)
        bounds.append(_add_roundings(run[:, :-1], rows[:, m:])[:, 0 if m else 1:])
        sums.update(zip(zip(los.tolist(), [n] * los.size), run[:, -1].tolist()))
    for left, right in nodes:
        sums[left[0], left[1] + right[1]] = sums[left] + sums[right]
        bounds.append(_add_roundings(np.array([sums[left]]), np.array([sums[right]])))
    return np.concatenate([b.ravel() for b in bounds]), sums[0, a.size]


def error_bound(P, x, head):
    """Bound on |log-sum - fsum_reference(P, x)| when the factors j < head
    are summed term by term with np.sum and the rest come from the series
    of ``weights._tail_series``; head = J is ``scalar_log_product``.

    Fixed parts: an ulp of exp and one of log1p per term (numpy's and
    math's agree to an ulp on both); in the tail, an ulp of np.exp in r and
    in each ratio u_j = exp(2 (top - ln m_j)) except u_j = 1, and the exact
    first-order effect of rounding the split exp argument 2 (d - top) +
    2 (top - ln m_j) instead of the reference's 2 (d - ln m_j) (it vanishes
    where ln m_j = top, whose argument is the reference's); the truncation
    theta^K/(K+1) of the tail and, for the power sums S_k with k >= 2, K
    roundings of theta/(2(1 - theta)) of it; half an ulp for fsum.
    Statistical part: the additions and products of the pairwise head sum,
    of 1 + the pairwise sum of the other u_j in S_1, of Horner's last two
    steps and of head + tail each round by at most b (``_add_roundings``);
    taken as independent and uniform on [-b, b] (Higham & Mary, SIAM J.
    Sci. Comput. 41 (2019)), they add four standard deviations,
    4 sqrt(sum b^2 / 3).  Their worst case, sum b, reaches 9.5 eps of the
    20,000-term pairwise sum alone, which no algorithm here comes near.
    """
    if x == 0.0:
        return 0.0
    lm = P.log_m()
    d = math.log(x) - math.log(P.scale)
    t = np.exp(2.0 * (d - lm))
    ell = np.log1p(t)
    total = float(ell.sum())
    fixed = float(np.sum(np.spacing(ell[:head]) + np.spacing(t[:head]) / (1.0 + t[:head])))
    fixed += 0.5 * math.ulp(total)
    roundings = [pairwise_roundings(ell[:head])[0]] if head else []
    if head < lm.size:
        theta, K = wt._THETA, wt._SERIES_TERMS
        lt, xt = lm[head:], t[head:]
        top_index = int(np.argmin(lt))
        top = float(lt[top_index])
        r = math.exp(2.0 * (d - top))
        u = np.exp(2.0 * (top - lt))
        tail = float(ell[head:].sum())
        exps = np.where(lt == top, 0.0, np.spacing(xt) + EPS * xt) + math.ulp(r) * u
        fixed += float(np.sum(np.spacing(ell[head:]) + exps / (1.0 + xt)))
        shift = sub_error(d, lt) - sub_error(d, top) - sub_error(top, lt)
        fixed += abs(float(np.sum(2.0 * shift * xt / (1.0 + xt))))
        higher = theta / (2.0 * (1.0 - theta))
        fixed += (theta ** K / (K + 1) + higher * K * EPS) * tail
        rest = u.copy()
        rest[top_index] = 0.0
        sum_roundings, s_rest = pairwise_roundings(rest)
        one_ulp_s1 = r * 0.5 * math.ulp(1.0 + s_rest)
        roundings += [(1.0 + higher) * r * sum_roundings,
                      [one_ulp_s1, one_ulp_s1, 0.5 * math.ulp(tail)]]
        if head:
            roundings.append([0.5 * math.ulp(total)])
    b2 = sum(float(np.sum(np.square(b))) for b in roundings)
    return fixed + 4.0 * math.sqrt(b2 / 3.0)


class TestLowerBound:

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("truncation", [20000, 5000])
    def test_array_check_matches_pointwise(self, s, truncation):
        # one block holds 6 rows at J = 20000 and 26 at J = 5000, so both
        # grids cross block boundaries; x = 0 sits inside the first grid
        P = Ultrapolynomial(weight=WeightSequence.gevrey(s, truncation=192), scale=1.0,
                            q=1, truncation=truncation)
        assert _BLOCK_BYTES // (8 * truncation) < 45
        for grid in (np.linspace(-5.0, 50.0, 45), np.r_[np.linspace(0.1, 50.0, 150), LOG_EDGE]):
            for k in (0.25, 1.0, 4.0):
                rep = verify_ultrapoly_bound(P, k, grid)
                assert (rep.C_tilde.hex(), rep.argmin, rep.ok) == pointwise_bound(P, k, grid)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_eval_and_scalar_product_within_error_model(self, s):
        # the series tail and the single pairwise sum both stay within the
        # error model of the exact sum, and the model within 8 eps
        w = WeightSequence.gevrey(s, truncation=192)
        cases = [(1.0, 20000, np.r_[np.linspace(0.0, 50.0, 40), LOG_EDGE])]
        cases += [(l, J, np.geomspace(1e-6, 1e3, 10)) for l in (1e-3, 1.0, 16.0)
                  for J in (50, 5000, 20000)]
        for l, J, xs in cases:
            P = Ultrapolynomial(weight=w, scale=l, q=1, truncation=J)
            sums = wt._log_factor_sums(P, xs)
            for x, got in zip(xs.tolist(), sums.tolist()):
                ref, head = fsum_reference(P, x), head_size(P, x)
                for value, bound in ((got, error_bound(P, x, head)),
                                     (scalar_log_product(P, x), error_bound(P, x, J))):
                    assert abs(value - ref) <= bound <= 8.0 * EPS * ref, (l, J, x, head)
        # ultrapoly_eval is exp of the same sum
        P = Ultrapolynomial(weight=w, scale=1.0, q=1, truncation=20000)
        xs = cases[0][2]
        for x, got in zip(xs.tolist(), wt._log_factor_sums(P, xs).tolist()):
            assert ultrapoly_eval(P, x, strict=False).real.hex() == math.exp(got).hex()

    def test_saturation_raises(self):
        P = Ultrapolynomial(weight=WeightSequence.gevrey(2.0, truncation=8), scale=1.0,
                            q=1, truncation=2000)
        with pytest.raises(SaturationError):
            verify_ultrapoly_bound(P, 1.0, [0.0, 1.0, 100.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_rejected_before_any_table(self, monkeypatch, wide, bad):
        P = Ultrapolynomial(weight=wide, scale=1.0, q=1, truncation=2000)
        monkeypatch.setattr(wt, "_log_factor_sums", lambda *args: pytest.fail("table built"))
        grid = [0.0, 1.0, bad, 2.0]
        with pytest.raises(UwqError, match="grid"):
            verify_ultrapoly_bound(P, 1.0, grid)
        with pytest.raises(UwqError, match="grid"):
            fit_bound_scale(P, grid)

    def test_grid_origin_ratio_one(self, wide):
        P = Ultrapolynomial(weight=wide, scale=1.0, q=1, truncation=2000)
        rep = verify_ultrapoly_bound(P, 10.0, [0.0])
        assert rep.C_tilde == pytest.approx(1.0)
        assert rep.ok

    def test_fitted_scale_passes(self, wide):
        P = Ultrapolynomial(weight=wide, scale=1.0, q=1, truncation=20000)
        grid = np.linspace(0.0, 50.0, 200)
        k = fit_bound_scale(P, grid)
        assert k is not None
        assert verify_ultrapoly_bound(P, k, grid).ok

    def test_fit_reuses_one_log_table_across_rungs(self, monkeypatch):
        # s = 1.5 at scale 16 first passes on the third rung, k = 1
        P = Ultrapolynomial(weight=WeightSequence.gevrey(1.5, truncation=192), scale=16.0,
                            q=1, truncation=20000)
        grid = np.linspace(0.0, 50.0, 200)
        reports = [verify_ultrapoly_bound(P, k, grid) for k in BOUND_K_LADDER]
        assert [rep.ok for rep in reports[:3]] == [False, False, True]
        table = wt._log_factor_sums
        log_sums = table(P, np.abs(grid))
        for k, rep in zip(BOUND_K_LADDER, reports):
            assert wt._bound_report(P, k, np.abs(grid), log_sums) == rep
        calls = []
        monkeypatch.setattr(wt, "_log_factor_sums",
                            lambda *args: calls.append(args) or table(*args))
        assert fit_bound_scale(P, grid) == 1.0
        assert len(calls) == 1

    def test_tiny_scale_fails(self, wide):
        P = Ultrapolynomial(weight=wide, scale=1.0, q=1, truncation=20000)
        grid = np.linspace(0.0, 50.0, 200)
        assert not verify_ultrapoly_bound(P, 0.01, grid).ok

    def test_ok_monotone_in_scale(self, wide):
        P = Ultrapolynomial(weight=wide, scale=1.0, q=1, truncation=20000)
        grid = np.linspace(0.0, 50.0, 200)
        ks = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        oks = [verify_ultrapoly_bound(P, k, grid).ok for k in ks]
        # once ok, stays ok for larger k
        seen = False
        for ok in oks:
            if seen:
                assert ok
            seen = seen or ok
        assert seen


class TestIO:
    def test_gevrey_round_trip(self, tmp_path, gevrey2):
        path = tmp_path / "w.txt"
        save_weights(gevrey2, path)
        back = load_weights(path)
        assert back.generator == gevrey2.generator
        np.testing.assert_allclose(back.log_values, gevrey2.log_values)

    def test_explicit_round_trip(self, tmp_path):
        w = WeightSequence.explicit(values=[1.0, 2.0, 8.0, 64.0, 1024.0])
        path = tmp_path / "w.txt"
        save_weights(w, path)
        back = load_weights(path)
        np.testing.assert_allclose(back.log_values, w.log_values, rtol=1e-15)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "w.txt"
        for text in ["mystery 2\n", "gevrey s=abc\n", "explicit\n0\nabc\n"]:
            path.write_text(text)
            with pytest.raises(UwqError):
                load_weights(path)

    def test_m0_must_be_one(self):
        with pytest.raises(UwqError):
            WeightSequence.explicit(values=[2.0, 3.0])
