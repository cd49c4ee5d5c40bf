import math

import numpy as np
import pytest

from uwq.errors import UwqError
from uwq.expansion import (
    ClassParams,
    _heat_slice,
    PolySymbol,
    aw_to_weyl_terms,
    compose_terms,
    compositions,
    expansion_partial_sum,
    gamma_norm_estimate,
    gaussian_moment,
    heat_quarter,
    inverse_aw_recursion,
    moment_coeff,
    multi_factorial,
    poly_allclose,
    poly_derive,
    tau_change_terms,
    transpose_terms,
)
from uwq.weights import WeightSequence

X = PolySymbol.x()
XI = PolySymbol.xi()


def monomials_1d(max_degree):
    return [
        PolySymbol.monomial(1, (i,), (j,))
        for i in range(max_degree + 1)
        for j in range(max_degree + 1 - i)
    ]


def random_polys_2d(seed, count=6, max_degree=5):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(4):
            xe = tuple(int(v) for v in rng.integers(0, 3, size=2))
            ke = tuple(int(v) for v in rng.integers(0, 3, size=2))
            if sum(xe) + sum(ke) <= max_degree:
                terms[(xe, ke)] = complex(rng.standard_normal(), rng.standard_normal())
        if terms:
            out.append(PolySymbol(2, terms))
    return out


class TestPolySymbol:
    def test_no_zero_terms_stored(self):
        p = PolySymbol(1, {((0,), (1,)): 1.0, ((1,), (0,)): 0.0})
        assert len(p.terms) == 1

    def test_canonical_order_is_graded(self):
        p = X * X + XI + X * XI * XI
        keys = [k for k, _ in p.sorted_terms()]
        degrees = [sum(x) + sum(k) for x, k in keys]
        assert degrees == sorted(degrees)

    def test_evaluate(self):
        p = X * XI + 2.0
        val = p.evaluate((np.array([3.0]),), (np.array([4.0]),))
        assert val.ravel()[0] == pytest.approx(14.0)

    def test_algebra(self):
        assert poly_allclose((X + XI) * (X - XI), X * X - XI * XI)
        assert (X - X).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(UwqError):
            X + PolySymbol.x(d=2)

    @pytest.mark.parametrize("exponent", [
        (1.5,), ("3",), (True,), (np.True_,), (float("nan"),), 2.7, True, None, "3", (-1,),
        (1, 2)])
    def test_exponent_must_be_a_nonnegative_integer(self, exponent):
        with pytest.raises(UwqError):
            PolySymbol(1, {(exponent, (0,)): 1.0})
        with pytest.raises(UwqError):
            PolySymbol.monomial(1, (0,), exponent)

    def test_numpy_integer_exponents_become_python_ints(self):
        for exponent in (np.int64(2), (np.int32(2),), (np.uint8(2),), 2):
            p = PolySymbol(1, {(exponent, (1,)): 1.0})
            assert p == PolySymbol.monomial(1, [2], [np.int64(1)])
            ((xe, ke),) = p.terms
            assert type(xe[0]) is int and type(ke[0]) is int

    def test_keys_naming_one_monomial_sum(self):
        p = PolySymbol(1, {(1, 0): 2.0, ((1,), (0,)): 3.0})
        assert p.terms == {((1,), (0,)): 5.0}
        assert PolySymbol(1, {(np.int64(1), (0,)): 2.0, ((1,), 0): -2.0}).is_zero()

    @pytest.mark.parametrize("coeff", ["2", True, np.True_, None, [1.0], b"1"])
    def test_coefficient_must_be_a_number(self, coeff):
        with pytest.raises(UwqError, match="must be a number"):
            PolySymbol(1, {((1,), (0,)): coeff})
        with pytest.raises(UwqError, match="must be a number"):
            PolySymbol.monomial(1, (1,), (0,), coeff)

    def test_numpy_coefficients_accepted(self):
        for c in (np.float64(2.0), np.float32(2.0), np.int64(2), np.complex128(2.0), 2, 2.0):
            p = PolySymbol(1, {((1,), (0,)): c})
            assert p.terms == {((1,), (0,)): 2.0}
            assert all(type(v) is complex for v in p.terms.values())

    @pytest.mark.parametrize("d", [0, -1, 1.5, True, "1", None])
    def test_dimension_must_be_a_positive_integer(self, d):
        with pytest.raises(UwqError):
            PolySymbol(d, {})

    def test_scalar_arithmetic_with_numpy_numbers(self):
        p = X * XI + 1.0
        for one in (np.int64(1), np.int32(1), np.float64(1.0), 1):
            assert p + one == one + p == p + 1
            assert p - one == p - 1 and one - p == 1 - p
        for two in (np.int64(2), np.int32(2), np.float32(2.0), 2):
            for prod in (p * two, two * p):
                assert prod == p * 2
                assert all(type(c) is complex for c in prod.terms.values())

    @pytest.mark.parametrize("op", [
        lambda b: X + b, lambda b: b + X, lambda b: X - b,
        lambda b: b - X, lambda b: X * b, lambda b: b * X,
    ], ids=["x+bool", "bool+x", "x-bool", "bool-x", "x*bool", "bool*x"])
    def test_bool_scalar_rejected(self, op):
        for flag in (True, False, np.True_, np.False_):
            with pytest.raises(UwqError, match="not a bool"):
                op(flag)

    @pytest.mark.parametrize("other", ["a", [1], {1: 2}, None])
    def test_non_numbers_raise_type_error(self, other):
        for op in (lambda: X + other, lambda: other + X, lambda: X - other,
                   lambda: other - X, lambda: X * other, lambda: other * X):
            with pytest.raises(TypeError):
                op()


class TestDerive:
    def test_xi_derivative_of_cross_term(self):
        assert poly_allclose(poly_derive(X * XI, alpha=(1,)), X)

    def test_second_x_derivative_of_quartic(self):
        q = X * X * X * X
        assert poly_allclose(poly_derive(q, beta=(2,)), 12.0 * X * X)


class TestMoments:
    def test_zero_index(self):
        assert moment_coeff((0,), (0,)) == 1.0

    def test_odd_component_vanishes(self):
        assert moment_coeff((1,), (0,)) == 0.0
        assert moment_coeff((2, 1), (0, 0)) == 0.0

    def test_second_moment_against_quadrature(self):
        ts = np.linspace(-12.0, 12.0, 200001)
        quad = np.trapezoid(ts**2 * np.exp(-(ts**2)), ts) / math.sqrt(math.pi)
        assert moment_coeff((2,), (0,)) == pytest.approx(quad, abs=1e-10)
        assert moment_coeff((2,), (0,)) == 0.5

    def test_recurrence_matches_quadrature_to_ten(self):
        ts = np.linspace(-14.0, 14.0, 400001)
        base = np.exp(-(ts**2)) / math.sqrt(math.pi)
        for k in range(0, 11):
            quad = float(np.trapezoid(ts**k * base, ts))
            assert gaussian_moment(k) == pytest.approx(quad, abs=1e-8)

    def test_symmetries(self):
        # invariant under permutations within each index and under swapping
        assert moment_coeff((2, 4), (0, 2)) == moment_coeff((4, 2), (2, 0))
        assert moment_coeff((2, 4), (0, 2)) == moment_coeff((0, 2), (2, 4))


class TestSmoothingExpansion:
    def test_quadratic_symbol(self):
        e = aw_to_weyl_terms(XI * XI, 5)
        assert poly_allclose(e[0], XI * XI)
        assert poly_allclose(e[1], PolySymbol.one() * 0.5)
        assert all(e[j].is_zero() for j in range(2, 6))

    def test_linear_symbol_has_single_term(self):
        e = aw_to_weyl_terms(X)
        assert poly_allclose(expansion_partial_sum(e, len(e)), X)

    def test_quartic_terms(self):
        e = aw_to_weyl_terms(X * X * X * X)
        assert poly_allclose(e[1], 3.0 * X * X)
        assert poly_allclose(e[2], PolySymbol.one() * 0.75)

    def test_full_sum_equals_heat_flow(self):
        for a in monomials_1d(8) + random_polys_2d(21):
            e = aw_to_weyl_terms(a)
            assert poly_allclose(expansion_partial_sum(e, len(e)), heat_quarter(a, +1), rtol=1e-12)


class TestHeatQuarter:
    def test_examples(self):
        assert poly_allclose(heat_quarter(XI * XI), XI * XI + 0.5)
        assert poly_allclose(heat_quarter(X * X * X * X), X * X * X * X + 3.0 * X * X + 0.75)
        assert poly_allclose(heat_quarter(PolySymbol.one(), +1), PolySymbol.one())
        assert poly_allclose(heat_quarter(PolySymbol.one(), -1), PolySymbol.one())

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            terms = {
                ((int(rng.integers(0, 5)),), (int(rng.integers(0, 5)),)): complex(
                    rng.standard_normal(), rng.standard_normal()
                )
                for _ in range(4)
            }
            p = PolySymbol(1, terms)
            assert poly_allclose(heat_quarter(heat_quarter(p, +1), -1), p, rtol=1e-12)

    def test_bad_sign(self):
        with pytest.raises(UwqError):
            heat_quarter(X, 2)


class TestInverseRecursion:
    def test_first_table_entry(self):
        res = inverse_aw_recursion(XI * XI)
        assert poly_allclose(res.primed[(1, 1)], PolySymbol.one() * 0.5)
        assert poly_allclose(res.a, XI * XI - 0.5)

    def test_constant_is_fixed(self):
        res = inverse_aw_recursion(PolySymbol.one())
        assert poly_allclose(res.a, PolySymbol.one())

    def test_quartic(self):
        res = inverse_aw_recursion(X * X * X * X)
        assert poly_allclose(res.a, X * X * X * X - 3.0 * X * X + 0.75)
        assert poly_allclose(res.a, heat_quarter(X * X * X * X, -1), rtol=1e-12)

    def test_round_trip_over_corpus(self):
        for b in monomials_1d(8) + random_polys_2d(22):
            res = inverse_aw_recursion(b)
            assert poly_allclose(heat_quarter(res.a, +1), b, rtol=1e-12)
            assert poly_allclose(res.a, heat_quarter(b, -1), rtol=1e-12)

    def test_order_zero_and_negative(self):
        assert poly_allclose(inverse_aw_recursion(XI * XI, 0).a, XI * XI)
        assert len(aw_to_weyl_terms(XI * XI, 0)) == 1
        for J in (-1, -5):
            with pytest.raises(UwqError, match="must be >= 0"):
                inverse_aw_recursion(XI * XI, J)
            with pytest.raises(UwqError, match="must be >= 0"):
                aw_to_weyl_terms(XI * XI, J)


class TestTauChange:
    def test_x_independent_is_fixed(self):
        a = XI * XI * XI
        for t1, t in [(0.0, 0.5), (1.0, 0.0), (0.5, 0.25)]:
            assert poly_allclose(tau_change_terms(a, t1, t), a)

    def test_cross_term_picks_up_half_i(self):
        # sign pinned by the kernel round-trip and matrix oracles in quant
        b = tau_change_terms(X * XI, 0.0, 0.5)
        assert poly_allclose(b, X * XI + 0.5j)

    def test_involution(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            terms = {
                ((int(rng.integers(0, 4)),), (int(rng.integers(0, 4)),)): complex(
                    rng.standard_normal(), rng.standard_normal()
                )
                for _ in range(4)
            }
            p = PolySymbol(1, terms)
            back = tau_change_terms(tau_change_terms(p, 0.0, 1.0), 1.0, 0.0)
            assert poly_allclose(back, p, rtol=1e-12)


class TestTranspose:
    def test_weyl_point_reflects_only(self):
        a = X * XI + XI * XI
        assert poly_allclose(transpose_terms(a, 0.5), a.reflect_xi())

    def test_pure_frequency_symbol(self):
        assert poly_allclose(transpose_terms(XI, 0.0), -1.0 * XI)

    def test_cross_term(self):
        # transpose of the product-ordering operator of x*xi
        assert poly_allclose(transpose_terms(X * XI, 0.0), -1.0 * X * XI + 1j)


class TestCompose:
    def test_leibniz_correction(self):
        assert poly_allclose(compose_terms(XI, X), X * XI - 1j)

    def test_frequency_free_left_factor(self):
        a = X * X
        b = X * XI + XI
        assert poly_allclose(compose_terms(a, b), a * b)

    def test_associativity_on_monomials(self):
        monos = [
            PolySymbol.monomial(1, (i,), (j,)) for i in range(3) for j in range(3) if i + j <= 4
        ]
        rng = np.random.default_rng(6)
        for _ in range(12):
            a, b, c = (monos[int(rng.integers(0, len(monos)))] for _ in range(3))
            lhs = compose_terms(compose_terms(a, b), c)
            rhs = compose_terms(a, compose_terms(b, c))
            assert poly_allclose(lhs, rhs, rtol=1e-12)


@pytest.fixture(scope="module")
def params():
    return ClassParams(rho=1.0, h=1.0, m=1.0, weight=WeightSequence.gevrey(2.0))


class TestGammaNorm:

    def test_zero_symbol(self, params):
        assert gamma_norm_estimate(PolySymbol.zero(1), params, 20.0) == 0.0

    def test_unit_symbol(self, params):
        assert gamma_norm_estimate(PolySymbol.one(), params, 20.0) == pytest.approx(1.0)

    def test_quadratic_regression_and_monotonicity(self):
        w = WeightSequence.gevrey(2.0)
        base = ClassParams(rho=1.0, h=1.0, m=1.0, weight=w)
        v1 = gamma_norm_estimate(XI * XI, base, 20.0)
        assert np.isfinite(v1) and v1 > 0
        v_h = gamma_norm_estimate(XI * XI, ClassParams(rho=1.0, h=2.0, m=1.0, weight=w), 20.0)
        v_m = gamma_norm_estimate(XI * XI, ClassParams(rho=1.0, h=1.0, m=2.0, weight=w), 20.0)
        assert v_h <= v1 + 1e-12
        assert v_m <= v1 + 1e-12

    def test_invalid_params(self):
        w = WeightSequence.gevrey(2.0)
        with pytest.raises(UwqError):
            ClassParams(rho=1.5, h=1.0, m=1.0, weight=w)
        with pytest.raises(UwqError):
            ClassParams(rho=0.5, h=-1.0, m=1.0, weight=w)


class TestPartialSum:
    def test_zero_order(self):
        e = aw_to_weyl_terms(XI * XI, 3)
        assert expansion_partial_sum(e, 0).is_zero()

    def test_first_two_terms(self):
        e = aw_to_weyl_terms(XI * XI, 5)
        assert poly_allclose(expansion_partial_sum(e, 2), XI * XI + 0.5)

    def test_out_of_range(self):
        e = aw_to_weyl_terms(XI * XI, 2)
        with pytest.raises(UwqError):
            expansion_partial_sum(e, 7)


class TestHelpers:
    def test_multi_factorial(self):
        assert multi_factorial((3, 2)) == 12

    def test_compositions_count(self):
        assert len(list(compositions(4, 2))) == 5
        assert set(compositions(2, 2)) == {(0, 2), (1, 1), (2, 0)}


def full_heat_slice(p, l):
    """The heat slice over every even (alpha, beta) with |alpha + beta| = 2l,
    no degree box: the reference the pruned enumeration must reproduce."""
    d = p.d
    out = PolySymbol.zero(d)
    for half in compositions(l, 2 * d):
        alpha = tuple(2 * a for a in half[:d])
        beta = tuple(2 * b for b in half[d:])
        dp = poly_derive(p, alpha, beta)
        if not dp.is_zero():
            c = moment_coeff(alpha, beta, d)
            out = out + dp * (c / (multi_factorial(alpha) * multi_factorial(beta)))
    return out


class TestHeatSlicePruning:
    @pytest.mark.parametrize("p", monomials_1d(6) + random_polys_2d(3) + [
        PolySymbol.zero(2),
        PolySymbol(2, {((4, 0), (0, 3)): 1.5 - 2j, ((0, 2), (5, 0)): -0.25j}),
        PolySymbol(2, {((7, 1), (2, 2)): 1 / 3, ((1, 0), (0, 6)): 2.0}),
    ], ids=repr)
    def test_equals_full_enumeration_bitwise(self, p):
        for l in range(0, p.degree() // 2 + 3):
            got, want = _heat_slice(p, l), full_heat_slice(p, l)
            assert list(got.terms) == list(want.terms)
            assert [(c.real.hex(), c.imag.hex()) for c in got.terms.values()] == \
                [(c.real.hex(), c.imag.hex()) for c in want.terms.values()]

    def test_derives_only_inside_the_degree_box(self, monkeypatch, params):
        import uwq.expansion as ex

        seen = []
        derive = ex.poly_derive
        monkeypatch.setattr(ex, "poly_derive",
                            lambda p, a, b: seen.append((p, a, b)) or derive(p, a, b))
        p = PolySymbol(2, {((2, 0), (0, 4)): 1.0, ((0, 0), (2, 0)): 1.0})
        ex._heat_slice(p, 2)
        # x-box (2, 0), xi-box (2, 4): half-caps (1, 2 | 1, 0) at total 2 give
        # four pairs; no single term survives ((2, 0), (2, 0)) or ((2, 2), (0, 0))
        assert [(a, b) for _, a, b in seen] == [((0, 2), (2, 0)), ((0, 4), (0, 0))]

        q = PolySymbol(2, {((1, 0), (0, 1)): 1.0, ((0, 3), (1, 0)): 2.0, ((1, 1), (0, 0)): 0.5})
        seen.clear()
        tau_change_terms(p, 0.0, 1.0)
        tau_change_terms(q, 0.0, 1.0)
        compose_terms(p, q)
        compose_terms(q, p)
        gamma_norm_estimate(q, params, 3.0, points_per_axis=5)
        assert len(seen) > 10
        for r, alpha, beta in seen:
            # inside the box of one term, so inside the degree box of r
            assert any(all(a <= c for a, c in zip(alpha or (0, 0), ke))
                       and all(b <= c for b, c in zip(beta or (0, 0), xe))
                       for xe, ke in r.terms), (r, alpha, beta)

    def test_no_derivative_is_zero(self, monkeypatch, params):
        # the calculus of a calculus benchmark pass, on random polynomials
        # of degree 12 (d=1) and 8 (d=2): every poly_derive call it makes
        # returns a non-zero symbol
        import uwq.expansion as ex

        calls, zeros = [], []
        derive = ex.poly_derive

        def counted(p, a=None, b=None):
            out = derive(p, a, b)
            calls.append(1)
            if out.is_zero():
                zeros.append((p, a, b))
            return out

        monkeypatch.setattr(ex, "poly_derive", counted)
        rng = np.random.default_rng(7)
        polys = []
        for d, degree in ((1, 12), (2, 8)):
            for _ in range(3):
                terms = {}
                for _ in range(8):
                    e = rng.multinomial(int(rng.integers(0, degree + 1)), [1 / (2 * d)] * (2 * d))
                    terms[tuple(map(int, e[:d])), tuple(map(int, e[d:]))] = rng.uniform(-1, 1)
                polys.append(PolySymbol(d, terms))
        for a in polys:
            ex.heat_quarter(ex.heat_quarter(a, +1), -1)
            ex.aw_to_weyl_terms(a)
            ex.inverse_aw_recursion(a)
            ex.tau_change_terms(a, 0.25, 0.75)
            ex.transpose_terms(a, 0.5)
            for b in polys:
                if b.d == a.d:
                    ex.compose_terms(a, b)
        for a in polys[:2]:
            ex.gamma_norm_estimate(a, params, 10.0, points_per_axis=5)
        assert len(calls) > 500
        assert zeros == []
