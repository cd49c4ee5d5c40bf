"""Property tests: the matrix-free ``apply_symbol`` is the dense
tau-quantization operator, acts on a stack of functions bitwise as on each
function alone, and ``transpose_terms`` is the symbol of its transpose;
they need hypothesis.

Both paths compute the same discrete operator, so the only defect is
rounding.  It is bounded relative to sum_terms |c| L^|beta| xi_N^|alpha|
times max |u|, the size the dense matrix-vector product rounds against
(xi_N = pi n / 2L is the largest frequency of the grid).  Measured over
1,200 random symbols and inputs per grid: at most 3.7e-16 (d=1, n=64) and
3.4e-16 (d=2, n=16) of that scale.

The transpose is checked matrix-free through the bilinear identity
sum (Op_tau(a) u) v = sum u (Op_tau(b) v), b = transpose_terms(a, tau),
relative to |Op_tau(a) u| |v|.  Measured over 150 random symbols per grid
at L = 10: at most 1.3e-15 (n=64), 4.0e-15 (n=128) and 1.9e-14 (n=256).

The difference-class index of the dense maps is checked exactly: it is a
permutation of the table's flat positions, each entry sits where the
per-entry formula puts it, and a gather followed by the scatter through
the same index returns the table bitwise.
"""

import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uwq.expansion import PolySymbol, transpose_terms  # noqa: E402
from uwq.grid import AxisGrid, FunctionGrid  # noqa: E402
from uwq.quant import (  # noqa: E402
    _class_index,
    apply_symbol,
    kernel_from_symbol,
    operator_matrix,
)
from uwq.suites import _decaying_corpus  # noqa: E402

TOL = 1e-13
MAX_DEGREE = 4
GRIDS = {1: AxisGrid(64, 8.0, 1), 2: AxisGrid(16, 4.0, 2)}

coefficients = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0,
                                  allow_nan=False, allow_infinity=False)


@st.composite
def polys(draw, d):
    # up to MAX_DEGREE factors, each one of x_1..x_d, xi_1..xi_d
    exponents = st.lists(st.integers(0, 2 * d - 1), max_size=MAX_DEGREE).map(
        lambda ix: tuple(ix.count(i) for i in range(2 * d)))
    terms = draw(st.dictionaries(exponents, coefficients, min_size=1, max_size=6))
    return PolySymbol(d, {(e[:d], e[d:]): c for e, c in terms.items()})


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]),
       tau=st.sampled_from([0.0, 0.25, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_apply_symbol_is_the_dense_operator(data, d, tau, seed):
    axis = GRIDS[d]
    a = data.draw(polys(d))
    rng = np.random.default_rng(seed)
    u = FunctionGrid(axis, rng.standard_normal(axis.shape) + 1j * rng.standard_normal(axis.shape))
    dense = operator_matrix(kernel_from_symbol(a, tau, axis)).entries @ u.values.ravel()
    got = apply_symbol(a, tau, axis, u.values).ravel()
    xi_n = math.pi * axis.n / (2.0 * axis.L)
    scale = sum(abs(c) * axis.L ** sum(xe) * xi_n ** sum(ke) for (xe, ke), c in a.terms.items())
    assert np.max(np.abs(got - dense)) <= TOL * scale * np.max(np.abs(u.values))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]),
       tau=st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.3]), k=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_apply_symbol_is_bitwise_per_function(data, d, tau, k, seed):
    axis = GRIDS[d]
    a = data.draw(polys(d))
    rng = np.random.default_rng(seed)
    shape = (k, *axis.shape)
    U = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stacked = apply_symbol(a, tau, axis, U)
    assert stacked.shape == U.shape
    for u, got in zip(U, stacked):
        want = apply_symbol(a, tau, axis, u[None])[0]
        assert np.array_equal(got, want)
        assert np.array_equal(apply_symbol(a, tau, axis, u), want)


TRANSPOSE_TOL = 1e-12
# the box of the ordering checks, where the corpus decays to ~1e-22 at the edge
CORPUS = _decaying_corpus(AxisGrid(128, 10.0, 1))


@settings(max_examples=60, deadline=None)
@given(terms=st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients,
                             min_size=1, max_size=6),
       tau=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
def test_transpose_terms_is_the_operator_transpose(terms, tau):
    a = PolySymbol(1, {((j,), (k,)): c for (j, k), c in terms.items()})
    b = transpose_terms(a, tau)
    Au = [apply_symbol(a, tau, u.axis, u.values) for u in CORPUS]
    Bv = [apply_symbol(b, tau, v.axis, v.values) for v in CORPUS]
    for (u, au), (v, bv) in itertools.product(zip(CORPUS, Au), zip(CORPUS, Bv)):
        err = abs(np.sum(au * v.values) - np.sum(u.values * bv))
        assert err <= TRANSPOSE_TOL * np.linalg.norm(au) * np.linalg.norm(v.values)


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([2, 4, 8, 16]), d=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**32 - 1))
def test_class_index_is_a_permutation_and_round_trips(n, d, seed):
    rng = np.random.default_rng(seed)
    whole = rng.integers(-3 * n, 3 * n, size=n)
    shape = (n,) * (2 * d)
    table = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    steps = np.array(table.strides) // table.itemsize
    idx = _class_index(n, d, whole, steps)
    N = n**d
    assert idx.shape == (N, N)
    assert np.array_equal(np.sort(idx, axis=None), np.arange(N * N))
    # entry [t, s] reads row (t + whole[c]) mod n of class c = (t - s) mod n
    J = np.indices((n,) * d).reshape(d, N)
    want = sum(((J[i][:, None] + whole[(J[i][:, None] - J[i][None, :]) % n]) % n) * steps[i]
               + ((J[i][:, None] - J[i][None, :]) % n) * steps[d + i] for i in range(d))
    assert np.array_equal(idx, want)
    back = np.empty_like(table)
    np.put(back, idx, np.take(table, idx))
    assert np.array_equal(back, table)
