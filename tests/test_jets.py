"""Jet arithmetic: frozen values, ring laws, and the fd cross-check."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kropina.expr import eval_expr, parse_expr
from fd import fd_partial
from kropina import jets
from kropina.jets import (
    MAX_ORDER,
    Jet,
    JetDomainError,
    JetOrderError,
    _triples,
    graded_solve,
    jet_space,
)
from oracles import (
    deriv,
    horner_compose,
    jet_det,
    jet_inverse,
    jet_solve,
    jet_solve_reference,
    mul_table,
    triples_by_row,
    truncate,
)


def test_square_partial():
    s = jet_space(1, 2)
    x = s.variable(0, 3.0)
    f = x * x
    assert f.value == 9.0
    assert f.partial((1,)) == 6.0
    assert f.partial((2,)) == 2.0


def test_product_mixed_partial():
    s = jet_space(2, 2)
    x, y = s.seed([2.0, 5.0])
    f = x * y
    assert f.partial((1, 1)) == 1.0
    assert f.partial((1, 0)) == 5.0
    assert f.partial((0, 1)) == 2.0


def test_order_overflow_raises():
    s = jet_space(1, 2)
    x = s.variable(0, 1.0)
    with pytest.raises(JetOrderError):
        (x * x).partial((3,))


def test_reciprocal_series():
    # 1/(1+x) has Taylor coefficients (-1)^k at x=0
    s = jet_space(1, 4)
    x = s.variable(0, 0.0)
    f = 1.0 / (1.0 + x)
    for k in range(5):
        assert abs(f.coef[k] - (-1.0) ** k) < 1e-14


def test_exp_derivatives():
    s = jet_space(1, 4)
    x = s.variable(0, 0.7)
    f = x.exp()
    e = math.exp(0.7)
    for k in range(5):
        assert abs(f.partial((k,)) - e) < 1e-12 * e * math.factorial(k)


def test_log_sqrt_domain_errors():
    s = jet_space(1, 2)
    x = s.variable(0, -1.0)
    with pytest.raises(JetDomainError):
        x.log()
    with pytest.raises(JetDomainError):
        x.sqrt()
    z = s.variable(0, 0.0)
    with pytest.raises(JetDomainError):
        z.reciprocal()


def test_exp_overflow_and_trig_of_inf_are_domain_errors():
    """An exp whose value overflows the float range, and a sin or cos of
    an infinite value, raise JetDomainError, for one jet or a batch,
    where math raises a bare OverflowError or ValueError, and an
    expression names the call that raised; exp short of the range and
    sin of a NaN go on as math gives them."""
    from kropina.expr import ExprDomainError

    s = jet_space(2, 2)
    for u0 in (800.0, np.array([0.0, 800.0])):
        with pytest.raises(JetDomainError,
                           match="^exp of base value 800.0 overflows$"):
            s.variable(0, u0).exp()
    for u0 in (math.inf, np.array([0.0, -math.inf])):
        x = s.variable(1, u0)
        for fn in (x.sin, x.cos):
            with pytest.raises(JetDomainError, match="infinite base value"):
                fn()
    assert s.variable(0, 709.0).exp().value == math.exp(709.0)
    assert math.isnan(s.variable(0, math.nan).sin().value)
    for text, call in (("exp(1000*x1)", "exp(1000.0 * x1)"),
                       ("1 + cos(x2)", "cos(x2)")):
        with pytest.raises(ExprDomainError) as info:
            eval_expr(parse_expr(text, 2), s.seed([0.85, math.inf]))
        assert str(info.value).endswith(f" in '{call}'")


def test_sin_cos_consistency():
    s = jet_space(1, 4)
    x = s.variable(0, 0.4)
    lhs = x.sin() * x.sin() + x.cos() * x.cos()
    assert abs(lhs.value - 1.0) < 1e-14
    for k in range(1, 5):
        assert abs(lhs.partial((k,))) < 1e-12


def test_integer_power_matches_repeated_product():
    s = jet_space(2, 3)
    x, y = s.seed([1.3, -0.4])
    f = x + 2.0 * y
    assert np.allclose((f**3).coef, (f * f * f).coef, rtol=0, atol=1e-13)


def test_negative_power():
    s = jet_space(1, 3)
    x = s.variable(0, 2.0)
    f = x**-2
    g = 1.0 / (x * x)
    assert np.allclose(f.coef, g.coef, rtol=1e-13)


def test_zero_base_power_ok_nonnegative():
    s = jet_space(1, 3)
    y = s.variable(0, 0.0)
    f = y**3
    assert f.value == 0.0
    assert f.partial((3,)) == 6.0


def test_deriv_view_matches_partials():
    s = jet_space(2, 3)
    x, y = s.seed([0.5, 1.5])
    f = x * x * y + y * y * x
    fx = deriv(f, 0)
    assert fx.value == f.partial((1, 0))
    assert fx.partial((1, 1)) == f.partial((2, 1))


def test_truncate_keeps_prefix():
    s = jet_space(2, 3)
    x, y = s.seed([1.0, 2.0])
    f = x * y * y
    g = truncate(f, 1)
    assert g.value == f.value
    assert g.partial((0, 1)) == f.partial((0, 1))


@st.composite
def int_jets(draw, nvars=2, order=3):
    s = jet_space(nvars, order)
    coef = draw(
        st.lists(
            st.integers(min_value=-8, max_value=8),
            min_size=s.ncoef,
            max_size=s.ncoef,
        )
    )
    return Jet(s, np.array(coef, dtype=float))


@settings(max_examples=60, deadline=None)
@given(int_jets(), int_jets(), int_jets())
def test_ring_laws_exact_on_integers(a, b, c):
    # small integer coefficients keep float arithmetic exact, so
    # associativity and distributivity must hold bitwise
    assert np.array_equal(((a * b) * c).coef, (a * (b * c)).coef)
    assert np.array_equal((a * (b + c)).coef, (a * b + a * c).coef)


@settings(max_examples=40, deadline=None)
@given(int_jets(), int_jets())
def test_commutativity_exact(a, b):
    assert np.array_equal((a * b).coef, (b * a).coef)


@pytest.mark.parametrize("nvars, order", [(6, 4), (8, 4), (6, 2), (6, 1)])
def test_seed_product_is_the_bincount_product_bit_for_bit(nvars, order):
    """A product with a coordinate seed is a shift; it must give the
    bits of the bincount product of the same coefficients, signed
    zeros included."""
    s = jet_space(nvars, order)
    rng = np.random.default_rng(10 * nvars + order)
    for trial in range(24):
        coef = rng.normal(size=s.ncoef) * 10.0 ** rng.integers(-3, 4, s.ncoef)
        coef[rng.random(s.ncoef) < 0.2] = 0.0
        coef[rng.random(s.ncoef) < 0.1] = -0.0
        a = Jet(s, coef)
        v = trial % nvars
        seed = s.variable(v, [rng.normal(), 0.0, -0.0, 1.0][trial % 4])
        other = s.variable((v + 1) % nvars, rng.normal())
        assert seed.var == v
        plain = Jet(s, seed.coef.copy())
        plain_other = Jet(s, other.coef.copy())
        for got, want in ((a * seed, a * plain), (seed * a, plain * a),
                          (other * seed, plain_other * plain)):
            assert type(got) is Jet
            assert got.coef.tobytes() == want.coef.tobytes()


@pytest.mark.parametrize("nvars, order", [
    (1, 0), (1, 4), (2, 3), (3, 1), (4, 4), (6, 2), (6, 4), (8, 4),
])
def test_mul_table_matches_the_double_loop(nvars, order):
    """The numpy-built triple table is the double loop's, array for
    array: same pairs, same order within each k, same dtype."""
    from kropina.jets import JetSpace

    sp = JetSpace(nvars, order)
    for got, want in zip((sp._mi, sp._mj, sp._mk), mul_table(sp)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _special_coefficients(rng, shape):
    """Normal coefficients over seven decades, with 0.0, -0.0, +-inf and
    NaN entries.  The NaN is the one the machine's arithmetic makes
    (inf * 0), so every NaN in play has the same bits: numpy's SIMD
    loops return the first operand's NaN in some lanes and the second's
    in others, so the sign of a NaN met by a NaN of the other sign is
    not a function of the values, in either route."""
    coef = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, shape)
    u = rng.random(shape)
    coef[u < 0.1] = 0.0
    coef[(u >= 0.1) & (u < 0.15)] = -0.0
    coef[(u >= 0.15) & (u < 0.17)] = np.inf
    coef[(u >= 0.17) & (u < 0.18)] = -np.inf
    coef[(u >= 0.18) & (u < 0.19)] = np.array(np.inf) * 0.0
    return coef


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batched_product_equals_the_row_bincount_bit_for_bit(monkeypatch):
    """The rank-stepped batched product gives each row the bits of its
    own bincount, at every signature from 1 to 12 variables and order 0
    to 4 and every degree prefix of the triple table: one jet, a batch
    of one, a batch of two axes, and a row count that crosses a block
    boundary, at the module's budget and at a budget of three rows a
    block (blocks of three and a last block of one)."""
    rng = np.random.default_rng(30)
    for nvars in range(1, 13):
        for order in range(MAX_ORDER + 1):
            sp = jet_space(nvars, order)
            for t in sp._triple_ends:
                cases = [(None, ()), (None, (1,)), (None, (2, 3)),
                         (3 * 8 * t, (7,))]
                step = jets._PRODUCT_BYTES // (8 * t)
                if step < 64:
                    cases.append((None, (step + 1,)))
                for budget, shape in cases:
                    if budget:
                        monkeypatch.setattr(jets, "_PRODUCT_BYTES", budget)
                    a, b = (_special_coefficients(rng, shape + (sp.ncoef,))
                            for _ in range(2))
                    got = _triples(sp, a, b, t)
                    want = triples_by_row(sp, a, b, t)
                    monkeypatch.undo()
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (
                        nvars, order, t, shape, budget)


def test_batched_product_heap_peak_is_no_higher_than_the_row_loop():
    """A 350-row product at (8, 4) goes in blocks of the module's
    budget, so its heap peak stays under the row loop's (2.8 MB); the
    products of all rows gathered at once would take 28 MB."""
    sp = jet_space(8, 4)
    a, b = np.random.default_rng(8).normal(size=(2, 350, sp.ncoef))
    sp.rank_plan(sp._triple_ends[-1])   # cached on the space

    def peak(product):
        tracemalloc.start()
        try:
            product(sp, a, b)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(_triples) <= peak(triples_by_row)


def test_jet_solve_and_det_against_numpy():
    rng = np.random.default_rng(11)
    s = jet_space(2, 2)
    for _ in range(5):
        base = rng.normal(size=(3, 3)) + 4.0 * np.eye(3)
        A = [[s.constant(base[i, j]) for j in range(3)] for i in range(3)]
        rhs_v = rng.normal(size=3)
        rhs = [s.constant(v) for v in rhs_v]
        sol, _ = jet_solve(A, rhs)
        expect = np.linalg.solve(base, rhs_v)
        assert np.allclose([u.value for u in sol], expect, rtol=1e-12)
        assert abs(jet_det(A).value - np.linalg.det(base)) < 1e-10
        inv = jet_inverse(A)
        got = np.array([[inv[i][j].value for j in range(3)] for i in range(3)])
        assert np.allclose(got, np.linalg.inv(base), rtol=1e-11, atol=1e-12)


def test_jet_solve_reuses_pivot_reciprocals_exactly():
    """jet_solve multiplies by the pivot reciprocals of its elimination;
    a fresh reciprocal of each final pivot gives the same bits."""
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        s = jet_space(n, 2)
        for _ in range(4):
            # diagonally dominant, then rows permuted so pivoting swaps
            base = rng.normal(size=(n, n)) + 4.0 * np.eye(n)
            base = base[rng.permutation(n)]
            A = []
            for i in range(n):
                row = []
                for j in range(n):
                    coef = 0.1 * rng.normal(size=s.ncoef)
                    coef[0] = base[i, j]
                    row.append(Jet(s, coef))
                A.append(row)
            rhs = [Jet(s, rng.normal(size=s.ncoef)) for _ in range(n)]
            got, _ = jet_solve(A, rhs)
            want = jet_solve_reference(A, rhs)
            for u, v in zip(got, want):
                assert u.coef.tobytes() == v.coef.tobytes()


def _jet_matrix(rng, s, base):
    """Jets with the given base values and small random higher
    coefficients."""
    n = len(base)
    A = []
    for i in range(n):
        row = []
        for j in range(n):
            coef = 0.1 * rng.normal(size=s.ncoef)
            coef[0] = base[i, j]
            row.append(Jet(s, coef))
        A.append(row)
    return A


@pytest.mark.parametrize("n", range(1, 7))
def test_jet_solve_det_matches_numpy_and_leibniz(n):
    """det from jet_solve is the signed product of its pivots: against
    numpy on the value and the first partials (Jacobi's formula), and
    against the Leibniz sum on every coefficient.  The rows of a
    strongly diagonally dominant matrix are permuted, so pivoting undoes
    the permutation with swaps of the same parity; an odd permutation
    or a negated row gives a negative determinant."""
    rng = np.random.default_rng(40 + n)
    s = jet_space(2, 3)
    cycle = list(range(1, n)) + [0]
    swap_ends = [n - 1] + list(range(1, n - 1)) + [0] if n > 1 else [0]
    signs = []
    for perm in (list(range(n)), swap_ends, cycle, list(rng.permutation(n))):
        for flip in (1.0, -1.0):
            base = rng.normal(size=(n, n)) * 0.3 + 5.0 * np.eye(n)
            base[0] *= flip
            base = base[perm]
            A = _jet_matrix(rng, s, base)
            rhs = [Jet(s, rng.normal(size=s.ncoef)) for _ in range(n)]
            _, det = jet_solve(A, rhs)
            none, det_only = jet_solve(A, [])
            assert none == []
            assert det_only.coef.tobytes() == det.coef.tobytes()
            want = np.linalg.det(base)
            assert abs(det.value - want) <= 1e-12 * abs(want)
            parity = np.linalg.det(np.eye(n)[perm])
            assert np.sign(det.value) == flip * parity
            inv = np.linalg.inv(base)
            for v in range(s.nvars):
                dA = np.array([[A[i][j].coef[1 + v] for j in range(n)]
                               for i in range(n)])
                jacobi = want * np.trace(inv @ dA)
                assert abs(det.coef[1 + v] - jacobi) <= 1e-11 * abs(want)
            leibniz = jet_det(A)
            scale = np.max(np.abs(leibniz.coef))
            assert np.allclose(det.coef, leibniz.coef, rtol=0,
                               atol=1e-12 * scale)
            signs.append(np.sign(det.value))
    assert -1.0 in signs and 1.0 in signs


def test_jet_solve_zero_pivot_raises():
    s = jet_space(2, 2)
    rng = np.random.default_rng(5)
    base = np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    A = _jet_matrix(rng, s, base)
    rhs = [s.constant(1.0) for _ in range(3)]
    for b in (rhs, []):
        with pytest.raises(JetDomainError, match="zero pivot"):
            jet_solve(A, b)


def _coefs(jets):
    return np.array([[e.coef for e in row] for row in jets])


@pytest.mark.parametrize("nvars", [2, 6])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_graded_solve_matches_gauss_jordan_and_leibniz(nvars, order):
    """graded_solve's series against jet_solve's Gauss-Jordan
    elimination and the Leibniz determinant, on diagonally dominant jet
    matrices with rows permuted so elimination pivots: every coefficient
    of the solution and of log det A within 1e-12 of the coefficient
    scale (measured: at most 9e-16), and the first partials of log det A
    are Jacobi's tr(A0^-1 dA)."""
    rng = np.random.default_rng(100 * nvars + order)
    s = jet_space(nvars, order)
    for n in range(1, 7):
        base = rng.normal(size=(n, n)) * 0.3 + 5.0 * np.eye(n)
        perm = list(rng.permutation(n))
        base = base[perm]
        base[0] *= np.linalg.det(np.eye(n)[perm])  # so that det A0 > 0
        A = _jet_matrix(rng, s, base)
        rhs = [Jet(s, rng.normal(size=s.ncoef)) for _ in range(n)]
        X, log_det = graded_solve(s, _coefs(A), _coefs([rhs])[0])
        none, log_det_only = graded_solve(s, _coefs(A))
        assert none is None
        assert log_det_only.tobytes() == log_det.tobytes()
        want, det = jet_solve(A, rhs)
        for got, u in zip(X, want):
            scale = max(1.0, np.max(np.abs(u.coef)))
            assert np.allclose(got, u.coef, rtol=0, atol=1e-12 * scale)
        assert np.allclose(log_det, det.log().coef, rtol=0, atol=1e-12)
        assert np.allclose(log_det, jet_det(A).log().coef, rtol=0,
                           atol=1e-12)
        inv = np.linalg.inv(base)
        for v in range(nvars):
            dA = _coefs(A)[:, :, 1 + v]
            assert abs(log_det[1 + v] - np.trace(inv @ dA)) <= 1e-12


def test_graded_solve_refuses_a_base_value_without_positive_det():
    """A singular base value, a negative determinant and a NaN entry all
    raise, with and without a right-hand side."""
    s = jet_space(2, 2)
    rng = np.random.default_rng(6)
    singular = np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    negative = np.diag([1.0, -2.0, 3.0])
    nan = np.diag([1.0, np.nan, 3.0])
    for base in (singular, negative, nan):
        A = _coefs(_jet_matrix(rng, s, base))
        for rhs in (rng.normal(size=(3, s.ncoef)), None):
            with (np.errstate(invalid="ignore"),
                  pytest.raises(JetDomainError,
                                match="no positive finite determinant")):
                graded_solve(s, A, rhs)


def _random_tame_expr(rng, dim):
    """Polynomial/trig expression with bounded coefficients."""
    terms = []
    for _ in range(rng.integers(1, 4)):
        c = round(float(rng.uniform(-2, 2)), 3)
        v1 = int(rng.integers(1, dim + 1))
        v2 = int(rng.integers(1, dim + 1))
        form = rng.integers(0, 4)
        if form == 0:
            terms.append(f"{c}*x{v1}*x{v2}")
        elif form == 1:
            terms.append(f"{c}*sin(x{v1})")
        elif form == 2:
            terms.append(f"{c}*cos(x{v1}*x{v2})")
        else:
            terms.append(f"{c}*x{v1}^2")
    return " + ".join(terms)


def test_jet_partials_match_fd_on_random_expressions():
    """200 random polynomial/trig expressions, all multi-indices of
    degree <= 3, relative agreement 1e-6 between jets and fd."""
    rng = np.random.default_rng(2024)
    dim = 2
    space = jet_space(dim, 3)
    idxs = [idx for idx in space.indices if 1 <= sum(idx) <= 3]
    for _ in range(200):
        text = _random_tame_expr(rng, dim)
        ast = parse_expr(text, dim)
        point = [float(v) for v in rng.uniform(-1, 1, size=dim)]
        jet_env = space.seed(point)
        jv = eval_expr(ast, jet_env)

        def fn(p, ast=ast):
            return eval_expr(ast, list(p))

        for idx in idxs:
            want = fd_partial(fn, point, idx)
            got = jv.partial(idx)
            assert abs(got - want) <= 1e-6 * max(1.0, abs(got), abs(want)), (
                text,
                idx,
                got,
                want,
            )


@pytest.mark.parametrize("fn", ["reciprocal", "log", "exp", "sqrt", "sin",
                                "cos"])
def test_truncated_series_equal_full_horner_bit_for_bit(fn, monkeypatch):
    """Jet._compose drops the output degrees that later Horner steps
    truncate; each analytic function gives the bits of Horner over full
    products at every signature from 1 to 12 variables and order 0 to
    4, on jets with some zero coefficients."""
    rng = np.random.default_rng(15)
    jets = []
    for nvars in range(1, 13):
        for order in range(MAX_ORDER + 1):
            sp = jet_space(nvars, order)
            coef = rng.normal(size=sp.ncoef)
            coef[rng.random(sp.ncoef) < 0.3] = 0.0
            coef[0] = 0.5 + rng.random()
            jets.append(Jet(sp, coef))
    got = [getattr(j, fn)().coef.tobytes() for j in jets]
    monkeypatch.setattr(Jet, "_compose", horner_compose)
    assert got == [getattr(j, fn)().coef.tobytes() for j in jets]


def _alone(batch, op):
    """op of each jet of a batch taken alone, stacked into the batch's
    shape."""
    sp, lead = batch.space, batch.coef.shape[:-1]
    rows = [op(Jet(sp, c.copy())).coef
            for c in batch.coef.reshape(-1, sp.ncoef)]
    return np.array(rows).reshape(lead + (sp.ncoef,))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batched_powers_and_series_equal_each_jet_alone():
    """A batch of jets, of one row, of three or on two axes, gives each
    row the bits of its jet alone, in the batch's shape, under ** p for
    p = -3..4 (which once raised IndexError on a batch: it started from
    a single constant jet), reciprocal, log, exp, sqrt, sin and cos, at
    every order 0 to 4 over 1 to 6 variables; the coefficients past the
    value include signed zeros, infinities and NaN, the NaN made as
    inf * 0."""
    rng = np.random.default_rng(31)
    ops = [lambda j, p=p: j ** p for p in range(-3, 5)] + [
        lambda j, fn=fn: getattr(j, fn)()
        for fn in ("reciprocal", "log", "exp", "sqrt", "sin", "cos")]
    cases = [(3, 2, (4,))] + [(nvars, order, shape)
                              for nvars in range(1, 7)
                              for order in range(MAX_ORDER + 1)
                              for shape in ((1,), (3,), (2, 2))]
    for nvars, order, shape in cases:
        sp = jet_space(nvars, order)
        coef = _special_coefficients(rng, shape + (sp.ncoef,))
        coef[..., 0] = 0.25 + rng.random(shape)
        batch = Jet(sp, coef)
        for k, op in enumerate(ops):
            got = op(batch).coef
            assert got.shape == coef.shape, (nvars, order, shape, k)
            assert got.tobytes() == _alone(batch, op).tobytes(), (
                nvars, order, shape, k)


# the (nvars, order) signatures of the package's jets: the n chart
# variables of a space of dimension 2..6 and the 2n variables (x, y) of
# the generic pipeline, each to order 2 and to order 4
PACKAGE_SIGNATURES = sorted({(m, order) for n in range(2, 7)
                             for m in (n, 2 * n) for order in (2, 4)})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("nvars, order", PACKAGE_SIGNATURES)
def test_a_batch_of_one_has_the_bits_of_its_jet(nvars, order):
    """A (1, ncoef) batch, as a run of one chart point makes, gives the
    bits of the same jet unbatched: products over the whole triple
    table and over each degree prefix of it, products with a seed
    (either side, and of two seeds), quotients, ** p for p = -3..4 and
    each series (log, sqrt, exp, sin, cos).  The coefficients past the
    value include signed zeros, infinities and NaN, the NaN made as
    inf * 0; every result is compared by its bytes."""
    rng = np.random.default_rng(33 + 16 * nvars + order)
    sp = jet_space(nvars, order)
    a, b = _special_coefficients(rng, (2, sp.ncoef))
    a[0], b[0] = 0.25 + rng.random(2)
    for t in sp._triple_ends:
        got = _triples(sp, a[None], b[None], t)
        assert got.shape == (1, sp.ncoef)
        assert got[0].tobytes() == _triples(sp, a, b, t).tobytes(), t
    x = rng.normal(size=2)
    ops = [lambda u, v, s, w: u * v, lambda u, v, s, w: u / v,
           lambda u, v, s, w: u * s, lambda u, v, s, w: s * u,
           lambda u, v, s, w: s * w]
    ops += [lambda u, v, s, w, p=p: u ** p for p in range(-3, 5)]
    ops += [lambda u, v, s, w, fn=fn: getattr(u, fn)()
            for fn in ("log", "sqrt", "exp", "sin", "cos")]
    for k, op in enumerate(ops):
        want = op(Jet(sp, a.copy()), Jet(sp, b.copy()),
                  sp.variable(0, x[0]), sp.variable(nvars - 1, x[1]))
        got = op(Jet(sp, a[None].copy()), Jet(sp, b[None].copy()),
                 sp.variable(0, x[:1]), sp.variable(nvars - 1, x[1:]))
        assert got.coef.shape == (1, sp.ncoef), k
        assert got.coef[0].tobytes() == want.coef.tobytes(), k


def test_seeds_of_a_block_are_each_points_seeds():
    """JetSpace.seed over a (P, n) block gives batches whose rows are
    the seeds of each point, and a product with such a seed, of a batch
    or of one jet, gives each row the bits of the product with its
    point's seed alone."""
    rng = np.random.default_rng(32)
    for nvars, order in ((1, 2), (3, 2), (4, 4), (6, 1)):
        sp = jet_space(nvars, order)
        block = rng.normal(size=(5, nvars))
        seeds = sp.seed(block)
        batch = Jet(sp, rng.normal(size=(5, sp.ncoef)))
        one = Jet(sp, rng.normal(size=sp.ncoef))
        for v, seed in enumerate(seeds):
            assert seed.var == v and seed.coef.shape == (5, sp.ncoef)
            for k, x in enumerate(block):
                alone = sp.seed(x)[v]
                assert seed.coef[k].tobytes() == alone.coef.tobytes()
                for got, want in (
                        (batch * seed, Jet(sp, batch.coef[k]) * alone),
                        (seed * one, alone * one),
                        (seed * seeds[0], alone * sp.seed(x)[0])):
                    assert got.coef[k].tobytes() == want.coef.tobytes()
