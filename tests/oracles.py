"""Reference routes that only the tests use.

Each function recomputes a quantity the package computes another way, so
a test can hold the package's route against it:

- spray_generic: the order-2 spray by a dense linear solve, against
  curvature_samples' jet-solved spray; geodesic_flow integrates it;
- curvature_sample_oracle: the whole curvature bundle at one (x, y)
  computed from scratch with jets, x-only work included, with second
  partials read one Jet.partial at a time and the densities taken as
  callables over the 2n variables.  With eliminate_graded (the
  package's graded_solve on the stacked jets) curvature_samples must
  equal it bit for bit; with
  eliminate_gauss_jordan it is the Gauss-Jordan route the package's
  sample must agree with;
- staged_sample, DirectionInvariants, closed_per_direction and
  ric_ac_per_direction: the per-direction routes the package ran
  before it batched a chart point's directions, one direction and one
  float at a time, against whose bits every row of the batched
  curvature samples (sample_row reads one), drift invariants and
  closed forms is held; point_samples is one chart point's samples
  through the package's run entry, its error raised;
- volume_density and bh_volume_density: a space's weighted and
  unit-ball densities as callables x -> sigma(x) over floats and jets,
  against the log densities a ChartPoint takes from its one jet
  evaluation;
- bh_density_mc: the unit-ball density Vol(B^n) / Vol{F < 1} by Monte
  Carlo over a box (ellipsoid_box, the Kropina unit ball's own, or
  probe_box, one found by probing F), with its standard error, against
  generic.bh_density's sphere quadrature;
- jet_solve: Gauss-Jordan elimination over the jet ring, returning the
  determinant as the signed pivot product, against graded_solve;
- jet_det: a jet matrix determinant by the n!-term Leibniz sum;
- mul_table: a jet space's multiplication triples by a double loop
  over its multi-indices, against the table JetSpace builds in numpy;
- triples_by_row: a batch of jet products as one bincount per row,
  against the rank-stepped batched product;
- horner_compose: a power series of a jet by Horner over full jet
  products, against Jet._compose's degree-truncated steps;
- jet_inverse: a jet matrix inverse through jet_solve;
- jet_solve_reference: jet_solve dividing by a fresh reciprocal of
  each final pivot, against jet_solve's reuse of the pivot
  reciprocals;
- deriv, gradient and truncate: a jet's partial derivative along one
  variable, its first partials and its lower-order part, which the
  jet routes above are built from;
- rs_from_RS: drift contractions from navigation data, against the
  drift bundle of the (alpha, beta) view;
- LoopMetric: a metric written as a loop over one direction at a
  time, on floats, numpy columns or jets (its at(x) gives a LoopStage),
  whose stage(x) is the package's XStage for the generic pipeline, its
  jets one direction at a time and with no denominator
  (jets_by_direction); f_jets reads F's jets off any stage, dividing a
  quotient stage's numerator by its denominator;
- loop_metric: finsler_stage's (alpha, beta) view as a LoopMetric, the
  forms a loop of Jet, float or column operations (linear_form and
  quadratic_form), against the package's stacked stage;
- nav_metric: F from the navigation view (h, W), the twin of the
  package's (alpha, beta) finsler_stage; validate_views checks the
  linking identities of the two views and that both give the same F;
- ric_ac_via_projective: the weighted Ricci curvature reassembled
  around the projective Ricci curvature pric.

Below them sit the helpers the tests build their cases with, each a
thin route through the package's own objects: flat_wind (a flat n-space
with a constant unit wind, as a scenario document), chart_point, ab_fields
and nav_point (one chart point's bundles, or the navigation point of
any (h, W)), field_point and log_density (a FieldPoint of component
expressions, and ln sigma of a density callable as the x-jet
curvature_samples takes); with_gauge and
with_weight (a space re-expressed in another gauge, or carrying another
weight); metric_from_strings, christoffel, lowered_riemann, riemann_h,
ricci_h, hess_h, w_invariants (with WInvariants and
w_invariants_from_point, the field invariants computed from scratch, as
a frozen record, against FieldPoint's cached ones) and second_cov_w
(over MetricPoint and FieldPoint); weight_constants, einstein_residual and
weighted_ricci_tensor (the Einstein side); fit_residual (the rms
residual of a (theta, sigma) fit, which fit_theta_sigma does not report) and
residuals_per_row (the checkers' condition judging one residual at a
time, against the blocks einstein._Residuals judges at once); and
nav_riemann_isotropic, the navigation closed form of the Riemann
curvature, held against the generic pipeline.

Then come the expression routes: eval_tree_oracle evaluates a tree set
by a recursive walk over its DAG, against the tape eval_expr compiles
and runs, value for value and error for error; parse_expr_oracle
tokenizes a whole text one character at a time and parses it by a
recursive descent of its own, and print_node_oracle prints every
occurrence of a shared node anew.  parse_expr and print_node must match
them byte for byte, error for error.

Last come the report routes: report_json writes a report as json.dumps
does over the tree _strict makes of it (each non-finite float as a
string), against ReportDocument.to_json's one-walk encoder;
pair_rows_per_row builds a chart point's verify rows one direction at a
time with listed and rel_dev, against workbench._pair_rows' whole
blocks.

And the scenario schema route: schema_fault_oracle judges a document
with jsonschema's Draft202012Validator and picks its fault with
best_match, against scenarios._schema_fault; schema_pointer maps that
fault to a JSON pointer, naming a missing property itself.
"""
import itertools
import json
import math
import re
from dataclasses import dataclass, fields as record_fields, replace
from typing import Callable, NamedTuple

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from kropina.einstein import (
    ChartPoint,
    EinsteinAnsatz,
    WeightConfig,
    _weighted_ricci,
    pric_constants,
    ric_ac,
)
from kropina.forms import (
    AbFields,
    AbInvariants,
    GaugeError,
    HypothesisNotMetError,
    KropinaSpace,
    NavPoint,
    _coerce_scalar,
    _coerce_vector,
    _nav_frame,
    _nav_hypothesis,
    _require_unit_wind,
    finsler_stage,
    s_closed,
    s_dot_closed,
)
from kropina.expr import (
    FUNCTIONS,
    _MAX_EXPONENT,
    Add,
    Call,
    Const,
    Div,
    ExprAst,
    ExprDomainError,
    ExprIndexError,
    ExprNameError,
    ExprSyntaxError,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    eval_expr,
    parse_expr,
)
from kropina.generic import (
    ConicDomainError,
    CurvatureSample,
    XStage,
    _check_invertible,
    curvature_samples,
    unit_ball_volume,
)
from kropina.jets import (
    Jet,
    JetDomainError,
    JetOrderError,
    graded_solve,
    jet_space,
)
from kropina.riemann import (
    FieldPoint,
    MetricPoint,
    RiemannianMetric,
    SingularMetricError,
    evaluate,
    partials,
)
from kropina.reports import ReportDocument


class LoopStage(NamedTuple):
    """A LoopMetric at one chart point x: f(y) is F(x, y) and domain(y)
    whether y is in F's domain there, for one direction y of floats or
    jets, or numpy columns of many."""

    f: Callable
    domain: Callable


@dataclass(frozen=True)
class LoopMetric:
    """A Finsler metric written as a loop over one direction at a time:
    at(x) gives its LoopStage at x, floats or jets, and F(x, y) is
    at(x).f(y).  The oracles seed it with jets; stage(x) is the
    package's XStage at a float chart point, f and domain one loop over
    the columns of a block, jets one direction at a time
    (jets_by_direction)."""

    dim: int
    at: Callable
    name: str

    def __call__(self, x, y):
        return self.at(x).f(y)

    def stage(self, x) -> XStage:
        x = np.asarray(x, dtype=float)
        loop = self.at(list(x))

        def columns(ys):
            return list(np.asarray(ys, dtype=float).T)

        return XStage(x, lambda ys: loop.f(columns(ys)),
                      lambda ys: loop.domain(columns(ys)),
                      jets_by_direction(self.at, x), self.name)


def jets_by_direction(at, x):
    """The jets of an XStage at the float chart point x from a
    LoopMetric's at: at(x).f on the order-4 seeds of x and of one
    direction of the block at a time, F's own jets with no
    denominator."""

    def jets(ys):
        n = len(x)
        space = jet_space(2 * n, 4)
        f_at = at([space.variable(i, v) for i, v in enumerate(x)]).f
        out = np.empty((len(ys), space.ncoef))
        for row, y in zip(out, ys):
            f = f_at([space.variable(n + k, v) for k, v in enumerate(y)])
            row[:] = f.coef if isinstance(f, Jet) else space.constant(
                float(f)).coef
        return out, None

    return jets


def f_jets(stage: XStage, ys) -> np.ndarray:
    """F's order-4 jets at the directions ys from the stage's jets: its
    num / den, as curvature_samples divides them, or num alone."""
    num, den = stage.jets(ys)
    if den is None:
        return num
    space = jet_space(2 * len(stage.x), 4)
    return (Jet(space, num) / Jet(space, den)).coef


def _check_domain(F: LoopMetric, x, y):
    if not bool(F.at(list(x)).domain(list(y))):
        raise ConicDomainError(
            f"(x, y) outside the conic domain of metric {F.name!r}"
        )


def _unit2(n2: int, a: int, b=None) -> tuple:
    idx = [0] * n2
    idx[a] += 1
    if b is not None:
        idx[b] += 1
    return tuple(idx)


def gradient(jet: Jet) -> np.ndarray:
    """All first partials of a jet as a vector."""
    if jet.space.order < 1:
        raise JetOrderError("order-0 jet has no first derivatives")
    return jet.coef[1:1 + jet.space.nvars].copy()


def deriv(jet: Jet, v: int) -> Jet:
    """The partial derivative along variable v, as a jet one order lower."""
    space = jet.space
    if space.order == 0:
        raise JetOrderError("cannot differentiate an order-0 jet")
    lower = jet_space(space.nvars, space.order - 1)
    return Jet(lower, jet.coef[space._deriv_src[v]] * space._deriv_scale[v])


def truncate(jet: Jet, order: int) -> Jet:
    """The jet with its coefficients above the given order dropped."""
    if order > jet.space.order:
        raise JetOrderError("cannot truncate upward")
    if order == jet.space.order:
        return jet
    lower = jet_space(jet.space.nvars, order)
    return Jet(lower, jet.coef[:lower.ncoef].copy())


def f2_jet(F: LoopMetric, x, y, order: int) -> Jet:
    """F^2 as a jet in the 2n variables (x, y), seeded at the base point."""
    n = F.dim
    space = jet_space(2 * n, order)
    seeds = space.seed(list(x) + list(y))
    f = F(seeds[:n], seeds[n:])
    if not isinstance(f, Jet):
        f = space.constant(float(f))
    return f * f


def metric_jets(f2: Jet, n: int):
    """g_ij = (1/2) [F^2]_{y^i y^j} as a nested list of jets two orders
    below f2, each a deriv of a deriv."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j < i:
                row.append(rows[j][i])
            else:
                row.append(deriv(deriv(f2, n + i), n + j) * 0.5)
        rows.append(row)
    return rows


def eliminate_graded(A, rhs):
    """(A^-1 rhs, log det A) for a nested list of jets A and a list of
    jets rhs (empty for log det alone), through the package's
    graded_solve on their stacked coefficients."""
    space = A[0][0].space
    X, log_det = graded_solve(
        space, np.array([[e.coef for e in row] for row in A]),
        np.array([r.coef for r in rhs]) if rhs else None)
    return [Jet(space, row) for row in ([] if X is None else X)], Jet(
        space, log_det)


def eliminate_gauss_jordan(A, rhs):
    """eliminate_graded's pair by jet_solve's Gauss-Jordan elimination,
    log det A the log of its signed pivot product."""
    u, det = jet_solve(A, rhs)
    if det.value <= 0.0:
        raise JetDomainError(
            "jet matrix whose base value has no positive finite determinant")
    return u, det.log()


def spray_jets(F: LoopMetric, y, f2: Jet, eliminate=eliminate_graded):
    """G^i as jets over the 2n variables, two orders below f2."""
    n = F.dim
    order = f2.space.order - 2
    g = metric_jets(f2, n)
    space_lo = jet_space(2 * n, order)
    yj = [space_lo.variable(n + k, y[k]) for k in range(n)]
    rhs = []
    for l in range(n):
        acc = space_lo.constant(0.0)
        for k in range(n):
            acc = acc + deriv(deriv(f2, k), n + l) * yj[k]
        rhs.append(acc - truncate(deriv(f2, l), order))
    try:
        w, _ = eliminate(g, rhs)
    except JetDomainError as e:
        raise SingularMetricError(str(e)) from e
    return [wi * 0.25 for wi in w]


def riemann_from_spray_jets(Gj, y, n: int) -> np.ndarray:
    n2 = 2 * n
    Gv = np.array([G.value for G in Gj])
    dGx = np.empty((n, n))
    dGy = np.empty((n, n))
    d2xy = np.empty((n, n, n))
    d2yy = np.empty((n, n, n))
    for i in range(n):
        grad = gradient(Gj[i])
        dGx[i] = grad[:n]
        dGy[i] = grad[n:]
        for m in range(n):
            for k in range(n):
                d2xy[i, m, k] = Gj[i].partial(_unit2(n2, m, n + k))
                d2yy[i, m, k] = Gj[i].partial(_unit2(n2, n + m, n + k))
    yv = np.asarray(y, dtype=float)
    return (
        2.0 * dGx
        - np.einsum("m,imk->ik", yv, d2xy)
        + 2.0 * np.einsum("m,imk->ik", Gv, d2yy)
        - np.einsum("im,mk->ik", dGy, dGy)
    )


def _sigma_jet(sigma, x, n: int, order: int) -> Jet:
    """The density sigma as a jet of the given order over the 2n
    variables, from sigma called on the x seeds."""
    space = jet_space(2 * n, order)
    xj = [space.variable(i, x[i]) for i in range(n)]
    s = sigma(xj)
    if not isinstance(s, Jet):
        s = space.constant(float(s))
    return s


def tau_jet(F, sigma, x, f2: Jet, eliminate=eliminate_graded) -> Jet:
    """tau = ln(sqrt(det g_ij) / sigma) as a jet two orders below f2."""
    n = F.dim
    order = f2.space.order - 2
    try:
        _, log_det = eliminate(metric_jets(f2, n), [])
    except JetDomainError:
        raise SingularMetricError(
            "nonpositive fundamental determinant") from None
    sj = _sigma_jet(sigma, x, n, order)
    if sj.value <= 0.0:
        raise ValueError("volume density must be positive")
    return log_det * 0.5 - sj.log()


def hess_form(f, x, y, G, n: int) -> float:
    """f_{x^i x^j} y^i y^j - 2 f_{x^i} G^i for a given spray value G,
    the Hessian read one Jet.partial at a time."""
    space = jet_space(n, 2)
    seeds = space.seed(list(x))
    fj = eval_expr(f, seeds) if isinstance(f, ExprAst) else f(seeds)
    if not isinstance(fj, Jet):
        fj = space.constant(float(fj))
    hess = np.array([[fj.partial(_unit2(n, i, j)) for j in range(n)]
                     for i in range(n)])
    yv = np.asarray(y, dtype=float)
    return float(yv @ hess @ yv - 2.0 * np.dot(gradient(fj), G))


def curvature_sample_oracle(
    F: LoopMetric, sigma, x, y, bh=None, eliminate=eliminate_graded,
) -> CurvatureSample:
    """The curvature bundle at (x, y), every stage computed for this
    direction alone, with jets; s_bh is the S of a second sample against
    bh, or S itself without bh.  The jet matrix g is eliminated by
    eliminate."""
    _check_domain(F, x, y)
    n = F.dim
    f4 = f2_jet(F, x, y, 4)
    g = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            g[i, j] = g[j, i] = 0.5 * f4.partial(_unit2(2 * n, n + i, n + j))
    _check_invertible(g)
    Gj = spray_jets(F, y, f4, eliminate)
    Gv = np.array([G.value for G in Gj])
    N = np.array([gradient(G)[n:] for G in Gj])
    R = riemann_from_spray_jets(Gj, y, n)
    tau = tau_jet(F, sigma, x, f4, eliminate)
    # S = y^m tau_{x^m} - 2 G^m tau_{y^m}, kept as a first-order jet
    space1 = jet_space(2 * n, 1)
    s_jet = space1.constant(0.0)
    for m in range(n):
        ym = space1.variable(n + m, y[m])
        s_jet = (s_jet + ym * deriv(tau, m)
                 - truncate(Gj[m], 1) * deriv(tau, n + m) * 2.0)
    grad = gradient(s_jet)
    sdot = float(np.dot(y, grad[:n]) - 2.0 * np.dot(Gv, grad[n:]))
    s_bh = s_jet.value
    if bh is not None:
        s_bh = curvature_sample_oracle(F, bh, x, y, eliminate=eliminate).s
    return CurvatureSample(
        x=np.asarray(x, dtype=float),
        y=np.asarray(y, dtype=float),
        g=g,
        spray=Gv,
        connection=N,
        riemann=R,
        ricci=float(np.trace(R)),
        tau=tau.value,
        s=s_jet.value,
        sdot=sdot,
        s_bh=s_bh,
    )


def spray_generic(F: LoopMetric, x, y) -> np.ndarray:
    """Geodesic coefficients G^i = (1/4) g^{il} ([F^2]_{x^k y^l} y^k - [F^2]_{x^l})."""
    _check_domain(F, x, y)
    n = F.dim
    f2 = f2_jet(F, x, y, 2)
    g = np.empty((n, n))
    rhs = np.empty(n)
    for l in range(n):
        for i in range(l, n):
            g[l, i] = g[i, l] = 0.5 * f2.partial(_unit2(2 * n, n + l, n + i))
        acc = 0.0
        for k in range(n):
            acc += f2.partial(_unit2(2 * n, k, n + l)) * y[k]
        rhs[l] = acc - f2.partial(_unit2(2 * n, l))
    _check_invertible(g)
    try:
        return 0.25 * np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError as e:
        raise SingularMetricError(str(e)) from e


@dataclass(frozen=True)
class GeodesicPath:
    t: np.ndarray
    pos: np.ndarray  # (steps + 1, n)
    vel: np.ndarray  # (steps + 1, n)


def geodesic_flow(F: LoopMetric, x, y, t_end: float, steps: int) -> GeodesicPath:
    """Integrate the geodesic equation xddot = -2 G(x, xdot) with classical RK4."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    h = t_end / steps
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("step underflow: t_end/steps must be positive and finite")
    n = F.dim

    def rhs(xv, yv):
        return yv, -2.0 * spray_generic(F, list(xv), list(yv))

    pos = np.empty((steps + 1, n))
    vel = np.empty((steps + 1, n))
    xv = np.asarray(x, dtype=float).copy()
    yv = np.asarray(y, dtype=float).copy()
    pos[0], vel[0] = xv, yv
    for k in range(steps):
        try:
            k1x, k1y = rhs(xv, yv)
            k2x, k2y = rhs(xv + 0.5 * h * k1x, yv + 0.5 * h * k1y)
            k3x, k3y = rhs(xv + 0.5 * h * k2x, yv + 0.5 * h * k2y)
            k4x, k4y = rhs(xv + h * k3x, yv + h * k3y)
        except ConicDomainError as e:
            raise ConicDomainError(
                f"geodesic left the conic domain near t={k * h:.6g}"
            ) from e
        xv = xv + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        yv = yv + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        pos[k + 1], vel[k + 1] = xv, yv
    return GeodesicPath(np.linspace(0.0, t_end, steps + 1), pos, vel)


def jet_solve(A, rhs):
    """Solve A u = rhs over the jet ring by Gauss-Jordan elimination.

    A is an n x n nested list of jets, rhs a length-n list of jets, or
    empty to ask for the determinant alone.  Pivots are chosen by largest
    base value; a zero pivot raises JetDomainError.  Returns (u, det A),
    det A being the product of the final pivots, negated once per row
    swap.
    """
    n = len(A)
    M = [row[:] for row in A]
    b = rhs[:]
    inv_pivs = []
    sign = 1.0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col].value))
        if M[piv][col].value == 0.0:
            raise JetDomainError("singular jet matrix (zero pivot base value)")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            sign = -sign
            if b:
                b[col], b[piv] = b[piv], b[col]
        inv_piv = M[col][col].reciprocal()
        inv_pivs.append(inv_piv)
        for r in range(n):
            if r == col:
                continue
            factor = M[r][col] * inv_piv
            for c in range(col, n):
                M[r][c] = M[r][c] - factor * M[col][c]
            if b:
                b[r] = b[r] - factor * b[col]
    # row col is final once its column is eliminated, so M[i][i] is the
    # final pivot of row i and inv_pivs[i] its reciprocal
    det = M[0][0]
    for i in range(1, n):
        det = det * M[i][i]
    return [b[i] * inv_pivs[i] for i in range(len(b))], det * sign


def jet_solve_reference(A, rhs):
    """jet_solve as it divided before reusing its pivot reciprocals:
    the same elimination, then b[i] times a new reciprocal of M[i][i]."""
    n = len(A)
    M = [row[:] for row in A]
    b = rhs[:]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col].value))
        if M[piv][col].value == 0.0:
            raise JetDomainError("singular jet matrix (zero pivot base value)")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            b[col], b[piv] = b[piv], b[col]
        inv_piv = M[col][col].reciprocal()
        for r in range(n):
            if r == col:
                continue
            factor = M[r][col] * inv_piv
            for c in range(col, n):
                M[r][c] = M[r][c] - factor * M[col][c]
            b[r] = b[r] - factor * b[col]
    return [b[i] * M[i][i].reciprocal() for i in range(n)]


def jet_det(A) -> Jet:
    """Determinant of a small square matrix of jets (Leibniz expansion)."""
    n = len(A)
    space = A[0][0].space
    total = space.constant(0.0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # parity by counting inversions
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        term = A[0][perm[0]]
        for i in range(1, n):
            term = term * A[i][perm[i]]
        total = total + term * float(sign)
    return total


def mul_table(space):
    """(i, j, k) index arrays of every product mu_i + nu_j = gamma_k
    within the space's order, grouped by k stably, as JetSpace keeps
    them."""
    ii, jj, kk = [], [], []
    for i, mu in enumerate(space.indices):
        dmu = sum(mu)
        for j, nu in enumerate(space.indices):
            if dmu + sum(nu) > space.order:
                continue
            gamma = tuple(a + b for a, b in zip(mu, nu))
            ii.append(i)
            jj.append(j)
            kk.append(space.position[gamma])
    by_k = np.argsort(kk, kind="stable")
    return tuple(np.array(t, dtype=np.intp)[by_k] for t in (ii, jj, kk))


def triples_by_row(space, a, b, t=None):
    """The products a * b of coefficient arrays of one shape over the
    first t triples of the table, one bincount per jet, as jets' batched
    products were made before they went rank by rank."""
    mi, mj, mk, nc = space._mi[:t], space._mj[:t], space._mk[:t], space.ncoef
    if a.ndim == 1:
        return np.bincount(mk, weights=a[mi] * b[mj], minlength=nc)
    return np.array([triples_by_row(space, u, v, t) for u, v in
                     zip(a.reshape(-1, nc), b.reshape(-1, nc))]).reshape(a.shape)


def horner_compose(jet, dcoefs):
    """sum_k dcoefs[k] (jet - value)^k by Horner over full jet products,
    as Jet._compose evaluated before it dropped the degrees that later
    steps truncate."""
    e = Jet(jet.space, jet.coef.copy())
    e.coef[0] = 0.0
    r = jet.space.constant(dcoefs[-1])
    for k in range(len(dcoefs) - 2, -1, -1):
        r = r * e + dcoefs[k]
    return r


def jet_inverse(A):
    """Columns of A^-1 via jet_solve against unit vectors."""
    n = len(A)
    space = A[0][0].space
    cols = []
    for j in range(n):
        e = [space.constant(1.0 if i == j else 0.0) for i in range(n)]
        cols.append(jet_solve(A, e)[0])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _sigma_bh_value(space: KropinaSpace, env):
    """(2/b)^n sqrt(det a) over a float or jet environment."""
    n = space.dim
    *vals, b = eval_expr(
        [e for row in space.a.exprs for e in row] + [space.gauge], env)
    rows = [vals[i * n:(i + 1) * n] for i in range(n)]
    jet = next(
        (e for row in rows for e in row if isinstance(e, Jet)),
        b if isinstance(b, Jet) else None,
    )
    if jet is None:
        det = float(np.linalg.det(np.asarray(rows, dtype=float)))
        if det <= 0.0 or float(b) <= 0.0:
            raise GaugeError("degenerate view metric or gauge")
        return math.sqrt(det) * (2.0 / float(b)) ** n
    sp = jet.space
    A = np.zeros((n * n, sp.ncoef))
    for k, e in enumerate(vals):
        if isinstance(e, Jet):
            A[k] = e.coef
        else:
            A[k, 0] = float(e)
    if not isinstance(b, Jet):
        b = sp.constant(float(b))
    try:
        _, log_det = graded_solve(sp, A.reshape(n, n, -1))
    except JetDomainError:
        raise GaugeError("degenerate view metric or gauge") from None
    if b.value <= 0.0:
        raise GaugeError("degenerate view metric or gauge")
    return Jet(sp, log_det * 0.5).exp() * (b.reciprocal() * 2.0) ** n


def bh_volume_density(space: KropinaSpace):
    """x -> sigma_BH(x), over float or jet entries."""
    return lambda xs: _sigma_bh_value(space, list(xs))


def volume_density(space: KropinaSpace):
    """The measure the S-curvature formulas refer to, as x -> sigma(x):
    the unit-ball density, times e^{-(n+1) f} with a weight f."""
    if space.weight is None:
        return bh_volume_density(space)
    n1 = space.dim + 1

    def sigma(xs):
        base = _sigma_bh_value(space, list(xs))
        fv = eval_expr(space.weight, list(xs))
        arg = -float(n1) * fv
        damp = arg.exp() if isinstance(arg, Jet) else math.exp(arg)
        return damp * base

    return sigma


@dataclass(frozen=True)
class BHDensityEstimate:
    value: float            # Vol(B^n) / Vol{F < 1}
    stderr: float
    samples: int


def ellipsoid_box(space: KropinaSpace, x):
    """(lo, hi): the axis-aligned box of the Kropina unit ball at x, the
    ellipsoid |y - v|_a < b/2 centred at v = a^{-1} b_low / 2, read
    from a_ij and b_i."""
    a, b = evaluate([float(v) for v in x], space.a, space.b)
    ainv = np.linalg.inv(a)
    centre = ainv @ b / 2.0
    half = 0.5 * math.sqrt(b @ ainv @ b) * np.sqrt(np.diag(ainv))
    return centre - half, centre + half


def probe_box(stage: XStage, probes=256):
    """A cube containing {F(x, .) < 1}: by 1-homogeneity its extent
    along a direction u is 1/F(x, u), and twice the largest extent over
    fixed-key random probes and the 2n axis directions covers the
    directions between them for the smooth convex sublevel sets here."""
    n = len(stage.x)
    rng = np.random.Generator(np.random.Philox(key=0x9E3779B9))
    dirs = rng.normal(size=(probes, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    block = np.vstack([dirs, np.eye(n), -np.eye(n)])
    with np.errstate(all="ignore"):
        vals = np.asarray(stage.f(block), dtype=float)
        vals = vals[np.asarray(stage.domain(block)) & np.isfinite(vals)
                    & (vals > 0.0)]
    r = 2.0 * float(np.max(1.0 / vals))
    return -r * np.ones(n), r * np.ones(n)


def bh_density_mc(stage: XStage, mc_samples: int, seed: int = 0,
                  box=None) -> BHDensityEstimate:
    """Unit-ball volume density Vol(B^n) / Vol{y : F(x, y) < 1} by Monte
    Carlo: the share of uniform draws from box (lo, hi), or from
    probe_box, with F(x, y) < 1, against generic.bh_density's sphere
    quadrature.  The draws are made and judged 4096 rows at a time,
    Philox-keyed by seed."""
    n = len(stage.x)
    lo, hi = (np.asarray(v, dtype=float)
              for v in (probe_box(stage) if box is None else box))
    rng = np.random.Generator(np.random.Philox(key=seed))
    hits = 0
    for start in range(0, mc_samples, 4096):
        m = min(4096, mc_samples - start)
        block = lo + rng.random(size=(m, n)) * (hi - lo)
        with np.errstate(all="ignore"):
            vals = np.asarray(stage.f(block), dtype=float)
            inside = (np.asarray(stage.domain(block)) & np.isfinite(vals)
                      & (vals > 0.0) & (vals < 1.0))
        hits += int(np.count_nonzero(inside))
    p = hits / mc_samples
    value = unit_ball_volume(n) / (p * float(np.prod(hi - lo)))
    rel = math.sqrt(p * (1.0 - p) / mc_samples) / p
    return BHDensityEstimate(value=value, stderr=value * rel,
                             samples=mc_samples)


def rs_from_RS(space: KropinaSpace, x, y):
    """(r_00, s^i_0, s_0) of the view metric from navigation-side data.

    Computes the drift-derivative contractions from the wind's
    covariant derivatives and the gauge's log-gradient instead of from
    the view metric directly; must agree with the drift bundle's.
    """
    xs = [float(v) for v in x]
    mp = MetricPoint.from_exprs(space.h, xs, order=1)
    fp = field_point(mp, space.w, xs, order=1)
    wi = w_invariants_from_point(mp, fp)
    rho, rho_grad = jet_partials(space.rho, xs, 1)
    e2 = math.exp(-2.0 * float(rho))
    y = np.asarray(y, dtype=float)
    h2 = float(y @ mp.g @ y)
    w0 = float(fp.w_low @ y)
    w_rho = float(fp.w @ rho_grad)
    rho_0 = float(rho_grad @ y)
    rho_up = mp.ginv @ rho_grad
    big_r00 = float(y @ wi.r_ij @ y)
    big_si0 = wi.s_up @ y
    big_s0 = float(wi.s_vec @ y)
    r_00 = 2.0 * e2 * (big_r00 - w_rho * h2)
    s_i0 = 2.0 * (big_si0 + rho_up * w0 - rho_0 * fp.w)
    s_0 = 4.0 * e2 * (big_s0 + w_rho * w0 - rho_0)
    return r_00, s_i0, s_0


def linear_form(coeffs, y):
    """sum_i coeffs[i] * y[i], accumulated in index order."""
    acc = None
    for c, yi in zip(coeffs, y):
        t = c * yi
        acc = t if acc is None else acc + t
    return acc


def quadratic_form(values, y):
    """sum_ij values[i][j] * y[i] * y[j], accumulated in index order."""
    n = len(values)
    acc = None
    for i in range(n):
        for j in range(n):
            t = values[i][j] * y[i] * y[j]
            acc = t if acc is None else acc + t
    return acc


def loop_metric(space: KropinaSpace) -> LoopMetric:
    """finsler_stage's (alpha, beta) view with its forms as loops of Jet
    (or float, or column) operations over the values of a_ij and b_i:
    the reference whose bits the package's stacked stage must
    reproduce."""
    n = space.dim
    quad = [e for row in space.a.exprs for e in row]

    def at(x):
        vals = eval_expr(quad + list(space.b), list(x))
        qv = [vals[i * n:(i + 1) * n] for i in range(n)]
        bv = vals[n * n:]
        return LoopStage(lambda y: quadratic_form(qv, y) / linear_form(bv, y),
                         lambda y: linear_form(bv, y) > 0)

    return LoopMetric(dim=n, at=at, name=f"{space.name}:ab-loop")


def nav_metric(space: KropinaSpace) -> LoopMetric:
    """The navigation view F = h_ij y^i y^j / (2 W_0) as a LoopMetric:
    the independent twin of finsler_stage's (alpha, beta) view, which
    it must match everywhere.  h_ij and W^i are evaluated once per
    chart point."""
    n = space.dim
    h_and_w = [e for row in space.h.exprs for e in row] + list(space.w)

    def den_stage(vals):
        """y -> 2 W_0 = 2 h_ij W^j y^i, from the values of h_ij and W^i."""
        wv = vals[n * n:]
        wl = [linear_form(vals[i * n:(i + 1) * n], wv) for i in range(n)]
        return lambda y: 2.0 * linear_form(wl, y)

    def at(x):
        vals = eval_expr(h_and_w, list(x))
        qv = [vals[i * n:(i + 1) * n] for i in range(n)]
        den = den_stage(vals)
        return LoopStage(lambda y: quadratic_form(qv, y) / den(y),
                         lambda y: den(y) > 0)

    return LoopMetric(dim=n, at=at, name=f"{space.name}:nav")


def validate_views(space: KropinaSpace, xs, ys=None, tol_view=1e-10):
    """Check the linking identities of the two views at sample points;
    raise on failure.

    xs is an iterable of chart points.  ys, when given, pairs with xs
    and additionally checks that both views produce the same F; a
    direction outside the conic domain raises ConicDomainError.
    """
    nav = nav_metric(space)
    for k, x in enumerate(xs):
        env = [float(v) for v in x]
        h_val, w_val, a_val, b_val, (rho_v, g_val) = evaluate(
            env, space.h, space.w, space.a, space.b, (space.rho, space.gauge))
        _require_unit_wind(float(w_val @ h_val @ w_val), f"at point {k}")
        e2 = math.exp(-2.0 * rho_v)
        if g_val <= 0.0:
            raise GaugeError(f"gauge b = {g_val:.6g} at point {k}")
        checks = (
            ("a_ij vs e^(-2 rho) h_ij",
             np.max(np.abs(a_val - e2 * h_val)), np.max(np.abs(a_val))),
            ("b_i vs 2 e^(-2 rho) W_i",
             np.max(np.abs(b_val - 2.0 * e2 * (h_val @ w_val))),
             np.max(np.abs(b_val))),
            ("b^2 vs 4 e^(-2 rho)",
             abs(g_val * g_val - 4.0 * e2), 4.0 * e2),
        )
        for label, err, scale in checks:
            if err > tol_view * max(1.0, scale):
                raise ValueError(
                    f"view consistency failed ({label}) at point {k}: "
                    f"max error {err:.3e}"
                )
        if ys is not None:
            y = np.array([ys[k]], dtype=float)
            values = []
            for stage in (finsler_stage(space, env), nav.stage(env)):
                if not stage.domain(y)[0]:
                    raise ConicDomainError(
                        f"(x, y) outside the conic domain of metric "
                        f"{stage.name!r}")
                values.append(float(stage.f(y)[0]))
            f_ab, f_nav = values
            if abs(f_ab - f_nav) > tol_view * max(1.0, abs(f_ab)):
                raise ValueError(
                    f"F disagrees between views at point {k}: "
                    f"{f_ab!r} vs {f_nav!r}"
                )


def flat_wind(n):
    """Flat n-space with a constant unit wind, as a scenario document."""
    vector = ["0.6", "0.8"] + ["0"] * (n - 2)
    return {
        "schema": "scenario/1",
        "name": f"flat{n}_wind",
        "dimension": n,
        "representation": "nav",
        "metric": [["1" if i == j else "0" for j in range(n)]
                   for i in range(n)],
        "vector": vector,
        "constants": {"a": 0, "c": 0},
        "box": [[-0.5, 0.5]] * n,
        "points": 2,
        "directions": 3,
        "seed": 5,
    }


def chart_point(space: KropinaSpace, x, ys=()) -> ChartPoint:
    """The ChartPoint of x (and directions ys)."""
    return ChartPoint(space, x, ys)


def ab_fields(space: KropinaSpace, x):
    """The drift bundle of the space at x."""
    return chart_point(space, x).fld


def jet_partials(part, x, order):
    """Value and partials to the given order of a part (a metric, a
    sequence of trees or one tree, as riemann.evaluate takes it) at x,
    from one evaluation over the x-jets."""
    space = jet_space(len(x), order)
    return partials(evaluate(space.seed(x), part)[0], space)


def field_point(mp: MetricPoint, w_exprs, x, order=2) -> FieldPoint:
    """The FieldPoint of component expressions over mp at x."""
    return FieldPoint(mp, *jet_partials(w_exprs, x, order))


def nav_point(h: RiemannianMetric, w, x) -> NavPoint:
    """The NavPoint of any wind W over any metric h at x."""
    w = _coerce_vector(w, h.dim, "wind")
    xs = [float(v) for v in x]
    return NavPoint(MetricPoint.from_exprs(h, xs, order=2),
                    *jet_partials(w, xs, 1))


def log_density(sigma, x) -> Jet:
    """ln sigma as the order-2 jet over the n chart variables at x that
    curvature_samples takes, from the density callable sigma on the
    seeds."""
    space = jet_space(len(x), 2)
    s = sigma(space.seed([float(v) for v in x]))
    if not isinstance(s, Jet):
        s = space.constant(float(s))
    return s.log()


def with_gauge(space: KropinaSpace, gauge) -> KropinaSpace:
    """The same metric re-expressed in a different gauge b(x)."""
    return KropinaSpace.from_nav(space.h, space.w, gauge=gauge,
                                 weight=space.weight, name=space.name)


def with_weight(space: KropinaSpace, weight) -> KropinaSpace:
    """The same metric carrying another weight function."""
    return replace(space, weight=_coerce_scalar(weight, space.dim, "weight"))


def pric(fields, y):
    """Projective Ricci curvature: ric_ac at the constants where both
    derived constants vanish."""
    a, c = pric_constants(fields.n)
    return ric_ac(AbInvariants(fields, y), WeightConfig(a, c, fields.n))


def ric_ac_via_projective(fields, cfg: WeightConfig, y):
    """ric_ac reassembled around the projective Ricci curvature:

        ric_ac = pric - kappa/(n+1) * (Sdot + 4 S^2/(n+1))
                      + nu * S^2/(n+1)^2.

    Independent evaluation path for the identity tests.
    """
    n = fields.n
    kappa, nu = cfg.kappa, cfg.nu
    inv = AbInvariants(fields, y)
    sdot = (n + 1) * s_dot_closed(inv)
    s = s_closed(inv)
    return (pric(fields, y) - kappa / (n + 1) * (sdot + 4 * s**2 / (n + 1))
            + nu * s**2 / (n + 1) ** 2)


def metric_from_strings(rows, dim=None):
    n = dim or len(rows)
    return RiemannianMetric(
        n, tuple(tuple(parse_expr(e, n) for e in row) for row in rows)
    )


def christoffel(metric: RiemannianMetric, x):
    """Gamma[k, i, j] = Gamma^k_ij of the metric at x."""
    return MetricPoint.from_exprs(metric, x, order=1).christoffel


def lowered_riemann(mp: MetricPoint):
    """R_kmij = g_mp R_k^p_ij."""
    return np.einsum("mp,kpij->kmij", mp.g, mp.riemann)


def riemann_h(metric: RiemannianMetric, x):
    return MetricPoint.from_exprs(metric, x, order=2).riemann


def ricci_h(metric: RiemannianMetric, x):
    return MetricPoint.from_exprs(metric, x, order=2).ricci


def hess_h(f: ExprAst, metric: RiemannianMetric, x):
    """Covariant Hessian f_{i|j} = d_i d_j f - Gamma^m_ij d_m f."""
    mp = MetricPoint.from_exprs(metric, x, order=1)
    _, df, d2f = jet_partials(f, x, 2)
    return mp.covariant_hessian(df, d2f)


@dataclass(frozen=True)
class WInvariants:
    """Symmetrised / antisymmetrised covariant derivatives of a field."""

    r_ij: np.ndarray  # 1/2 (W_{i|j} + W_{j|i})
    s_ij: np.ndarray  # 1/2 (W_{i|j} - W_{j|i})
    s_up: np.ndarray  # S^i_j = g^ik S_kj
    s_vec: np.ndarray  # S_j = W^i S_ij
    r_vec: np.ndarray  # R_j = W^i R_ij
    r_scalar: float  # R_j W^j


def w_invariants_from_point(mp: MetricPoint, fp: FieldPoint) -> WInvariants:
    c = fp.cov1
    r = 0.5 * (c + c.T)
    s = 0.5 * (c - c.T)
    s_up = mp.ginv @ s
    s_vec = fp.w @ s
    r_vec = fp.w @ r
    return WInvariants(r, s, s_up, s_vec, r_vec, float(r_vec @ fp.w))


def w_invariants(metric: RiemannianMetric, w_exprs, x) -> WInvariants:
    mp = MetricPoint.from_exprs(metric, x, order=2)
    fp = field_point(mp, w_exprs, x, order=1)
    return w_invariants_from_point(mp, fp)


def second_cov_w(metric: RiemannianMetric, w_exprs, x):
    """W_{k|i|j} as a (k, i, j)-indexed array."""
    mp = MetricPoint.from_exprs(metric, x, order=2)
    return field_point(mp, w_exprs, x, order=2).cov2


def weight_constants(a, c, n):
    """The derived constants (kappa, nu) for weight constants (a, c)."""
    if n < 2:
        raise ValueError("weight constants need dimension n >= 2")
    kappa = (n - 1) - a * (n + 1)
    nu = 3 * (n - 1) - 4 * a * (n + 1) - c * (n + 1) ** 2
    return float(kappa), float(nu)


def einstein_residual(fields, cfg: WeightConfig, ansatz: EinsteinAnsatz, y):
    """ric_ac(y) - (n-1) (3 theta(y) F + sigma F^2) at one (x, y)."""
    inv = AbInvariants(fields, y)
    return ric_ac(inv, cfg) - (fields.n - 1) * ansatz.model(inv.F, y)


def fit_residual(inv: AbInvariants, cfg: WeightConfig, fit: EinsteinAnsatz):
    """The root-mean-square Einstein residual of fit over the directions
    of inv, relative to the curvature scale max(1, rms ric_ac)."""
    t = ric_ac(inv, cfg)
    model = (inv.fields.n - 1) * fit.model(inv.F, inv.y)
    scale = max(1.0, float(np.sqrt(np.mean(t * t))))
    return float(np.sqrt(np.mean((model - t) ** 2))) / scale


def residuals_per_row(tol, adds):
    """einstein._Residuals one residual at a time: the conditions judged
    from adds, (name, residual, kind) triples of one float each in
    sampling order.  Each name keeps its worst residual as it goes; a
    non-finite one fails its name, stays the worst value and is named
    by its row in the note.  Returns the entries conditions() gives."""
    worst, kinds, rows, bad_row = {}, {}, {}, {}
    for name, residual, kind in adds:
        residual = abs(float(residual))
        row = rows.get(name, 0)
        rows[name] = row + 1
        if row == 0:
            kinds[name] = kind
        if name in bad_row:
            continue
        if not math.isfinite(residual):
            bad_row[name] = row
            worst[name] = residual
        elif row == 0 or residual > worst[name]:
            worst[name] = residual
    return [
        {"name": name, "residual": worst[name], "tol": tol,
         "passed": bool(name not in bad_row and worst[name] <= tol),
         "kind": kind,
         "note": ("" if name not in bad_row
                  else f"non-finite residual at row {bad_row[name]}")}
        for name, kind in kinds.items()
    ]


def weighted_ricci_tensor(h: RiemannianMetric, f, cfg: WeightConfig, x):
    """Ric^h + a(n+1) Hess_h f - c(n+1)^2 df (x) df at x; the bilinear
    form whose proportionality to h characterizes the nu != 0 regime in
    navigation data."""
    if isinstance(f, str):
        f = parse_expr(f, h.dim)
    mp = MetricPoint.from_exprs(h, list(x), order=2)
    if f is None:
        return _weighted_ricci(mp, f, cfg, None, None)
    _, df, d2f = jet_partials(f, list(x), 2)
    return _weighted_ricci(mp, f, cfg, df, mp.covariant_hessian(df, d2f))


def nav_riemann_isotropic(fp: NavPoint, y, tol=1e-8) -> np.ndarray:
    """Riemann curvature R^i_k from navigation data, Killing wind only.

    Index convention for the base curvature riem[p, i, k, q] =
    R_p^i_{kq}: the pure-metric spray curvature is riem contracted
    with y in slots p and q, which the generic pipeline confirms.
    """
    _nav_hypothesis(fp, tol)
    y, w0, F = _nav_frame(fp, y)
    mp = fp.mp
    wv = fp.w
    riem = mp.riemann
    xi_low = mp.g @ (y - F * wv)
    s_up = fp.s_up

    t1 = np.einsum("pikq,p,q->ik", riem, y, y)
    t2 = -2.0 * F * np.einsum("pikq,p,q->ik", riem, y, wv)
    v3 = np.einsum("pimq,p,m,q->i", riem, y, wv, y)
    t3 = -np.outer(v3, xi_low) / w0
    t4 = F * np.einsum("kimq,m,q->ik", riem, y, wv)
    t5 = -F * F * (s_up @ s_up)
    t6 = (F / w0) * np.outer(s_up @ (s_up @ y), xi_low)
    return t1 + t2 + t3 + t4 + t5 + t6


# -- the per-direction routes ---------------------------------------------------


def _embed(jet: Jet) -> np.ndarray:
    """The coefficients of a jet over the n chart variables as those of
    the same function over the 2n variables (x, y)."""
    sp = jet.space
    space = jet_space(2 * sp.nvars, sp.order)
    coef = np.zeros(space.ncoef)
    for idx, c in zip(sp.indices, jet.coef):
        coef[space.position[idx + (0,) * sp.nvars]] = c
    return coef


def _staged_spray_system(f4: Jet, y, n: int):
    """(g, rhs) of one direction, as _spray_system gives each row."""
    space = f4.space
    lo = jet_space(2 * n, space.order - 2)
    src, scale1, scale2 = space.second_partials
    d2 = f4.coef[src[:, n:]] * scale1[:, n:] * scale2[:, n:]
    dxy = d2[:n]
    c1 = lo._deriv_src.shape[1]
    terms = dxy * np.asarray(y, dtype=float)[:, None, None] + 0.0
    terms[np.arange(n)[:, None, None], np.arange(n)[None, :, None],
          lo._deriv_src[n:, None, :]] += dxy[:, :, :c1]
    dx = (f4.coef[space._deriv_src[:n, :lo.ncoef]]
          * space._deriv_scale[:n, :lo.ncoef])
    return d2[n:] * 0.5, np.add.reduce(terms, axis=0) - dx


def _staged_riemann(G: np.ndarray, y, n: int) -> np.ndarray:
    """R^i_k of one direction from its (n, ncoef) spray array."""
    Gv = G[:, 0]
    dGx = G[:, 1:1 + n]
    dGy = G[:, 1 + n:1 + 2 * n]
    sp = jet_space(2 * n, 2)
    pos = sp.hessian_positions
    d2xy = G[:, pos[:n, n:]] * sp.factorial[pos[:n, n:]]
    d2yy = G[:, pos[n:, n:]] * sp.factorial[pos[n:, n:]]
    yv = np.asarray(y, dtype=float)
    return (
        2.0 * dGx
        - np.einsum("m,imk->ik", yv, d2xy)
        + 2.0 * np.einsum("m,imk->ik", Gv, d2yy)
        - np.einsum("im,mk->ik", dGy, dGy)
    )


def _staged_s_jet(tau: np.ndarray, G: np.ndarray, y, n: int) -> np.ndarray:
    """S of one direction as a first-order coefficient array."""
    sp = jet_space(2 * n, 2)
    c1 = 1 + 2 * n
    d = tau[sp._deriv_src] * sp._deriv_scale
    tx, ty = d[:n], d[n:]
    m = np.arange(n)
    seeded = tx * np.asarray(y, dtype=float)[:, None] + 0.0
    seeded[m, 1 + n + m] += tx[:, 0]
    g1 = G[:, :c1]
    drift = 0.0 + g1[:, :1] * ty
    drift[:, 1:] += g1[:, 1:] * ty[:, :1]
    terms = np.empty((2 * n, c1))
    terms[0::2] = seeded
    terms[1::2] = -(drift * 2.0)
    return np.add.reduce(terms, axis=0)


def staged_sample(F: LoopMetric, x, y, log_sigma: Jet,
                  log_sigma_bh=None):
    """The curvature bundle of F at (x, y) against the log densities
    curvature_samples takes, every stage run for the one direction y:
    F's jet from F.at(x).f on the seeds of x and y (loop_metric's for
    a space), the Jet product F * F,
    and the staged arrays of one direction.  The fields have no
    direction axis (floats for the scalars)."""
    n = F.dim
    x = np.asarray(x, dtype=float)
    if not bool(F.at(list(x)).domain(list(y))):
        raise ConicDomainError(
            f"(x, y) outside the conic domain of metric {F.name!r}")
    space = jet_space(2 * n, 4)
    f_at = F.at([space.variable(i, v) for i, v in enumerate(x)]).f
    f = f_at([space.variable(n + k, y[k]) for k in range(n)])
    if not isinstance(f, Jet):
        f = space.constant(float(f))
    gj, rhs = _staged_spray_system(f * f, y, n)
    g = gj[:, :, 0].copy()
    _check_invertible(g)
    try:
        w, log_det = graded_solve(jet_space(2 * n, 2), gj, rhs)
    except JetDomainError:
        raise SingularMetricError(
            "nonpositive fundamental determinant") from None
    G = w * 0.25
    Gv = G[:, 0].copy()
    R = _staged_riemann(G, y, n)
    half_log_det = log_det * 0.5
    tau = half_log_det - _embed(log_sigma)
    s_jet = _staged_s_jet(tau, G, y, n)
    grad = s_jet[1:1 + 2 * n]
    s = float(s_jet[0])
    s_bh = s
    if log_sigma_bh is not None:
        s_bh = float(_staged_s_jet(half_log_det - _embed(log_sigma_bh),
                                   G, y, n)[0])
    return CurvatureSample(
        x=x,
        y=np.asarray(y, dtype=float),
        g=g,
        spray=Gv,
        connection=G[:, 1 + n:1 + 2 * n].copy(),
        riemann=R,
        ricci=float(np.trace(R)),
        tau=float(tau[0]),
        s=s,
        sdot=float(np.dot(y, grad[:n]) - 2.0 * np.dot(Gv, grad[n:])),
        s_bh=s_bh,
    )


def point_samples(stage: XStage, ys, log_sigma: Jet,
                  log_sigma_bh=None) -> CurvatureSample:
    """The curvature samples of one chart point, a run of one through
    curvature_samples, which raises the point's error."""
    [cs] = curvature_samples([(stage, ys, log_sigma, log_sigma_bh)])
    return cs


def sample_row(cs: CurvatureSample, k: int) -> CurvatureSample:
    """Row k of batched curvature samples, as staged_sample gives the
    sample of its direction alone."""
    return replace(cs, **{f.name: getattr(cs, f.name)[k] for f in record_fields(cs)
                          if f.name != "x"})


class DirectionInvariants:
    """AbInvariants of one direction y, every contraction a float of its
    own 1-D product."""

    def __init__(self, fields: AbFields, y):
        f = fields
        y = np.asarray(y, dtype=float)
        self.fields = f
        self.y = y
        self.b2 = f.b2
        self.alpha2 = float(y @ f.mp.g @ y)
        self.beta = float(f.bl @ y)
        if self.beta <= 0.0:
            raise ConicDomainError(
                "beta(x, y) must be positive for Kropina contractions"
            )
        self.F = self.alpha2 / self.beta
        self.r_00 = float(y @ f.r @ y)
        self.r_0 = float(f.r_vec @ y)
        self.s_0 = float(f.s_vec @ y)
        self.s_i0 = f.s_up @ y
        self.r_0i = f.r @ y
        self.r_scalar = f.r_scalar
        self.r00_0 = float(np.einsum("ijk,i,j,k->", f.dr, y, y, y))
        self.r00_b = float(np.einsum("ijk,i,j,k->", f.dr, y, y, f.bu))
        self.s0_0 = float(y @ f.dsv @ y)
        self.s0_b = float(y @ f.dsv @ f.bu)
        self.r0_0 = float(y @ f.drv @ y)
        self.div_s0 = float(f.div_s_up @ y)
        self.div_s = f.div_s
        self.sk_sk0 = float(f.s_vec @ self.s_i0)
        self.sksk = float(f.s_vec @ f.mp.ginv @ f.s_vec)
        self.ss = float(np.einsum("ij,ji->", f.s_up, f.s_up))
        self.rk_sk0 = float(f.r_vec @ self.s_i0)
        self.r0k_sk = float(self.r_0i @ (f.mp.ginv @ f.s_vec))
        self.r0k_sk0 = float(self.r_0i @ self.s_i0)
        self.f_0 = float(f.f_grad @ y)


DIRECTION_INVARIANTS = (
    "alpha2", "beta", "F", "r_00", "r_0", "s_0", "s_i0", "r_0i", "r_scalar",
    "r00_0", "r00_b", "s0_0", "s0_b", "r0_0", "div_s0", "div_s", "sk_sk0",
    "sksk", "ss", "rk_sk0", "r0k_sk", "r0k_sk0", "f_0",
)


def _spray_1(f: AbFields, inv: DirectionInvariants) -> np.ndarray:
    y, a2, beta, b2 = inv.y, inv.alpha2, inv.beta, f.b2
    g_a = 0.5 * np.einsum("kij,i,j->k", f.mp.christoffel, y, y)
    correction = (
        -(a2 / (2.0 * beta)) * inv.s_i0
        + ((a2 / beta) * inv.s_0 + inv.r_00) / (2.0 * b2) * f.bu
        - (inv.s_0 + (beta / a2) * inv.r_00) / b2 * y
    )
    return g_a + correction


def _ricci_1(f: AbFields, inv: DirectionInvariants) -> float:
    n, F, b2 = f.n, inv.F, f.b2
    b4 = b2 * b2
    y = inv.y
    ric_a = float(y @ f.mp.ricci @ y)
    t = (
        3.0 * (n - 1) / (b4 * F * F) * inv.r_00 ** 2
        + (n - 1) / (F * b4) * (
            2.0 * inv.r_00 * inv.s_0
            - 4.0 * inv.r_00 * inv.r_0
            - 4.0 * F * inv.r_0 * inv.s_0
            - F * inv.s_0 ** 2
        )
        + (n - 1) / (b2 * F) * (
            inv.r00_0 + F * inv.s0_0 + F * F * inv.sk_sk0
        )
        + ((inv.r_0 + inv.s_0) ** 2
           - inv.r_scalar * (inv.r_00 + F * inv.s_0)) / b4
        + (
            F * inv.s0_b + inv.r00_b
            - (inv.r0_0 + inv.s0_0)
            + (inv.r_00 + F * inv.s_0) * f.trace_r_up
            + 2.0 * n * inv.r0k_sk0
            - F * inv.rk_sk0
            - F * inv.r0k_sk
            - 0.5 * F * F * inv.sksk
        ) / b2
        - F * inv.div_s0
        - 0.25 * F * F * inv.ss
    )
    return ric_a + t


def _hess_f_1(f: AbFields, inv: DirectionInvariants) -> float:
    if f.space.weight is None:
        return 0.0
    y = inv.y
    G = _spray_1(f, inv)
    return float(y @ f.f_hess @ y - 2.0 * f.f_grad @ G)


def _s_dot_1(f: AbFields, inv: DirectionInvariants) -> float:
    b2 = f.b2
    b4 = b2 * b2
    a2, beta = inv.alpha2, inv.beta
    first = (
        inv.r0_0
        - (beta / a2) * inv.r00_0
        + (a2 / beta) * inv.rk_sk0
        - 2.0 * inv.r0k_sk0
    ) / b2
    second = (
        -((a2 / beta) * inv.s_0 + inv.r_00) * inv.r_scalar
        + (2.0 * beta / a2) * inv.r_00 * (3.0 * inv.r_0 - inv.s_0)
        + 2.0 * inv.r_0 * (inv.s_0 - inv.r_0)
        - 4.0 * (beta / a2) ** 2 * inv.r_00 ** 2
    ) / b4
    return first + second + _hess_f_1(f, inv)


def _nav_ricci_1(fp: NavPoint, y) -> float:
    _nav_hypothesis(fp, 1e-8)
    y = np.asarray(y, dtype=float)
    w0 = float(fp.w_low @ y)
    F = float(y @ fp.mp.g @ y) / (2.0 * w0)
    ric, s_up = fp.mp.ricci, fp.s_up
    return float(y @ ric @ y - 2.0 * F * (y @ ric @ fp.w)
                 - F * F * np.einsum("ij,ji->", s_up, s_up))


def _nav_spray_1(fp: NavPoint, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    w0 = float(fp.w_low @ y)
    if w0 <= 0.0:
        raise ConicDomainError("W_0 must be positive in the conic domain")
    F = float(y @ fp.mp.g @ y) / (2.0 * w0)
    g_h = 0.5 * np.einsum("kij,i,j->k", fp.mp.christoffel, y, y)
    s_i0 = fp.s_up @ y
    s_0 = float(fp.s_vec @ y)
    r_00 = float(y @ fp.r @ y)
    return g_h - F * s_i0 - (r_00 + 2.0 * F * s_0) / (2.0 * F) * (y - F * fp.w)


def closed_per_direction(fields: AbFields, y, nav=None) -> dict:
    """Every closed form verify compares, at the one direction y, from
    DirectionInvariants: {name: value}, s-dot being S-dot / (n + 1) as
    s_dot_closed's.  With a NavPoint nav the navigation forms too,
    nav-ricci None where its hypothesis fails."""
    inv = DirectionInvariants(fields, y)
    f, n = fields, fields.n
    s_bh = (n + 1) / f.b2 * (inv.r_0 - inv.r_00 / inv.F)
    out = {
        "spray": _spray_1(f, inv),
        "ricci": _ricci_1(f, inv),
        "s-curvature": s_bh,
        "s-weighted": s_bh + (n + 1) * inv.f_0,
        "s-dot": _s_dot_1(f, inv),
        "weight-hessian": _hess_f_1(f, inv),
    }
    if nav is not None:
        out["nav-spray"] = _nav_spray_1(nav, y)
        try:
            out["nav-ricci"] = _nav_ricci_1(nav, y)
        except HypothesisNotMetError:
            out["nav-ricci"] = None
    return out


def ric_ac_per_direction(fields: AbFields, cfg: WeightConfig, y) -> float:
    """ric_ac at the one direction y from closed_per_direction."""
    a, c = float(cfg.a), float(cfg.c)
    closed = closed_per_direction(fields, y)
    val = closed["ricci"]
    if a != 0.0:
        val += a * (fields.n + 1) * closed["s-dot"]
    if c != 0.0:
        val -= c * closed["s-weighted"] ** 2
    return val


# -- expressions: the tree walk, the tree-walking printer, the eager parser ---

_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log,
         "sqrt": math.sqrt}


def _call_oracle(node, v):
    """fn(v) for a Call node, with eval_expr's domain errors."""
    if isinstance(v, Jet):
        try:
            return v.log() if node.fn == "ln" else getattr(v, node.fn)()
        except JetDomainError as exc:
            raise ExprDomainError(str(exc), node) from None
    if node.fn == "ln" and v <= 0.0:
        raise ExprDomainError(f"ln of nonpositive value {v}", node)
    if node.fn == "sqrt" and v < 0.0:
        raise ExprDomainError(f"sqrt of negative value {v}", node)
    try:
        return _MATH[node.fn](v)
    except OverflowError:
        raise ExprDomainError("range overflow", node) from None
    except ValueError:
        raise ExprDomainError("domain error", node) from None


def eval_tree_oracle(asts, env):
    """The values of the ExprAsts asts at env, a list of floats or jets,
    by a recursive walk: post-order, lhs before rhs and roots in order,
    each distinct node once per call.  A domain fault raises eval_expr's
    ExprDomainError at the first node that fails."""
    memo = {}

    def value(node):
        if node in memo:
            return memo[node]
        if isinstance(node, Const):
            v = node.value
        elif isinstance(node, Var):
            v = env[node.index - 1]
        elif isinstance(node, Neg):
            v = -value(node.operand)
        elif isinstance(node, Pow):
            base = value(node.base)
            try:
                v = base**node.exponent
            except (ZeroDivisionError, JetDomainError):
                raise ExprDomainError(
                    "zero base with negative exponent", node) from None
            except OverflowError:
                raise ExprDomainError("range overflow", node) from None
        elif isinstance(node, Call):
            v = _call_oracle(node, value(node.arg))
        else:
            lhs, rhs = value(node.lhs), value(node.rhs)
            if isinstance(node, Add):
                v = lhs + rhs
            elif isinstance(node, Sub):
                v = lhs - rhs
            elif isinstance(node, Mul):
                v = lhs * rhs
            else:
                try:
                    v = lhs / rhs
                except (ZeroDivisionError, JetDomainError):
                    raise ExprDomainError("division by zero", node) from None
        memo[node] = v
        return v

    return [value(ast.root) for ast in asts]


_NUM_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def tokenize_oracle(text: str):
    """Every token of text up front, as (kind, text, offset) triples
    ending in an END token; the first bad character raises."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUM_RE.match(text, i)
            if not m:
                raise ExprSyntaxError("malformed number", i)
            tokens.append(("NUM", m.group(), i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT_RE.match(text, i)
            if not m:
                # a non-ASCII letter
                raise ExprSyntaxError(f"unexpected character '{ch}'", i)
            tokens.append(("IDENT", m.group(), i))
            i = m.end()
            continue
        if ch == "$" and text[i + 1:i + 2].isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("REF", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(("OP", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(("LPAREN", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(("RPAREN", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character '{ch}'", i)
    tokens.append(("END", "", n))
    return tokens


class _EagerParser:
    """Recursive descent over the whole token list, every group parsed
    where it stands."""

    def __init__(self, tokens, dim, refs):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim
        self.refs = refs

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {what}", tok[2])
        return tok

    def parse(self):
        node = self.expression()
        tok = self.peek()
        if tok[0] != "END":
            raise ExprSyntaxError(f"unexpected token '{tok[1]}'", tok[2])
        return node

    def expression(self):
        node = self.term()
        while True:
            tok = self.peek()
            if tok[0] == "OP" and tok[1] in "+-":
                self.advance()
                rhs = self.term()
                node = (Add if tok[1] == "+" else Sub)(node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            tok = self.peek()
            if tok[0] == "OP" and tok[1] in "*/":
                self.advance()
                rhs = self.unary()
                node = (Mul if tok[1] == "*" else Div)(node, rhs)
            else:
                return node

    def unary(self):
        tok = self.peek()
        if tok[0] == "OP" and tok[1] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "OP" and self.peek()[1] == "^":
            self.advance()
            return Pow(base, self.exponent_chain())
        return base

    def exponent_chain(self) -> int:
        exps = [self.signed_int()]
        while self.peek()[0] == "OP" and self.peek()[1] == "^":
            self.advance()
            exps.append(self.signed_int())
        acc = exps[-1]
        for e in reversed(exps[:-1]):
            if acc < 0:
                raise ExprSyntaxError(
                    "negative exponent inside an exponent chain", self.peek()[2]
                )
            acc = e**acc
            if abs(acc) > _MAX_EXPONENT:
                raise ExprSyntaxError("exponent too large", self.peek()[2])
        return acc

    def signed_int(self) -> int:
        sign = 1
        tok = self.peek()
        if tok[0] == "OP" and tok[1] == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok[0] != "NUM":
            raise ExprSyntaxError("expected integer exponent", tok[2])
        self.advance()
        if any(c in tok[1] for c in ".eE"):
            raise ExprSyntaxError("exponent must be an integer literal", tok[2])
        val = sign * int(tok[1])
        if abs(val) > _MAX_EXPONENT:
            raise ExprSyntaxError("exponent too large", tok[2])
        return val

    def atom(self):
        tok = self.advance()
        if tok[0] == "NUM":
            return Const(float(tok[1]))
        if tok[0] == "REF":
            k = int(tok[1][1:])
            if k < len(self.refs):
                return self.refs[k]
            raise ExprSyntaxError(
                f"reference '{tok[1]}' names none of {len(self.refs)} defs",
                tok[2])
        if tok[0] == "IDENT":
            name, off = tok[1], tok[2]
            m = re.fullmatch(r"x(\d+)", name)
            if m:
                index = int(m.group(1))
                if not 1 <= index <= self.dim:
                    raise ExprIndexError(index, self.dim, off)
                return Var(index)
            if name in FUNCTIONS:
                self.expect("LPAREN", f"'(' after {name}")
                arg = self.expression()
                self.expect("RPAREN", "')'")
                return Call(name, arg)
            raise ExprNameError(name, off)
        if tok[0] == "LPAREN":
            node = self.expression()
            self.expect("RPAREN", "')'")
            return node
        raise ExprSyntaxError(f"unexpected token '{tok[1] or 'end of input'}'", tok[2])


def parse_expr_oracle(text: str, dim: int, refs=()) -> ExprAst:
    """parse_expr by tokenizing all of text first, one character at a
    time; nodes are interned as the package's are, and "$k" is refs[k]."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return ExprAst(_EagerParser(tokenize_oracle(text), dim, refs).parse(), dim)


_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}


def _prec(node) -> int:
    if isinstance(node, Const) and node.value < 0:
        return 0
    return _PREC.get(type(node), 9)


def print_node_oracle(node) -> str:
    """The DSL text of node, printing every occurrence of a shared node
    anew, as a tree walk does."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Neg):
        inner = print_node_oracle(node.operand)
        if _prec(node.operand) < _PREC[Neg]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Pow):
        base = print_node_oracle(node.base)
        if _prec(node.base) <= _PREC[Pow]:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.fn}({print_node_oracle(node.arg)})"
    if isinstance(node, (Add, Sub, Mul, Div)):
        op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(node)]
        prec = _PREC[type(node)]
        left = print_node_oracle(node.lhs)
        if _prec(node.lhs) < prec:
            left = f"({left})"
        right = print_node_oracle(node.rhs)
        if _prec(node.rhs) <= prec and isinstance(node.rhs, (Add, Sub, Mul, Div)):
            right = f"({right})"
        elif _prec(node.rhs) < prec:
            right = f"({right})"
        return f"{left} {op} {right}"
    raise TypeError(f"not an expression node: {node!r}")


def _strict(obj):
    """The report tree with each non-finite float written as the string
    "nan", "inf" or "-inf", so the JSON stays strict."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    return obj


def report_json(doc: ReportDocument, timings=True) -> str:
    """doc.to_json(timings) as json.dumps writes the document's tree
    once _strict has made it strict."""
    return json.dumps(_strict(doc._tree(timings)), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def rel_dev(a, b):
    """Largest absolute difference of a and b over max(1, |a|, |b|)."""
    if isinstance(a, float) and isinstance(b, float):
        a, b = float(a), float(b)
        return abs(a - b) / max(1.0, abs(a), abs(b))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def listed(v):
    return np.atleast_1d(np.asarray(v, dtype=float)).tolist()


def pair_rows_per_row(first, closed, generic):
    """workbench._pair_rows one direction at a time: a row per direction,
    holding its sample index (first, first + 1, ...), its closed and
    generic values and rel_dev, or the point's rows marked skipped where
    closed() raises HypothesisNotMetError."""
    rows = [{"sample": first + k} for k in range(len(generic))]
    try:
        values = closed()
    except HypothesisNotMetError as e:
        for row in rows:
            row["skipped"] = True
            row["reason"] = str(e)
        return rows
    for row, value, gen in zip(rows, values, generic):
        row["closed"] = listed(value) if np.ndim(value) else float(value)
        row["generic"] = listed(gen) if np.ndim(gen) else float(gen)
        row["rel_dev"] = rel_dev(value, gen)
    return rows


# -- the scenario schema ---------------------------------------------------


def schema_pointer(err):
    """The JSON pointer of a jsonschema error; a missing property is
    reported at its parent object, so its name is read off the message
    and appended."""
    parts = [str(p) for p in err.absolute_path]
    if err.validator == "required":
        m = re.search(r"'([^']+)'", err.message)
        if m:
            parts.append(m.group(1))
    return "/" + "/".join(parts) if parts else "/"


def schema_fault_oracle(schema, doc):
    """(pointer, message) of the fault best_match picks among the errors
    Draft202012Validator finds in doc under schema, or None."""
    err = best_match(Draft202012Validator(schema).iter_errors(doc))
    return None if err is None else (schema_pointer(err), err.message)
