"""Closed-form machinery for Kropina metrics F = alpha^2 / beta.

A Kropina structure on a chart carries two equivalent descriptions:

* the (alpha, beta) view: a Riemannian metric a_ij(x) and a 1-form
  b_i(x), with F = alpha^2 / beta on the half-space beta > 0;
* the navigation view: a Riemannian metric h_ij(x) and a unit vector
  field W^i(x) (the wind), with F = h^2 / (2 W_0).

The two are linked by a positive gauge scalar b(x) = ||beta||_alpha:
writing rho = ln(2/b), one has a_ij = e^{-2 rho} h_ij, b_i =
2 e^{-2 rho} W_i and b^2 = 4 e^{-2 rho}.  Any positive gauge gives the
same F, so every F-level quantity computed here must be (and is tested
to be) gauge independent.  The canonical gauge is the constant 2, which
makes rho = 0 and collapses the two views onto each other.

KropinaSpace stores both views as expression trees so that curvature
formulas can draw exact derivatives from the jet evaluator.  The
closed forms live alongside generic.py's pipeline on purpose: every
formula here is validated against that independent route in the test
suite, never trusted on its own.  finsler_stage hands that route F
alone: the (alpha, beta) view at one chart point, as a generic.XStage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Optional

import numpy as np

from .expr import (
    ExprAst,
    as_ast,
    e_add,
    e_call,
    e_const,
    e_div,
    e_mul,
    e_neg,
    e_pow,
    parse_expr,
)
from .generic import ConicDomainError, XStage
from .jets import Jet, JetDomainError, graded_solve, jet_space
from .riemann import (
    FieldPoint,
    MetricPoint,
    RiemannianMetric,
    _apply,
    _dot,
    _form,
    evaluate,
    require_positive_definite,
)


class GaugeError(ValueError):
    """The gauge scalar b(x) vanished or went negative on the chart."""


class HypothesisNotMetError(ValueError):
    """A formula's standing hypothesis failed at the requested point."""


# -- expression-level linear algebra -----------------------------------------


def _det_node(rows):
    """Determinant of a square grid of AST nodes, Laplace along row 0."""
    n = len(rows)
    if n == 1:
        return rows[0][0]

    def term(j):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        t = e_mul(rows[0][j], _det_node(minor))
        return e_neg(t) if j % 2 == 1 else t

    return reduce(e_add, (term(j) for j in range(n)))


def _inverse_nodes(rows):
    """Adjugate inverse of a grid of AST nodes."""
    n = len(rows)
    det = _det_node(rows)
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = _det_node(minor) if minor else e_const(1.0)
            if (i + j) % 2 == 1:
                cof = e_neg(cof)
            inv[j][i] = e_div(cof, det)
    return inv


def _coerce_scalar(expr, dim, what):
    if expr is None:
        return None
    if isinstance(expr, str):
        return parse_expr(expr, dim)
    if isinstance(expr, (int, float)):
        return as_ast(e_const(float(expr)), dim)
    if isinstance(expr, ExprAst):
        if expr.dim != dim:
            raise ValueError(f"{what} is declared over dimension {expr.dim}, "
                             f"expected {dim}")
        return expr
    raise TypeError(f"{what} must be an expression, string, or number")


def _coerce_vector(exprs, dim, what):
    out = []
    for k, e in enumerate(exprs):
        out.append(_coerce_scalar(e, dim, f"{what}[{k}]"))
    if len(out) != dim:
        raise ValueError(f"{what} must have {dim} components")
    return tuple(out)


# -- the space ---------------------------------------------------------------


@dataclass(frozen=True)
class KropinaSpace:
    """Both views of one Kropina metric, linked by a gauge scalar.

    Immutable after construction.  Use from_ab / from_nav, not the
    raw constructor, so the derived view and the gauge stay in sync.
    """

    dim: int
    a: RiemannianMetric       # (alpha, beta)-view metric a_ij
    b: tuple                  # drift 1-form b_i, ExprAst per component
    b_up: tuple               # raised drift b^i = a^{ij} b_j (equals 2 W^i)
    h: RiemannianMetric       # navigation metric h_ij
    w: tuple                  # wind W^i, ExprAst per component
    gauge: ExprAst            # b(x) = ||beta||_alpha
    rho: ExprAst              # ln(2 / b(x))
    weight: Optional[ExprAst] = None
    name: str = "kropina"

    @classmethod
    def from_nav(cls, h, w, gauge=None, weight=None, name="kropina",
                 check_at=None):
        """Build from navigation data (h, W) and an optional gauge.

        gauge defaults to the constant 2 (rho = 0, so a = h and
        b_i = 2 W_i).  check_at, when given, is a list of chart points
        where ||W||_h = 1 is verified to 1e-8 before accepting W.
        """
        n = h.dim
        w = _coerce_vector(w, n, "wind")
        for k, x in enumerate(check_at or ()):
            h_val, w_val = evaluate(x, h, w)
            _require_unit_wind(float(w_val @ h_val @ w_val),
                               f"at sample point {k}")
        g = _coerce_scalar(2.0 if gauge is None else gauge, n, "gauge")
        quarter = e_div(e_pow(g.root, 2), e_const(4.0))
        half = e_div(e_pow(g.root, 2), e_const(2.0))
        a_rows = tuple(tuple(as_ast(e_mul(quarter, e.root), n) for e in row)
                       for row in h.exprs)
        b_low = [as_ast(e_mul(half, reduce(e_add, (
            e_mul(h.exprs[i][j].root, w[j].root) for j in range(n)))), n)
            for i in range(n)]
        b_up = tuple(as_ast(e_mul(e_const(2.0), wi.root), n) for wi in w)
        rho = as_ast(e_call("ln", e_div(e_const(2.0), g.root)), n)
        return cls(
            dim=n,
            a=RiemannianMetric(n, a_rows),
            b=tuple(b_low),
            b_up=b_up,
            h=h,
            w=w,
            gauge=g,
            rho=rho,
            weight=_coerce_scalar(weight, n, "weight"),
            name=name,
        )

    @classmethod
    def from_ab(cls, a, b, weight=None, name="kropina"):
        """Build from the (alpha, beta) view; the gauge is ||beta||_alpha."""
        n = a.dim
        b = _coerce_vector(b, n, "drift form")
        rows = [[a.exprs[i][j].root for j in range(n)] for i in range(n)]
        inv = _inverse_nodes(rows)
        b_up = [reduce(e_add, (e_mul(inv[i][j], b[j].root) for j in range(n)))
                for i in range(n)]
        b2 = reduce(e_add, (e_mul(b[i].root, b_up[i]) for i in range(n)))
        gauge = e_call("sqrt", b2)
        rho = e_call("ln", e_div(e_const(2.0), gauge))
        scale = e_div(e_const(4.0), b2)
        h_rows = tuple(tuple(as_ast(e_mul(scale, e.root), n) for e in row)
                       for row in a.exprs)
        w = tuple(as_ast(e_mul(e_const(0.5), bu), n) for bu in b_up)
        return cls(
            dim=n,
            a=a,
            b=b,
            b_up=tuple(as_ast(bu, n) for bu in b_up),
            h=RiemannianMetric(n, h_rows),
            w=w,
            gauge=as_ast(gauge, n),
            rho=as_ast(rho, n),
            weight=_coerce_scalar(weight, n, "weight"),
            name=name,
        )


def _require_unit_wind(norm2, where):
    """The h-unit wind check: raise ValueError unless ||W||_h^2 = norm2
    is 1 to 1e-8; where names the point in the message."""
    if abs(norm2 - 1.0) > 1e-8:
        raise ValueError(
            f"wind field is not h-unit {where}: ||W||_h^2 = {norm2:.12g}"
        )


# -- pointwise field bundle ----------------------------------------------------


class AbFields(FieldPoint):
    """All x-level tensors of the (alpha, beta) view at one chart point:
    the FieldPoint of the raised drift b^i over a_ij, so r, s and their
    contractions are the drift's.

    Derivative conventions: cov1[i, k] = b_{i;k} and cov2[k, i, j] =
    b_{k;i;j} with the Levi-Civita connection of a_ij; dr[i, j, k] =
    r_{ij;k} and dsv[j, k] = s_{j;k} differentiate the full tensors
    (the contracted forms s_j = b^i s_ij pick up a b^i_{;k} term).
    f_grad and f_hess are the weight's plain coordinate first and
    second partials, not covariant ones (zero without a weight).
    """

    def __init__(self, space: KropinaSpace, mp: MetricPoint, b_up, weight):
        """The bundle from a chart point's arrays: mp holds a_ij to
        second order, b_up is the value, first and second partials of
        b^i, and weight the pair (f_grad, f_hess)."""
        self.space = space
        self.n = space.dim
        super().__init__(mp, *b_up)
        self.f_grad, self.f_hess = weight

    @cached_property
    def bl(self):
        """Drift form values b_i."""
        return self.w_low

    @cached_property
    def bu(self):
        """Raised drift values b^i."""
        return self.w

    @cached_property
    def b2(self):
        v = float(self.bl @ self.bu)
        if v <= 1e-300:
            raise GaugeError("drift form vanishes: b^2 = 0 at this point")
        return v

    @cached_property
    def r_up(self):
        return self.mp.ginv @ self.r

    @cached_property
    def dr(self):
        c2 = self.cov2
        return 0.5 * (c2 + c2.transpose(1, 0, 2))

    @cached_property
    def ds(self):
        c2 = self.cov2
        return 0.5 * (c2 - c2.transpose(1, 0, 2))

    @cached_property
    def dbu(self):
        """b^i_{;k}, raised with the (covariantly constant) metric."""
        return self.mp.ginv @ self.cov1

    @cached_property
    def dsv(self):
        """s_{j;k} for the contracted form s_j = b^i s_ij."""
        return np.einsum("ik,ij->jk", self.dbu, self.s) + np.einsum(
            "i,ijk->jk", self.bu, self.ds
        )

    @cached_property
    def drv(self):
        return np.einsum("ik,ij->jk", self.dbu, self.r) + np.einsum(
            "i,ijk->jk", self.bu, self.dr
        )

    @cached_property
    def div_s_up(self):
        """s^k_{j;k} as a covector in j."""
        return np.einsum("kl,ljk->j", self.mp.ginv, self.ds)

    @cached_property
    def div_s(self):
        """s^k_{;k} for the raised contracted vector s^k = a^{kj} s_j."""
        return float(np.einsum("kj,jk->", self.mp.ginv, self.dsv))

    @cached_property
    def sr(self):
        """s^j_k r^k_j."""
        return float(np.einsum("ij,ji->", self.s_up, self.r_up))

    @cached_property
    def trace_r_up(self):
        return float(np.trace(self.r_up))

    @cached_property
    def eta_grad(self):
        """eta_{;k} = a^{ij} r_{ij;k} / n for the trace proxy eta =
        tr(a^{-1} r) / n, exact because eta is a scalar and a_ij is
        covariantly constant."""
        return np.einsum("ij,ijk->k", self.mp.ginv, self.dr) / self.n

    @cached_property
    def weight_hess(self):
        """Covariant Hessian f_{i;j} of the weight against a_ij (zero
        without a weight)."""
        return self.mp.covariant_hessian(self.f_grad, self.f_hess)


class AbInvariants:
    """Scalar contractions of the drift derivatives at x and a block of
    directions y (..., n).

    Tensor-level data and the direction-free scalars (r_scalar, div_s,
    sksk, ss) stay on .fields; everything y-contracted is an attribute
    here with y's leading axes: one value per direction, or a float for
    a single direction y (n,), each with the bits of that direction
    alone.  Notation: a trailing 0 is contraction with y, a
    ';' in the comments below marks the covariant derivative taken
    before that contraction.
    """

    def __init__(self, fields: AbFields, y):
        f = fields
        y = np.asarray(y, dtype=float)
        self.fields = f
        self.y = y
        self.alpha2 = _form(y, f.mp.g, y)
        self.beta = _dot(f.bl, y)
        if np.any(self.beta <= 0.0):
            raise ConicDomainError(
                "beta(x, y) must be positive for Kropina contractions"
            )
        self.F = self.alpha2 / self.beta

        self.r_00 = _form(y, f.r, y)
        self.r_0 = _dot(f.r_vec, y)
        self.s_0 = _dot(f.s_vec, y)
        self.s_i0 = _apply(f.s_up, y)        # s^i_0
        self.r_0i = _apply(f.r, y)           # r_{0 i}

        self.r00_0 = np.einsum("ijk,...i,...j,...k->...", f.dr, y, y, y)
        self.r00_b = np.einsum("ijk,...i,...j,k->...", f.dr, y, y, f.bu)
        self.s0_0 = _form(y, f.dsv, y)       # s_{0;0}
        self.s0_b = _form(y, f.dsv, f.bu)    # b^k s_{0;k}
        self.r0_0 = _form(y, f.drv, y)       # r_{0;0}
        self.div_s0 = _dot(f.div_s_up, y)    # s^k_{0;k}

        self.sk_sk0 = _dot(f.s_vec, self.s_i0)            # s_k s^k_0
        self.rk_sk0 = _dot(f.r_vec, self.s_i0)            # r_k s^k_0
        self.r0k_sk = _dot(self.r_0i, f.mp.ginv @ f.s_vec)  # r_{0k} s^k
        self.r0k_sk0 = _dot(self.r_0i, self.s_i0)         # r_{0k} s^k_0

        self.f_0 = _dot(f.f_grad, y)


# -- closed forms -------------------------------------------------------------
#
# Each reads the AbInvariants of a chart point's directions and gives one
# value per direction.  np.float_power(v, 2) rounds as Python's v ** 2.


def kropina_spray_closed(inv: AbInvariants) -> np.ndarray:
    """Geodesic coefficients G^i from the drift-derivative tensors."""
    f = inv.fields
    y, a2, beta, b2 = inv.y, inv.alpha2, inv.beta, f.b2
    g_a = 0.5 * np.einsum("kij,...i,...j->...k", f.mp.christoffel, y, y)
    correction = (
        -(a2 / (2.0 * beta))[..., None] * inv.s_i0
        + (((a2 / beta) * inv.s_0 + inv.r_00) / (2.0 * b2))[..., None] * f.bu
        - ((inv.s_0 + (beta / a2) * inv.r_00) / b2)[..., None] * y
    )
    return g_a + correction


def kropina_ricci_closed(inv: AbInvariants):
    """Ricci curvature as the base Ricci plus drift correction terms."""
    f = inv.fields
    n = f.n
    F = inv.F
    b2 = f.b2
    b4 = b2 * b2
    ric_a = _form(inv.y, f.mp.ricci, inv.y)
    t = (
        3.0 * (n - 1) / (b4 * F * F) * np.float_power(inv.r_00, 2)
        + (n - 1) / (F * b4) * (
            2.0 * inv.r_00 * inv.s_0
            - 4.0 * inv.r_00 * inv.r_0
            - 4.0 * F * inv.r_0 * inv.s_0
            - F * np.float_power(inv.s_0, 2)
        )
        + (n - 1) / (b2 * F) * (
            inv.r00_0 + F * inv.s0_0 + F * F * inv.sk_sk0
        )
        + (np.float_power(inv.r_0 + inv.s_0, 2)
           - f.r_scalar * (inv.r_00 + F * inv.s_0)) / b4
        + (
            F * inv.s0_b + inv.r00_b
            - (inv.r0_0 + inv.s0_0)
            + (inv.r_00 + F * inv.s_0) * f.trace_r_up
            + 2.0 * n * inv.r0k_sk0
            - F * inv.rk_sk0
            - F * inv.r0k_sk
            - 0.5 * F * F * f.sksk
        ) / b2
        - F * inv.div_s0
        - 0.25 * F * F * f.ss
    )
    return ric_a + t


def s_bh_closed(inv: AbInvariants):
    """S-curvature for the unit-ball volume normalisation."""
    f = inv.fields
    return (f.n + 1) / f.b2 * (inv.r_0 - inv.r_00 / inv.F)


def s_closed(inv: AbInvariants):
    """S-curvature for the weighted density e^{-(n+1) f} sigma."""
    return s_bh_closed(inv) + (inv.fields.n + 1) * inv.f_0


def s_dot_closed(inv: AbInvariants):
    """Horizontal derivative of the weighted S-curvature, per unit (n+1).

    Returns S-dot / (n+1); multiply by n+1 to compare with the generic
    pipeline's sdot value.
    """
    b2 = inv.fields.b2
    b4 = b2 * b2
    a2 = inv.alpha2
    beta = inv.beta
    first = (
        inv.r0_0
        - (beta / a2) * inv.r00_0
        + (a2 / beta) * inv.rk_sk0
        - 2.0 * inv.r0k_sk0
    ) / b2
    second = (
        -((a2 / beta) * inv.s_0 + inv.r_00) * inv.fields.r_scalar
        + (2.0 * beta / a2) * inv.r_00 * (3.0 * inv.r_0 - inv.s_0)
        + 2.0 * inv.r_0 * (inv.s_0 - inv.r_0)
        - 4.0 * np.float_power(beta / a2, 2) * np.float_power(inv.r_00, 2)
    ) / b4
    return first + second + hess_f_closed(inv)


def hess_form(fields: AbFields, y, G):
    """f_{x^i x^j} y^i y^j - 2 f_{x^i} G^i, the geodesic Hessian form of
    the weight along a spray whose value at (x, y) is G, for directions
    y (..., n) and spray values G (..., n)."""
    y = np.asarray(y, dtype=float)
    return _form(y, fields.f_hess, y) - 2.0 * _dot(fields.f_grad, G)


def hess_f_closed(inv: AbInvariants):
    """Geodesic Hessian form of the weight along the closed-form spray."""
    if inv.fields.space.weight is None:
        return np.zeros(np.shape(inv.beta))
    return hess_form(inv.fields, inv.y, kropina_spray_closed(inv))


# -- isotropy decision ---------------------------------------------------------


@dataclass(frozen=True)
class IsotropyFit:
    """Least-squares fit of r_00 = eta * alpha^2 over a direction set."""

    eta: float
    residual: float     # rms of r_00(d) - eta alpha^2(d) over directions
    scale: float        # rms of r_00(d), the comparison magnitude


def isotropy_fit(fields: AbFields) -> IsotropyFit:
    """Fit r_ij as a multiple of a_ij at the bundle's chart point.

    Solves for the proportionality factor over n(n+1)/2 independent
    directions and reports the fit residual and the size of r itself,
    for the caller to judge.
    """
    f = fields
    n = f.n
    pairs = [(i, i) for i in range(n)] + [
        (i, j) for i in range(n) for j in range(i + 1, n)]
    dirs = np.zeros((len(pairs), n))
    for d, pair in zip(dirs, pairs):
        d[list(pair)] = 1.0
    a_vals = _form(dirs, f.mp.g, dirs)
    r_vals = _form(dirs, f.r, dirs)
    scale = float(np.sqrt(np.mean(r_vals ** 2)))
    if scale < 1e-14 * max(1.0, float(np.sqrt(np.mean(a_vals ** 2)))):
        return IsotropyFit(0.0, 0.0, scale)
    eta, *_ = np.linalg.lstsq(a_vals[:, None], r_vals, rcond=None)
    eta = float(eta[0])
    residual = float(np.sqrt(np.mean((r_vals - eta * a_vals) ** 2)))
    return IsotropyFit(eta, residual, scale)


# -- navigation-side curvature --------------------------------------------------


class NavPoint(FieldPoint):
    """The wind W over the metric h at one chart point: the navigation
    closed forms' pointwise data (the metric to second order, so .mp
    holds the curvature of h), with the FieldPoint's R_ij, S_ij and
    contractions and the Killing/S_j defects computed once for all
    directions."""

    @cached_property
    def killing_defects(self):
        """(scale, ||sym cov W||, ||S_j||), read by _nav_hypothesis."""
        return (max(1.0, float(np.linalg.norm(self.cov1))),
                float(np.linalg.norm(self.r)),
                float(np.linalg.norm(self.s_vec)))


def _nav_frame(fp: NavPoint, y):
    """(y, W_0, F) at the directions y (..., n); raises when one is
    outside the conic domain."""
    y = np.asarray(y, dtype=float)
    w0 = _dot(fp.w_low, y)
    if np.any(w0 <= 0.0):
        raise ConicDomainError("W_0 must be positive in the conic domain")
    h2 = _form(y, fp.mp.g, y)
    if np.any(h2 <= 0.0):
        raise ValueError("y must be nonzero")
    return y, w0, h2 / (2.0 * w0)


def nav_spray(fp: NavPoint, y) -> np.ndarray:
    """Geodesic coefficients straight from navigation data.

    G^i = G^i_h - F S^i_0 - (R_00 + 2 F S_0) / (2F) (y^i - F W^i),
    with R and S the symmetrised and skew covariant derivatives of the
    lowered wind; fp is a NavPoint (ChartPoint.nav), y (..., n).
    """
    y, _, F = _nav_frame(fp, y)
    g_h = 0.5 * np.einsum("kij,...i,...j->...k", fp.mp.christoffel, y, y)
    s_i0 = _apply(fp.s_up, y)
    s_0 = _dot(fp.s_vec, y)
    r_00 = _form(y, fp.r, y)
    F1 = F[..., None]
    return (g_h - F1 * s_i0
            - ((r_00 + 2.0 * F * s_0) / (2.0 * F))[..., None] * (y - F1 * fp.w))


def _nav_hypothesis(fp: NavPoint, tol: float):
    """Gate for the isotropic-drift curvature formulas.

    They are only valid when the wind is Killing (symmetrised covariant
    derivative zero) and the skew contraction S_j vanishes; refuse to
    evaluate otherwise rather than return an unproven number.
    """
    scale, r_norm, s_norm = fp.killing_defects
    if r_norm > tol * scale:
        raise HypothesisNotMetError(
            f"wind is not Killing here: ||sym cov W|| = {r_norm:.3e} "
            f"exceeds {tol:.1e} * {scale:.3g}"
        )
    if s_norm > tol * scale:
        raise HypothesisNotMetError(
            f"skew contraction S_j does not vanish: ||S_j|| = {s_norm:.3e}"
        )


# relative tolerance of the Killing and S_j gate of nav_ricci_isotropic
_KILLING_TOL = 1e-8


def nav_ricci_isotropic(fp: NavPoint, y):
    """Ricci curvature from navigation data, Killing wind only, at the
    directions y (..., n)."""
    _nav_hypothesis(fp, _KILLING_TOL)
    y, _, F = _nav_frame(fp, y)
    ric = fp.mp.ricci
    return _form(y, ric, y) - 2.0 * F * _form(y, ric, fp.w) - F * F * fp.ss


# -- volume densities and the Finsler stage ------------------------------------


def sigma_bh(space: KropinaSpace, x) -> float:
    """Unit-ball volume density of the Kropina metric at x.

    The unit sublevel set {F < 1} is the ellipsoid |y - v|_a < b/2
    centred at v = a^{-1} b_low / 2, which integrates to the closed
    form (2/b)^n sqrt(det a); verify holds it against
    generic.bh_density's sphere quadrature of F's unit ball.
    """
    a, b = evaluate(x, space.a, space.gauge)
    det, b = float(np.linalg.det(a)), float(b)
    if det <= 0.0 or b <= 0.0:
        raise GaugeError("degenerate view metric or gauge")
    return math.sqrt(det) * (2.0 / b) ** space.dim


def log_densities(a, b: Jet, f: Optional[Jet] = None):
    """(ln sigma, ln sigma_BH) as jets, row by row over a block of P
    chart points, from the coefficient arrays of the view metrics a_ij,
    (P, n, n, ncoef), and batches of P jets of the gauge b and weight f.

    sigma_BH = (2/b)^n sqrt(det a) is the unit-ball density, whose log
    det a comes from one graded solve, and sigma = e^{-(n+1) f} sigma_BH
    the density the S-curvature formulas refer to.  Without a weight
    the two are one density, and ln sigma_BH is None.  An overflow of
    e^{-(n+1) f} raises the JetDomainError of exp, naming that density.
    """
    n = a.shape[-2]
    sp = b.space
    try:
        _, log_det = graded_solve(sp, a)
    except JetDomainError:
        # an indefinite metric is reported as such, not as degenerate
        require_positive_definite(a[..., 0])
        raise GaugeError("degenerate view metric or gauge") from None
    if np.any(b.coef[..., 0] <= 0.0):
        raise GaugeError("degenerate view metric or gauge")
    bh = Jet(sp, log_det * 0.5).exp() * (b.reciprocal() * 2.0) ** n
    if f is None:
        return bh.log(), None
    try:
        density = (-float(n + 1) * f).exp()
    except JetDomainError as e:
        raise JetDomainError(
            f"{e} in the weight density e^{{-(n+1) f}}") from None
    return (density * bh).log(), bh.log()


def finsler_stage(space: KropinaSpace, x, order4=None) -> XStage:
    """The (alpha, beta) view of the space at the chart point x, F =
    a_ij y^i y^j / (b_i y^i), as the generic pipeline's stage.

    a_ij and b_i are evaluated once over the float x, as values, for f
    and domain; jets reads order4, their coefficient arrays (n, n, C)
    and (n, C) over the order-4 seeds of x, as the caller evaluated them
    (einstein._x_stage), so a stage made without them serves f and
    domain only.  Each function combines the arrays with a (D, n) block
    of directions in a few numpy calls, each row with the bits of the
    loop a_ij y^i y^j and b_i y^i over the same values and Jet
    operations (see _seed_quadratic); jets divides the two forms' jets
    once per call, F's jets for the generic route's row block.
    """
    n = space.dim
    # floats first: a jet chart point raises TypeError here
    x = [float(v) for v in x]
    a, b = evaluate(x, space.a, space.b)
    a, b = a[..., None], b[:, None]

    def f(ys):
        v = np.asarray(ys, dtype=float).T
        return (_quad0(a, v) / _lin0(b, v))[:, 0]

    def domain(ys):
        return _lin0(b, np.asarray(ys, dtype=float).T)[:, 0] > 0

    def jets(ys):
        blocks = _seed_blocks(n)
        v = np.asarray(ys, dtype=float).T
        return (Jet(blocks.space, _seed_quadratic(order4[0], v, blocks))
                / Jet(blocks.space, _seed_linear(order4[1], v, blocks))).coef

    return XStage(np.array(x), f, domain, jets, f"{space.name}:ab")


# -- the direction stage of F over stacked coefficients ----------------------


def _row_sum(terms):
    """terms (N, ...) summed over the first axis in row order, as a
    loop of additions would, flattened.  np.add.reduce adds the rows in
    order when they are C-contiguous with two or more entries each; a
    single column it sums pairwise, so that one is accumulated."""
    rows = np.ascontiguousarray(terms).reshape(len(terms), -1)
    if rows.shape[1] == 1:
        return np.add.accumulate(rows[:, 0])[-1:]
    return np.add.reduce(rows, axis=0)


def _quad0(a, v):
    """sum_ij a_ij y^i y^j over the arrays a (n, n, C) and the
    directions v (n, D), as (D, C): bit for bit the loop that adds
    (a_ij y^i) y^j in (i, j) order."""
    n, D = v.shape
    terms = a[:, :, None, :] * v[:, None, :, None]
    terms *= v[None, :, :, None]
    return _row_sum(terms.reshape(n * n, -1)).reshape(D, a.shape[-1])


def _lin0(b, v):
    """sum_i b_i y^i over b (n, C) and v (n, D), as _quad0 its quadratic
    form."""
    return _row_sum(b[:, None, :] * v[:, :, None]).reshape(v.shape[1],
                                                            b.shape[-1])


def _seed_quadratic(a, v, blocks):
    """The jets of sum_ij a_ij y^i y^j at the seeds of D directions, v
    (n, D), as (D, ncoef) coefficient arrays of blocks.space, from a
    (n, n, C), the a_ij as jets of the n chart variables: bit for bit
    the loop in blocks.space that adds (a_ij y^i) y^j in (i, j) order,
    the seed products rounding as Jet's do, up to the sign of zero
    coefficients.

    Over seeds y^i = v_i + t_i, with the a_ij free of the t variables,
    the term (a_ij y^i) y^j holds (a v_i) v_j at each x-index alpha,
    a v_j at alpha + e_i, a v_i at alpha + e_j (2 a v_i when i = j) and
    a at alpha + e_i + e_j, up to the order; the blocks gather each
    kind and scatter the sums, each in the loop's order.  The last two
    kinds do not depend on the direction.
    """
    n, D = v.shape
    q0 = _quad0(a, v)
    a1 = a[:, :, :blocks.n1].reshape(n * n, -1)
    t1 = a1[blocks.lex_terms][:, :, None, :] * v[blocks.lex_other][..., None]
    t1[blocks.lex_diag, blocks.each] *= 2.0
    t1 = _row_sum(t1).reshape(n, D, -1).transpose(1, 0, 2).reshape(D, -1)
    a2 = a[:, :, :blocks.n2].reshape(n * n, -1)
    fixed = np.concatenate(((a2[blocks.pair_kl] + a2[blocks.pair_lk]).ravel(),
                            a2[blocks.diag].ravel()))
    q = np.zeros((D, blocks.space.ncoef))
    q[:, blocks.q_targets] = np.concatenate(
        (q0, t1, np.broadcast_to(fixed, (D, fixed.size))), axis=1)
    return q


def _seed_linear(b, v, blocks):
    """The jets of sum_i b_i y^i at the seeds of D directions, as
    _seed_quadratic its quadratic form: the term b_i y^i holds b v_i at
    alpha and b at alpha + e_i."""
    D = v.shape[1]
    l0 = _lin0(b, v)
    fixed = b[:, :blocks.n1].ravel()
    out = np.zeros((D, blocks.space.ncoef))
    out[:, blocks.l_targets] = np.concatenate(
        (l0, np.broadcast_to(fixed, (D, fixed.size))), axis=1)
    return out


class _SeedBlocks:
    """Gather and scatter tables of the forms for direction seeds on the
    last n variables of space, jet_space(2 n, 4).

    The jets of the n chart variables sit at the positions x of space
    free of the seed variables, in the same graded order, so that those
    of degree below the order (n1 of them) and below the order minus
    one (n2) are prefixes.  lex_terms[r, k] is the flat
    index i n + j of the r-th term (i, j) holding k in (i, j) order,
    lex_other[r, k] the index of its v factor, lex_diag[k] the row of
    (k, k); pair_kl, pair_lk and diag index the terms of e_k + e_l, k
    < l, and of 2 e_k.  q_targets and l_targets are where the
    quadratic and the linear form put their gathered sums.
    """

    def __init__(self, n):
        self.space = space = jet_space(2 * n, 4)
        idx = np.array(space.indices).reshape(space.ncoef, -1)
        x = np.flatnonzero(idx[:, n:].sum(axis=1) == 0)
        deg = idx[x].sum(axis=1)
        self.n1 = int(np.count_nonzero(deg < space.order))
        self.n2 = int(np.count_nonzero(deg < space.order - 1))
        src = space._deriv_src[n:]
        terms = [[(i, k) for i in range(k)] + [(k, j) for j in range(n)]
                 + [(i, k) for i in range(k + 1, n)] for k in range(n)]
        self.lex_terms = np.array([[i * n + j for i, j in col]
                                   for col in terms]).T
        self.lex_other = np.array([[i + j - k for i, j in col]
                                   for k, col in enumerate(terms)]).T
        self.each = np.arange(n)
        self.lex_diag = 2 * self.each
        pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
        self.pair_kl = np.array([k * n + l for k, l in pairs], dtype=np.intp)
        self.pair_lk = np.array([l * n + k for k, l in pairs], dtype=np.intp)
        self.diag = self.each * (n + 1)
        x1, x2 = x[:self.n1], x[:self.n2]
        shifted = src[:, x1].ravel()
        self.l_targets = np.concatenate((x, shifted))
        self.q_targets = np.concatenate(
            (x, shifted)
            + tuple(src[l][src[k][x2]] for k, l in pairs)
            + tuple(src[k][src[k][x2]] for k in range(n)))


@lru_cache(maxsize=None)
def _seed_blocks(n) -> _SeedBlocks:
    return _SeedBlocks(n)
