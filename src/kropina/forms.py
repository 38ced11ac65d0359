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
suite, never trusted on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .expr import (
    ExprAst,
    ExprError,
    as_ast,
    e_add,
    e_call,
    e_const,
    e_div,
    e_mul,
    e_neg,
    e_pow,
    eval_expr,
    parse_expr,
)
from .generic import ConicDomainError, FinslerEvaluator
from .jets import Jet, JetDomainError, graded_solve
from .riemann import (
    FieldPoint,
    MetricPoint,
    RiemannianMetric,
    _extract,
    eval_component_jets,
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
    acc = None
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = e_mul(rows[0][j], _det_node(minor))
        if j % 2 == 1:
            term = e_neg(term)
        acc = term if acc is None else e_add(acc, term)
    return acc


def _inverse_nodes(rows):
    """Adjugate inverse of a grid of AST nodes; returns (inv, det)."""
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
    return inv, det


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
            h_val, w_val = _values(x, h, w)
            _require_unit_wind(float(w_val @ h_val @ w_val),
                               f"at sample point {k}")
        g = _coerce_scalar(2.0 if gauge is None else gauge, n, "gauge")
        quarter = e_div(e_pow(g.root, 2), e_const(4.0))
        half = e_div(e_pow(g.root, 2), e_const(2.0))
        a_rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                node = e_mul(quarter, h.exprs[i][j].root)
                a_rows[i][j] = a_rows[j][i] = as_ast(node, n)
        b_low = []
        for i in range(n):
            acc = None
            for j in range(n):
                t = e_mul(h.exprs[i][j].root, w[j].root)
                acc = t if acc is None else e_add(acc, t)
            b_low.append(as_ast(e_mul(half, acc), n))
        b_up = tuple(as_ast(e_mul(e_const(2.0), wi.root), n) for wi in w)
        rho = as_ast(e_call("ln", e_div(e_const(2.0), g.root)), n)
        return cls(
            dim=n,
            a=RiemannianMetric(n, tuple(tuple(row) for row in a_rows)),
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
        inv, _ = _inverse_nodes(rows)
        b_up = []
        for i in range(n):
            acc = None
            for j in range(n):
                t = e_mul(inv[i][j], b[j].root)
                acc = t if acc is None else e_add(acc, t)
            b_up.append(acc)
        b2 = None
        for i in range(n):
            t = e_mul(b[i].root, b_up[i])
            b2 = t if b2 is None else e_add(b2, t)
        gauge = e_call("sqrt", b2)
        rho = e_call("ln", e_div(e_const(2.0), gauge))
        scale = e_div(e_const(4.0), b2)
        h_rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                node = e_mul(scale, a.exprs[i][j].root)
                h_rows[i][j] = h_rows[j][i] = as_ast(node, n)
        w = tuple(as_ast(e_mul(e_const(0.5), bu), n) for bu in b_up)
        return cls(
            dim=n,
            a=a,
            b=b,
            b_up=tuple(as_ast(bu, n) for bu in b_up),
            h=RiemannianMetric(n, tuple(tuple(row) for row in h_rows)),
            w=w,
            gauge=as_ast(gauge, n),
            rho=as_ast(rho, n),
            weight=_coerce_scalar(weight, n, "weight"),
            name=name,
        )


def _values(x, *parts):
    """Float values at the chart point x of each part, from one
    evaluation: a metric gives its component matrix, a sequence of
    expressions its vector."""
    flat, shapes = [], []
    for part in parts:
        if isinstance(part, RiemannianMetric):
            flat += [e for row in part.exprs for e in row]
            shapes.append((part.dim, part.dim))
        else:
            flat += part
            shapes.append((len(part),))
    vals = np.array(eval_expr(flat, [float(v) for v in x]), dtype=float)
    out, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(vals[at:at + size].reshape(shape))
        at += size
    return out


def _require_unit_wind(norm2, where):
    """The h-unit wind check: raise ValueError unless ||W||_h^2 = norm2
    is 1 to 1e-8; where names the point in the message."""
    if abs(norm2 - 1.0) > 1e-8:
        raise ValueError(
            f"wind field is not h-unit {where}: ||W||_h^2 = {norm2:.12g}"
        )


# -- conversions --------------------------------------------------------------


def nav_to_ab(h, w, gauge=None):
    """(alpha, beta) data for navigation input, in the requested gauge.

    Returns (a, b): the view metric and the drift 1-form components.
    gauge defaults to the constant 2.
    """
    space = KropinaSpace.from_nav(h, w, gauge=gauge)
    return space.a, space.b


# -- pointwise field bundle ----------------------------------------------------


class AbFields(FieldPoint):
    """All x-level tensors of the (alpha, beta) view at one chart point:
    the FieldPoint of the raised drift b^i over a_ij, so r, s and their
    contractions are the drift's.

    Derivative conventions: cov1[i, k] = b_{i;k} and cov2[k, i, j] =
    b_{k;i;j} with the Levi-Civita connection of a_ij; dr[i, j, k] =
    r_{ij;k} and dsv[j, k] = s_{j;k} differentiate the full tensors
    (the contracted forms s_j = b^i s_ij pick up a b^i_{;k} term).
    """

    def __init__(self, space: KropinaSpace, x):
        self.space = space
        self.x = np.asarray(x, dtype=float)
        self.n = n = space.dim
        x = list(self.x)
        # one evaluation for a_ij and b^i, whose adjugate trees hold the
        # a_ij nodes, so each shared node runs once per bundle
        try:
            jets = eval_component_jets(
                [e for row in space.a.exprs for e in row] + list(space.b_up),
                x, 2)
        except ExprError:
            # a metric that is not positive definite is reported first
            MetricPoint.from_exprs(space.a, x, order=2)
            raise
        rows = [jets[i * n:(i + 1) * n] for i in range(n)]
        super().__init__(MetricPoint(*_extract(rows, n, 2)),
                         *_extract(jets[n * n:], n, 2))
        self._invariants = {}

    def invariants(self, y) -> "AbInvariants":
        """The AbInvariants of direction y, built once per y."""
        y = np.array(y, dtype=float)
        key = y.tobytes()
        inv = self._invariants.get(key)
        if inv is None:
            inv = self._invariants[key] = AbInvariants(self, y)
        return inv

    @cached_property
    def ainv(self):
        return self.mp.ginv

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
        return self.ainv @ self.r

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
        return self.ainv @ self.cov1

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
        return np.einsum("kl,ljk->j", self.ainv, self.ds)

    @cached_property
    def div_s(self):
        """s^k_{;k} for the raised contracted vector s^k = a^{kj} s_j."""
        return float(np.einsum("kj,jk->", self.ainv, self.dsv))

    @cached_property
    def ric(self):
        return self.mp.ricci

    @cached_property
    def gamma(self):
        return self.mp.christoffel

    @cached_property
    def trace_r_up(self):
        return float(np.trace(self.r_up))

    @cached_property
    def eta(self):
        """Trace proxy tr(a^{-1} r)/n; equals the conformal factor when
        r_ij is proportional to a_ij, which is the only regime where the
        downstream formulas consume it."""
        return self.trace_r_up / self.n

    @cached_property
    def eta_grad(self):
        """eta_{;k} = a^{ij} r_{ij;k} / n, exact because eta is a scalar
        and a_ij is covariantly constant."""
        return np.einsum("ij,ijk->k", self.ainv, self.dr) / self.n

    @cached_property
    def _weight_jets(self):
        if self.space.weight is None:
            return np.zeros(self.n), np.zeros((self.n, self.n))
        jets = eval_component_jets(self.space.weight, list(self.x), 2)
        return _extract(jets, self.n, 2)[1:]

    @property
    def f_grad(self):
        return self._weight_jets[0]

    @property
    def f_hess(self):
        """Plain coordinate second partials of the weight, not covariant."""
        return self._weight_jets[1]

    @cached_property
    def weight_hess(self):
        """Covariant Hessian f_{i;j} of the weight against a_ij (zero
        without a weight)."""
        return self.mp.covariant_hessian(self.f_grad, self.f_hess)


def ab_fields(space: KropinaSpace, x) -> AbFields:
    """The drift bundle at x; every pointwise closed form reads one."""
    return AbFields(space, x)


class AbInvariants:
    """Scalar contractions of the drift derivatives at one (x, y).

    Tensor-level data stays on .fields; everything y-contracted is a
    plain float attribute here.  AbFields.invariants builds one per y.
    Notation: a trailing 0 is contraction with y, a ';' in the
    docstrings below marks the covariant derivative taken before that
    contraction.
    """

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
        self.s_i0 = f.s_up @ y              # s^i_0
        self.r_0i = f.r @ y                 # r_{0 i}
        self.r_scalar = f.r_scalar

        self.r00_0 = float(np.einsum("ijk,i,j,k->", f.dr, y, y, y))
        self.r00_b = float(np.einsum("ijk,i,j,k->", f.dr, y, y, f.bu))
        self.s0_0 = float(y @ f.dsv @ y)    # s_{0;0}
        self.s0_b = float(y @ f.dsv @ f.bu)  # b^k s_{0;k}
        self.r0_0 = float(y @ f.drv @ y)    # r_{0;0}
        self.div_s0 = float(f.div_s_up @ y)  # s^k_{0;k}
        self.div_s = f.div_s                 # s^k_{;k}

        self.sk_sk0 = float(f.s_vec @ self.s_i0)          # s_k s^k_0
        self.sksk = float(f.s_vec @ f.ainv @ f.s_vec)     # s^k s_k
        self.ss = float(np.einsum("ij,ji->", f.s_up, f.s_up))  # s^j_k s^k_j
        self.rk_sk0 = float(f.r_vec @ self.s_i0)          # r_k s^k_0
        self.r0k_sk = float(self.r_0i @ (f.ainv @ f.s_vec))  # r_{0k} s^k
        self.r0k_sk0 = float(self.r_0i @ self.s_i0)       # r_{0k} s^k_0

        self.f_0 = float(f.f_grad @ y)


# -- closed forms -------------------------------------------------------------
#
# Each closed form reads the drift bundle of one chart point, so a caller
# that visits many directions at x builds the bundle once.


def kropina_spray_closed(fields: AbFields, y) -> np.ndarray:
    """Geodesic coefficients G^i from the drift-derivative tensors."""
    f = fields
    y = np.asarray(y, dtype=float)
    a2 = float(y @ f.mp.g @ y)
    beta = float(f.bl @ y)
    if beta <= 0.0:
        raise ConicDomainError("beta must be positive in the conic domain")
    b2 = f.b2
    g_a = 0.5 * np.einsum("kij,i,j->k", f.gamma, y, y)
    s_i0 = f.s_up @ y
    s_0 = float(f.s_vec @ y)
    r_00 = float(y @ f.r @ y)
    correction = (
        -(a2 / (2.0 * beta)) * s_i0
        + ((a2 / beta) * s_0 + r_00) / (2.0 * b2) * f.bu
        - (s_0 + (beta / a2) * r_00) / b2 * y
    )
    return g_a + correction


def kropina_ricci_closed(fields: AbFields, y) -> float:
    """Ricci curvature as the base Ricci plus drift correction terms."""
    f = fields
    y = np.asarray(y, dtype=float)
    inv = f.invariants(y)
    n = f.n
    F = inv.F
    b2 = f.b2
    b4 = b2 * b2
    ric_a = float(y @ f.ric @ y)
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


def s_bh_closed(fields: AbFields, y) -> float:
    """S-curvature for the unit-ball volume normalisation."""
    inv = fields.invariants(y)
    return (fields.n + 1) / fields.b2 * (inv.r_0 - inv.r_00 / inv.F)


def s_closed(fields: AbFields, y) -> float:
    """S-curvature for the weighted density e^{-(n+1) f} sigma."""
    inv = fields.invariants(y)
    return s_bh_closed(fields, y) + (fields.n + 1) * inv.f_0


def s_dot_closed(fields: AbFields, y) -> float:
    """Horizontal derivative of the weighted S-curvature, per unit (n+1).

    Returns S-dot / (n+1); multiply by n+1 to compare with the generic
    pipeline's sdot value.
    """
    f = fields
    inv = f.invariants(y)
    b2 = f.b2
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
        -((a2 / beta) * inv.s_0 + inv.r_00) * inv.r_scalar
        + (2.0 * beta / a2) * inv.r_00 * (3.0 * inv.r_0 - inv.s_0)
        + 2.0 * inv.r_0 * (inv.s_0 - inv.r_0)
        - 4.0 * (beta / a2) ** 2 * inv.r_00 ** 2
    ) / b4
    return first + second + hess_f_closed(f, inv.y)


def hess_f_closed(fields: AbFields, y) -> float:
    """Geodesic Hessian form of the weight along the closed-form spray."""
    if fields.space.weight is None:
        return 0.0
    y = np.asarray(y, dtype=float)
    g = kropina_spray_closed(fields, y)
    return float(y @ fields.f_hess @ y - 2.0 * fields.f_grad @ g)


# -- isotropy decision ---------------------------------------------------------


@dataclass(frozen=True)
class IsotropyFit:
    """Least-squares fit of r_00 = eta * alpha^2 over a direction set."""

    eta: float
    residual: float     # rms of r_00(d) - eta alpha^2(d) over directions
    scale: float        # rms of r_00(d), the comparison magnitude
    isotropic: bool


def isotropy_fit(fields: AbFields, rel_tol=1e-8) -> IsotropyFit:
    """Decide numerically whether r_ij is proportional to a_ij at the
    bundle's chart point.

    Solves for the proportionality factor over n(n+1)/2 independent
    directions and reports the fit residual; isotropy holds when the
    residual is below rel_tol times the size of r itself.
    """
    f = fields
    n = f.n
    dirs = []
    for i in range(n):
        d = np.zeros(n)
        d[i] = 1.0
        dirs.append(d)
    for i in range(n):
        for j in range(i + 1, n):
            d = np.zeros(n)
            d[i] = d[j] = 1.0
            dirs.append(d)
    a_vals = np.array([d @ f.mp.g @ d for d in dirs])
    r_vals = np.array([d @ f.r @ d for d in dirs])
    scale = float(np.sqrt(np.mean(r_vals ** 2)))
    if scale < 1e-14 * max(1.0, float(np.sqrt(np.mean(a_vals ** 2)))):
        return IsotropyFit(0.0, 0.0, scale, True)
    eta, *_ = np.linalg.lstsq(a_vals[:, None], r_vals, rcond=None)
    eta = float(eta[0])
    residual = float(np.sqrt(np.mean((r_vals - eta * a_vals) ** 2)))
    return IsotropyFit(eta, residual, scale, residual <= rel_tol * scale)


# -- navigation-side curvature --------------------------------------------------


class NavPoint(FieldPoint):
    """The wind W over the metric h at one chart point: the navigation
    closed forms' pointwise data (metric to second order, wind to first,
    so .mp holds the curvature of h), with the FieldPoint's R_ij, S_ij
    and contractions and the Killing/S_j defects computed once for all
    directions."""

    @cached_property
    def killing_defects(self):
        """(scale, ||sym cov W||, ||S_j||), read by _nav_hypothesis."""
        return (max(1.0, float(np.linalg.norm(self.cov1))),
                float(np.linalg.norm(self.r)),
                float(np.linalg.norm(self.s_vec)))


def nav_point(h: RiemannianMetric, w, x) -> NavPoint:
    """The NavPoint of the wind W over the metric h at x."""
    w = _coerce_vector(w, h.dim, "wind")
    xs = [float(v) for v in x]
    mp = MetricPoint.from_exprs(h, xs, order=2)
    return NavPoint.from_exprs(mp, list(w), xs, order=1)


def _nav_frame(fp: NavPoint, y):
    """(y, W_0, F) at one direction; raises outside the conic domain."""
    y = np.asarray(y, dtype=float)
    w0 = float(fp.w_low @ y)
    if w0 <= 0.0:
        raise ConicDomainError("W_0 must be positive in the conic domain")
    h2 = float(y @ fp.mp.g @ y)
    if h2 <= 0.0:
        raise ValueError("y must be nonzero")
    return y, w0, h2 / (2.0 * w0)


def nav_spray(fp: NavPoint, y) -> np.ndarray:
    """Geodesic coefficients straight from navigation data.

    G^i = G^i_h - F S^i_0 - (R_00 + 2 F S_0) / (2F) (y^i - F W^i),
    with R and S the symmetrised and skew covariant derivatives of the
    lowered wind; fp is a nav_point.
    """
    y, _, F = _nav_frame(fp, y)
    g_h = 0.5 * np.einsum("kij,i,j->k", fp.mp.christoffel, y, y)
    s_i0 = fp.s_up @ y
    s_0 = float(fp.s_vec @ y)
    r_00 = float(y @ fp.r @ y)
    return g_h - F * s_i0 - (r_00 + 2.0 * F * s_0) / (2.0 * F) * (y - F * fp.w)


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


def nav_ricci_isotropic(fp: NavPoint, y, tol=1e-8) -> float:
    """Ricci curvature from navigation data, Killing wind only."""
    _nav_hypothesis(fp, tol)
    y, _, F = _nav_frame(fp, y)
    ric = fp.mp.ricci
    s_up = fp.s_up
    return float(
        y @ ric @ y
        - 2.0 * F * (y @ ric @ fp.w)
        - F * F * np.einsum("ij,ji->", s_up, s_up)
    )


# -- volume densities and evaluators --------------------------------------------


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


def sigma_bh(space: KropinaSpace, x) -> float:
    """Unit-ball volume density of the Kropina metric at x.

    The unit sublevel set {F < 1} is the ellipsoid |y - v|_a < b/2
    centred at v = a^{-1} b_low / 2, which integrates to the closed
    form (2/b)^n sqrt(det a); validated against Monte-Carlo estimates
    in the test suite.
    """
    return float(_sigma_bh_value(space, [float(v) for v in x]))


def bh_volume_density(space: KropinaSpace):
    """x -> sigma_BH(x), over float or jet entries."""
    return lambda xs: _sigma_bh_value(space, list(xs))


def volume_density(space: KropinaSpace):
    """The measure the S-curvature formulas refer to, as x -> sigma(x).

    Without a weight this is the unit-ball density; with a weight f it
    is e^{-(n+1) f} times that density.
    """
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


def finsler_evaluator(space: KropinaSpace) -> FinslerEvaluator:
    """Package the (alpha, beta) view of the space for the generic
    pipeline, F = a_ij y^i y^j / (b_i y^i).

    The x-stages evaluate each coefficient tree once per chart point;
    the direction stages then only combine those values with y.  The
    box hint brackets the unit-ball ellipsoid exactly.
    """
    n = space.dim
    quad = [e for row in space.a.exprs for e in row]

    def at(x):
        vals = eval_expr(quad + list(space.b), list(x))
        qv = [vals[i * n:(i + 1) * n] for i in range(n)]
        bv = vals[n * n:]
        return lambda y: _quadratic(qv, y) / _linear(bv, y)

    def domain_at(x):
        bv = eval_expr(list(space.b), list(x))
        return lambda y: _linear(bv, y) > 0

    def box_hint(x):
        a_val, b_val = _values(x, space.a, space.b)
        ainv = np.linalg.inv(a_val)
        centre = ainv @ b_val / 2.0
        b_norm = math.sqrt(float(b_val @ ainv @ b_val))
        half = 0.5 * b_norm * np.sqrt(np.diag(ainv))
        return centre - half, centre + half

    return FinslerEvaluator(
        dim=n,
        at=at,
        domain_at=domain_at,
        name=f"{space.name}:ab",
        box_hint=box_hint,
    )


def _linear(coeffs, y):
    """sum_i coeffs[i] * y[i], accumulated in index order."""
    acc = None
    for c, yi in zip(coeffs, y):
        t = c * yi
        acc = t if acc is None else acc + t
    return acc


def _quadratic(values, y):
    """sum_ij values[i][j] * y[i] * y[j], accumulated in index order."""
    n = len(values)
    acc = None
    for i in range(n):
        for j in range(n):
            t = values[i][j] * y[i] * y[j]
            acc = t if acc is None else acc + t
    return acc
