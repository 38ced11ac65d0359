"""Weighted Ricci curvature family and the weakly-Einstein checkers.

The weighted Ricci curvature with weight constants (a, c) is

    ric_ac(y) = Ric(y) + a*Sdot(y) - c*S(y)^2,

with S and Sdot taken against the weighted volume density
e^{-(n+1) f} sigma_BH.  A Kropina metric is *weakly weighted Einstein*
when ric_ac = (n-1) (3 theta(y)/F + sigma) F^2 for a 1-form theta and a
scalar sigma on the chart.  The derived constants

    kappa = (n-1) - a(n+1),        nu = 3(n-1) - 4a(n+1) - c(n+1)^2

split the (a, c) plane into three regimes, each with its own closed
characterization; thm41_check/thm44_check cover nu != 0 (navigation and
metric-form views), thm51_check covers nu = 0, kappa != 0, and
thm61_check covers kappa = nu = 0.  Every "there exists a scalar /
1-form" clause in those characterizations is resolved by a least-squares
fit, and the einstein-residual-fitted condition judges the fitted pair
through the generic pipeline; verdicts derive from residuals and the
configured tolerance only.  The checkers read each sampled x through a
ChartPoint, and only chart_points builds them: the chart points of one
run share each pass of their x-stage (_x_stage), each makes its own
generic pass, and a run whose pass raises builds no point.
"""

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .expr import ExprError
from .forms import (
    AbFields,
    AbInvariants,
    KropinaSpace,
    NavPoint,
    _require_unit_wind,
    finsler_stage,
    isotropy_fit,
    kropina_ricci_closed,
    log_densities,
    s_closed,
    s_dot_closed,
)
from .generic import curvature_samples
from .jets import Jet, jet_space
from .riemann import (
    MetricPoint,
    NotPositiveDefiniteError,
    _dot,
    _form,
    evaluate,
    partials,
)


class DispatchError(ValueError):
    """A checker was invoked outside its (kappa, nu) regime."""


# The classification boundary is exact for rational weight constants;
# float inputs that merely round onto the boundary are snapped to it at
# this relative tolerance.
_REGIME_TOL = 1e-12


def pric_constants(n):
    """The (a, c) pair that collapses ric_ac to the projective Ricci
    curvature; kappa and nu both vanish exactly for it."""
    return Fraction(n - 1, n + 1), Fraction(-(n - 1), (n + 1) ** 2)


@dataclass(frozen=True)
class WeightConfig:
    """Weight constants (a, c) in dimension n.  The weight function f
    belongs to the space under test, not to the configuration.

    kappa and nu are recomputed on access (never stored), in exact
    rational arithmetic so the regime classification is stable; pass a
    and c as Fraction/int to keep boundary cases exact.
    """

    a: object
    c: object
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("weight config needs dimension n >= 2")

    @property
    def kappa_exact(self):
        return (self.n - 1) - Fraction(self.a) * (self.n + 1)

    @property
    def nu_exact(self):
        return (
            3 * (self.n - 1)
            - 4 * Fraction(self.a) * (self.n + 1)
            - Fraction(self.c) * (self.n + 1) ** 2
        )

    @property
    def kappa(self):
        return float(self.kappa_exact)

    @property
    def nu(self):
        return float(self.nu_exact)

    def _is_zero(self, exact):
        if exact == 0:
            return True
        scale = (
            3 * (self.n - 1)
            + 4 * abs(float(self.a)) * (self.n + 1)
            + abs(float(self.c)) * (self.n + 1) ** 2
        )
        return abs(float(exact)) <= _REGIME_TOL * max(1.0, scale)

    @property
    def regime(self):
        if not self._is_zero(self.nu_exact):
            return "nu!=0"
        if not self._is_zero(self.kappa_exact):
            return "nu=0,kappa!=0"
        return "nu=0,kappa=0"

    @property
    def checkers(self):
        """Checker ids applicable in this regime."""
        return {
            "nu!=0": ("41", "44"),
            "nu=0,kappa!=0": ("51",),
            "nu=0,kappa=0": ("61",),
        }[self.regime]


def weight_preset(name, n):
    """Resolve a named weight-constant preset to a WeightConfig.

    plain      a = 0, c = 0 (unweighted Ricci curvature)
    ricInf     a = 1, c = 0
    ricN:N     a = 1, c = 1/(N - n), for an integer N != n
    pric       the projective constants from pric_constants(n)
    """
    if name == "plain":
        a, c = Fraction(0), Fraction(0)
    elif name == "ricInf":
        a, c = Fraction(1), Fraction(0)
    elif name.startswith("ricN:"):
        raw = name.split(":", 1)[1]
        try:
            big_n = int(raw)
        except ValueError:
            raise ValueError(
                f"ricN preset needs an integer N, got {raw!r}") from None
        if big_n == n:
            raise ValueError(f"ricN preset needs N != n, got N = n = {n}")
        a, c = Fraction(1), Fraction(1, big_n - n)
    elif name == "pric":
        a, c = pric_constants(n)
    else:
        raise ValueError(f"unknown weight preset {name!r}")
    return WeightConfig(a, c, n)


# -- the curvature family ------------------------------------------------------
#
# These take the drift invariants of a chart point's directions
# (ChartPoint.inv) or its generic samples, one value per direction; the
# weight is the one of the bundle's space.


def _generic_ric_ac(sample, cfg: WeightConfig):
    """Ric + a*Sdot - c*S^2 from generic curvature samples."""
    a, c = float(cfg.a), float(cfg.c)
    val = sample.ricci
    if a != 0.0:
        val = val + a * sample.sdot
    if c != 0.0:
        val = val - c * np.float_power(sample.s, 2)
    return val


def ric_ac(inv: AbInvariants, cfg: WeightConfig):
    """Weighted Ricci curvature Ric + a*Sdot - c*S^2 at x and the
    directions of inv, from the drift-invariant closed forms;
    _generic_ric_ac is the generic pipeline's counterpart."""
    a, c = float(cfg.a), float(cfg.c)
    n = inv.fields.n
    val = kropina_ricci_closed(inv)
    if a != 0.0:
        val = val + a * (n + 1) * s_dot_closed(inv)
    if c != 0.0:
        val = val - c * np.float_power(s_closed(inv), 2)
    return val


# -- the Einstein ansatz and its fit -------------------------------------------


@dataclass(frozen=True)
class EinsteinAnsatz:
    """A candidate (theta, sigma) pair at one chart point."""

    theta: tuple
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))
        object.__setattr__(self, "sigma", float(self.sigma))

    def model(self, F, y):
        """The ansatz with the (n-1) prefactor split off:
        3 theta(y) F + sigma F^2, for directions y (..., n) and their
        F."""
        th = _dot(np.asarray(y, dtype=float), np.array(self.theta))
        return 3.0 * th * F + self.sigma * F * F


def fit_theta_sigma(inv: AbInvariants, cfg: WeightConfig):
    """Least-squares (theta_1..theta_n, sigma) minimizing the Einstein
    residual over the directions of inv (D, n) at its chart point.

    Needs at least n+2 admissible directions spanning the tangent
    space; a rank-deficient direction set raises ValueError.  The fit
    reports no residual of its own: the einstein-residual-fitted
    condition of each checker judges the fitted pair end to end.
    """
    n = inv.fields.n
    ys = inv.y
    if len(ys) < n + 2:
        raise ValueError(
            f"theta/sigma fit needs at least {n + 2} directions, "
            f"got {len(ys)}"
        )
    A = np.column_stack([3.0 * (n - 1) * inv.F * ys[:, i] for i in range(n)]
                        + [(n - 1) * np.float_power(inv.F, 2)])
    # lstsq's rank is matrix_rank's: the same SVD threshold, one SVD
    sol, _, rank, _ = np.linalg.lstsq(A, ric_ac(inv, cfg), rcond=None)
    if rank < n + 1:
        raise ValueError("direction set is rank-deficient for the theta/sigma fit")
    return EinsteinAnsatz(tuple(sol[:n]), float(sol[n]))


# -- pointwise tensor test ------------------------------------------------------


def tensor_einstein_check(T, h):
    """Proportionality test T = (n-1) mu h for a symmetric bilinear form,
    both given as value matrices.

    Returns (mu, residual) with mu = trace_h(T) / (n (n-1)) and the
    residual measured in the h-operator norm (largest absolute
    eigenvalue of the h-whitened deviation T - (n-1) mu h).
    """
    Tv = np.asarray(T, dtype=float)
    hv = np.asarray(h, dtype=float)
    n = hv.shape[0]
    try:
        L = np.linalg.cholesky(hv)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "tensor proportionality check needs a positive-definite metric"
        )
    mu = float(np.trace(np.linalg.solve(hv, Tv))) / (n * (n - 1))
    dev = Tv - (n - 1) * mu * hv
    Li = np.linalg.inv(L)
    white = Li @ dev @ Li.T
    resid = float(np.abs(np.linalg.eigvalsh(0.5 * (white + white.T))).max())
    return mu, resid


def _weighted_ricci(mp: MetricPoint, f, cfg: WeightConfig, fg, hf):
    n = mp.n
    a, c = float(cfg.a), float(cfg.c)
    T = mp.ricci.copy()
    if f is not None:
        T = T + a * (n + 1) * hf
        T = T - c * (n + 1) ** 2 * np.outer(fg, fg)
    return T


# -- polynomial divisibility ----------------------------------------------------


def _sym(t):
    """The average of t over every permutation of its axes."""
    perms = list(itertools.permutations(range(t.ndim)))
    return sum(t.transpose(p) for p in perms) / len(perms)


def poly_divisible_by_alpha2(coeffs, alpha):
    """Least-squares division of a homogeneous polynomial by the metric
    quadratic alpha^2.

    coeffs is the coefficient tensor of a polynomial of degree d = 2, 3
    or 4 (symmetrized here if it is not already); alpha is the metric as
    a value matrix.  The quotient is the symmetric (d-2)-tensor q whose
    product with alpha^2 fits best, over the basis of symmetric unit
    tensors: a scalar, covector or symmetric matrix according to the
    degree.  Returns (quotient, relative residual); the residual decides
    divisibility at the caller's tolerance.
    """
    a = np.asarray(alpha, dtype=float)
    C = np.asarray(coeffs, dtype=float)
    d, n = C.ndim, a.shape[0]
    if not 2 <= d <= 4:
        raise ValueError("divisibility test covers degrees 2, 3 and 4 only")
    C = _sym(C)
    basis = []
    for slots in itertools.combinations_with_replacement(range(n), d - 2):
        E = np.zeros((n,) * (d - 2))
        for p in itertools.permutations(slots):
            E[p] = 1.0
        basis.append(E)
    A = np.array([_sym(np.multiply.outer(E, a)).ravel() for E in basis]).T
    sol, *_ = np.linalg.lstsq(A, C.ravel(), rcond=None)
    fit = (A @ sol).reshape(C.shape)
    quotient = np.tensordot(sol, basis, axes=1)
    scale = max(1.0, float(np.abs(C).max()))
    resid = float(np.abs(fit - C).max()) / scale
    return (float(quotient) if d == 2 else quotient), resid


# -- reports --------------------------------------------------------------------


class _Residuals:
    """The residuals of each condition name, added as a float or a (D,)
    block at a time, judged once per name by conditions(), which gives
    each name's report entry {name, residual, tol, passed, kind, note}.

    A non-finite residual fails its condition: the first one is the
    worst value and the note names its row.  Rows count a name's
    residuals across its blocks in sampling order, one per chart point
    or one per (point, direction) pair, from 0.  The kind is the one of
    the name's first block.
    """

    def __init__(self, tol):
        self.tol = tol
        self._blocks = {}

    def add(self, name, residuals, kind="condition"):
        self._blocks.setdefault(name, (kind, []))[1].append(residuals)

    def conditions(self):
        out = []
        for name, (kind, blocks) in self._blocks.items():
            r = np.abs(np.hstack(blocks))
            worst, bad = float(r.max()), None
            if not math.isfinite(worst):  # the max of |r| is NaN or inf
                bad = np.flatnonzero(~np.isfinite(r))[0]
                worst = float(r[bad])
            out.append({
                "name": name,
                "residual": worst,
                "tol": self.tol,
                "passed": bool(bad is None and worst <= self.tol),
                "kind": kind,
                "note": "" if bad is None else f"non-finite residual at row {bad}",
            })
        return out


def _verdict(conditions):
    if any(c["kind"] == "precondition" and not c["passed"]
           for c in conditions):
        return "PRECONDITION"
    return "PASS" if all(c["passed"] for c in conditions) else "FAIL"


def _scaled_residual(value, *scales):
    """|value| over max(1, |scale|, ...), element by element; like
    Python's max from 1.0 on, np.fmax passes over a NaN scale."""
    s = 1.0
    for v in scales:
        s = np.fmax(s, np.abs(v))
    return np.abs(value) / s


# -- checkers -------------------------------------------------------------------
#
# A run samples its space at chart points; each ChartPoint builds the
# pointwise bundles read there once, so the checkers of one run, and
# verify, share them, and the points of a run share one x-stage.
# One function, _check, runs the loop the four regime theorems share: the
# dimension and regime gates, the closed-form and fitted (theta, sigma)
# pairs of each chart point, and the end-to-end Einstein residuals
# through the point's generic samples.  Each checker adds only its
# theorem's own conditions.


class ChartPoint:
    """One sampled chart point x of a space and its directions ys (D, n),
    with every pointwise bundle a run reads there.  chart_points hands
    each point its share of the run's x-stage: the trees of the order-2
    tree pass, which fld and nav read, the log densities (ln sigma,
    ln sigma_BH or None) as order-2 x-jets and the space's Finsler stage
    at x (stage: F, its domain and its jets); and the generic curvature
    samples of all directions ys, from the point's own pass.  The drift
    bundle fld, the navigation point nav (on fld's MetricPoint when a_ij
    is h_ij itself), the drift invariants inv (one batched pass over ys)
    and one least-squares (theta, sigma) fit per weight configuration
    are built on first read and cached; an error is not, so each read of
    a bundle at fault raises it.
    """

    def __init__(self, space: KropinaSpace, x, ys, trees, log_densities,
                 stage, samples):
        self.space = space
        self.n = space.dim
        self.x = x
        self.ys = ys
        self.trees = trees
        self.log_densities = log_densities
        self.stage = stage
        self.samples = samples
        self._fits = {}

    @cached_property
    def fld(self):
        a, b_up, h, w, gauge, *weight = self.trees
        sp = jet_space(self.n, 2)
        if weight:
            f = partials(weight[0], sp)[1:]
        else:
            f = np.zeros(self.n), np.zeros((self.n, self.n))
        return AbFields(self.space, MetricPoint(*partials(a, sp)),
                        partials(b_up, sp), f)

    @cached_property
    def nav(self):
        a, b_up, h, w, gauge, *weight = self.trees
        sp = jet_space(self.n, 2)
        mp = (self.fld.mp if self.space.h is self.space.a
              else MetricPoint(*partials(h, sp)))
        return NavPoint(mp, *partials(w, sp))

    @cached_property
    def inv(self):
        """The drift invariants of all directions ys."""
        return AbInvariants(self.fld, self.ys)

    def fitted(self, cfg: WeightConfig) -> EinsteinAnsatz:
        """The (theta, sigma) fit of cfg over ys, fitted once per cfg."""
        fit = self._fits.get(cfg)
        if fit is None:
            fit = self._fits[cfg] = fit_theta_sigma(self.inv, cfg)
        return fit


def _tree_pass(space, xs):
    """The arrays of a_ij, b^i, h_ij, W^i, the gauge and the weight (if
    any) over the order-2 seeds of a block of chart points xs, (P, n),
    each with a leading point axis.  Where a tree fails over the block,
    an indefinite metric at any of its points is reported first."""
    parts = (space.a, space.b_up, space.h, space.w, space.gauge) + (
        () if space.weight is None else (space.weight,))
    try:
        return evaluate(jet_space(space.dim, 2).seed(xs), *parts)
    except ExprError:
        for x in xs:
            MetricPoint.from_exprs(space.a, x, order=2)
        raise


def _x_stage(space: KropinaSpace, xs):
    """One (trees, log densities, stage) per chart point of the block
    xs, (P, n), each with the bits of its block of one, from three
    passes: the order-2 tree pass, one forms.log_densities call on its
    stacked arrays as they are, and one order-4 evaluation of a_ij and
    b_i, whose slices each point's finsler_stage takes for its jets."""
    trees = _tree_pass(space, xs)
    a, _, _, _, *scalars = trees
    sp = jet_space(space.dim, 2)
    log_sigma, log_bh = log_densities(a, *(Jet(sp, c) for c in scalars))
    a4, b4 = evaluate(jet_space(space.dim, 4).seed(xs), space.a, space.b)
    return [(point_trees,
             (Jet(sp, log_sigma.coef[k]),
              None if log_bh is None else Jet(sp, log_bh.coef[k])),
             finsler_stage(space, x, order4))
            for k, (x, point_trees, order4)
            in enumerate(zip(xs, zip(*trees), zip(a4, b4)))]


def chart_points(space: KropinaSpace, samples):
    """One ChartPoint per (x, directions) pair of samples, all of them
    one run, and the only builder of a ChartPoint: one _x_stage call
    over the block of its chart points, whose shares give each point the
    bits of its run of one, then one curvature_samples call per point,
    in plan order.  An error of any pass is the run's and propagates, so
    a run with a point at fault builds no point.  An empty plan is an
    empty run."""
    plan = [(np.asarray(x, dtype=float),
             np.array(ys, dtype=float).reshape(-1, space.dim))
            for x, ys in samples]
    if not plan:
        return []
    levels = _x_stage(space, [x for x, _ in plan])
    return [ChartPoint(space, x, ys, trees, dens, stage,
                       curvature_samples(stage, ys, *dens))
            for (x, ys), (trees, dens, stage) in zip(plan, levels)]


def _check(theorem, regime, conditions, points, cfg, tol):
    """Run one regime theorem over the chart points and return its
    report/2 check entry: {theorem, verdict, conditions, scalars,
    points, directions}.

    conditions(point, res, scal) adds the theorem's own conditions at
    one ChartPoint to res and appends its scalars to the lists of scal
    by name, and returns the closed-form EinsteinAnsatz.  The generic
    pipeline then judges that ansatz and the fitted one: the report's
    bottom line never reuses the closed formulas.
    """
    dims = sorted({pt.n for pt in points} - {cfg.n})
    if dims:
        raise ValueError(
            f"checker {theorem} got a weight config for n = {cfg.n} and "
            f"chart points of dimension {dims[0]}"
        )
    if cfg.regime != regime:
        raise DispatchError(
            f"checker {theorem} applies in regime {regime}, got {cfg.regime} "
            f"(kappa={cfg.kappa:.6g}, nu={cfg.nu:.6g})"
        )
    if not points:
        raise ValueError("checker needs at least one sample point")
    res = _Residuals(tol)
    scal = defaultdict(list)
    for pt in points:
        formula = conditions(pt, res, scal)
        fitted = pt.fitted(cfg)
        scal["sigma_formula"].append(formula.sigma)
        scal["sigma_fitted"].append(fitted.sigma)
        scal["theta_fitted"].append(list(fitted.theta))
        val = _generic_ric_ac(pt.samples, cfg)
        for label, ansatz in (("einstein-residual-formula", formula),
                              ("einstein-residual-fitted", fitted)):
            model = (cfg.n - 1) * ansatz.model(pt.inv.F, pt.ys)
            res.add(label, _scaled_residual(val - model, val, model))
    found = res.conditions()
    return {"theorem": theorem, "verdict": _verdict(found),
            "conditions": found, "scalars": dict(scal),
            "points": len(points),
            "directions": sum(len(pt.ys) for pt in points)}


def _isotropy(pt, name, res, scal):
    """The precondition r_00 = eta alpha^2, under the given condition
    name; returns eta."""
    fit = isotropy_fit(pt.fld)
    iso = fit.residual / max(1.0, fit.scale)
    res.add(name, iso, kind="precondition")
    scal["eta"].append(fit.eta)
    scal["isotropy_residual"].append(iso)
    return fit.eta


def _sigma_agreement(fld, fitted, res):
    """The sigma forced by the drift data alone,
    -(s^k s_k / 2 + b^2 s^j_k s^k_j / 4) / ((n - 1) b^2), against the
    fitted sigma; returns it."""
    sigma = -(0.5 * fld.sksk + 0.25 * fld.b2 * fld.ss) / ((fld.n - 1) * fld.b2)
    res.add("sigma-agreement", abs(sigma - fitted) / max(1.0, abs(fitted)))
    return sigma


def _reductions(pt, res, quad_dev, u, theta, lin_extra):
    """The quadratic and linear slots of the curvature polynomial in a
    nu = 0 regime.  quad_dev is the quadratic slot plus beta*zeta minus
    u alpha^2; the linear slot is the covector below plus the regime's
    own r-couplings lin_extra.  Both must vanish."""
    fld, n = pt.fld, pt.n
    b2 = fld.b2
    res.add("quadratic-reduction",
            float(np.abs(quad_dev).max())
            / max(1.0, b2**2 * float(np.abs(fld.mp.ricci).max()), abs(u)))
    lin = (
        u * fld.bl
        + b2 * (fld.dsv @ fld.bu)
        - b2**2 * fld.div_s_up
        + (n - 1) * b2 * np.einsum("k,kj->j", fld.s_vec, fld.s_up)
        - 3 * (n - 1) * b2**2 * theta
    ) + lin_extra
    res.add("linear-reduction",
            float(np.abs(lin).max())
            / max(1.0, abs(u) * float(np.abs(fld.bl).max()),
                  b2**2 * float(np.abs(fld.div_s_up).max())))


def thm41_check(points, cfg: WeightConfig, tol=1e-6):
    """Navigation-data checker for the nu != 0 regime.

    Reads the navigation view (h, W) of the space and its weight f.
    Conditions: the wind is Killing (symmetrized covariant derivative
    vanishes); the weighted Ricci bilinear form of (h, f) is
    proportional to h; the two closed expressions for sigma agree; the
    closed-form (theta, sigma) agrees with the least-squares fit; and
    the weakly-Einstein equation itself holds end-to-end through the
    generic pipeline, once with the closed-form pair and once with the
    fitted pair.  The fit and the end-to-end residuals are F-level, so
    the gauge of the space does not enter them.

    Raises DispatchError outside the regime and ValueError when the
    wind is not h-unit at a sample point.
    """
    n = cfg.n
    a, c = float(cfg.a), float(cfg.c)

    def conditions(pt, res, scal):
        fp = pt.nav
        mp = fp.mp
        norm2 = float(fp.w_low @ fp.w)
        scal["wind_norm_dev"].append(abs(norm2 - 1.0))
        _require_unit_wind(norm2, f"at {pt.x.tolist()}")
        cov_scale = max(1.0, float(np.abs(fp.cov1).max()))
        res.add("wind-killing", float(np.abs(fp.r).max()) / cov_scale)

        fg = pt.fld.f_grad
        hf = mp.covariant_hessian(fg, pt.fld.f_hess)
        mu, tres = tensor_einstein_check(
            _weighted_ricci(mp, pt.space.weight, cfg, fg, hf), mp.g)
        res.add("einstein-tensor", tres)
        scal["mu"].append(mu)

        ric_ww = float(fp.w @ mp.ricci @ fp.w)
        hess_ww = float(fp.w @ hf @ fp.w)
        f_w = float(fg @ fp.w)
        sigma_formula = mu - (
            ric_ww + fp.ss + a * (n + 1) * hess_ww - c * (n + 1) ** 2 * f_w**2
        ) / (n - 1)
        theta_formula = (
            2 * a * (n + 1) * (hf @ fp.w + np.einsum("p,pi->i", fg, fp.s_up))
            - 2 * c * (n + 1) ** 2 * fg * f_w
        ) / (3 * (n - 1))
        theta_w = float(theta_formula @ fp.w)
        sigma_proof = mu - 3 * theta_w - (
            ric_ww + fp.ss - a * (n + 1) * hess_ww + c * (n + 1) ** 2 * f_w**2
        ) / (n - 1)
        scal["sigma_proof"].append(sigma_proof)
        scal["theta_formula"].append(list(theta_formula))
        res.add("sigma-consistency",
                abs(sigma_formula - sigma_proof) / max(1.0, abs(sigma_formula)))

        fitted = pt.fitted(cfg)
        agree = max(
            abs(sigma_formula - fitted.sigma),
            float(np.abs(theta_formula - np.array(fitted.theta)).max()),
        )
        res.add("theta-sigma-fit-agreement", agree / max(1.0, abs(fitted.sigma)))
        return EinsteinAnsatz(tuple(theta_formula), sigma_formula)

    return _check("41", "nu!=0", conditions, points, cfg, tol)


def thm44_check(points, cfg: WeightConfig, tol=1e-6):
    """Metric-form checker for the nu != 0 regime.

    Precondition: the symmetrized drift derivative is conformal to the
    metric, r_00 = eta alpha^2 (isotropy fit).  Conditions: the
    quadratic curvature reduction, with lambda from its closed form;
    the odd-degree reduction; agreement of the drift-forced sigma with
    the fitted one; and the end-to-end Einstein equation through the
    generic pipeline.
    """
    n = cfg.n
    a = float(cfg.a)
    kappa, nu = cfg.kappa, cfg.nu

    def conditions(pt, res, scal):
        fld = pt.fld
        eta = _isotropy(pt, "isotropy", res, scal)
        b2 = fld.b2
        eta_k = fld.eta_grad
        theta = np.array(pt.fitted(cfg).theta)
        theta_b = float(theta @ fld.bu)
        lam = (
            -((n - 2) * eta**2 + float(fld.bu @ eta_k)) * b2
            + 3 * (n - 1) * b2 * theta_b
            + (n - 2) * fld.sksk
            - b2 * (fld.div_s + fld.ss)
        )
        scal["lambda"].append(lam)
        sigma_formula = _sigma_agreement(fld, pt.fitted(cfg).sigma, res)

        inv, ys = pt.inv, pt.ys
        ric_a = _form(ys, fld.mp.ricci, ys)
        hf_y = _form(ys, fld.weight_hess, ys)
        lhs = (
            ric_a * b2**2
            + (n - 2) * (
                b2 * (inv.s0_0 + _dot(eta_k, ys) * inv.beta)
                - 2 * eta * inv.beta * inv.s_0
                - np.float_power(inv.s_0, 2)
                - eta**2 * np.float_power(inv.beta, 2)
            )
            - (3 * kappa - nu - a * (n + 1)) * b2**2 * np.float_power(
                inv.f_0, 2)
            + (-kappa + n - 1) * b2**2 * hf_y
        )
        theta_y = _dot(theta, ys)
        odd = (
            inv.beta * (
                (n - 2) * fld.sksk + 3 * (n - 1) * b2 * theta_b
                - b2 * (fld.div_s + fld.ss)
            )
            + b2 * (
                (n - 3) * eta * inv.s_0
                + inv.s0_b
                - b2 * inv.div_s0
                + (n - 1) * inv.sk_sk0
                - 3 * (n - 1) * b2 * theta_y
            )
        )
        res.add("ricci-reduction", _scaled_residual(
            lhs - lam * inv.alpha2, ric_a * b2**2, lam * inv.alpha2))
        res.add("one-form-reduction", _scaled_residual(
            odd, inv.beta * b2 * (fld.div_s + fld.ss), b2 * inv.s0_b,
            b2**2 * inv.div_s0, 3 * (n - 1) * b2**2 * theta_y))
        return EinsteinAnsatz(tuple(theta), sigma_formula)

    return _check("44", "nu!=0", conditions, points, cfg, tol)


def _cubic_drift_tensor(fld, cfg):
    """Symmetric cubic slot of the curvature polynomial in the
    nu = 0, kappa != 0 regime; divisibility by alpha^2 defines zeta."""
    n = fld.n
    a = float(cfg.a)
    kappa = cfg.kappa
    t = kappa * (
        fld.b2 * _sym(fld.dr)
        + 2 * _sym(np.multiply.outer(fld.r, fld.r_vec))
        + 2 * _sym(np.multiply.outer(fld.r, fld.s_vec))
    )
    return t + 2 * (3 * kappa - a * (n + 1)) * fld.b2 * _sym(
        np.multiply.outer(fld.r, fld.f_grad))


def _quadratic_drift_tensor(fld, cfg, hess_a):
    """Symmetric quadratic slot of the curvature polynomial in the
    nu = 0, kappa != 0 regime."""
    n = fld.n
    a = float(cfg.a)
    kap = cfg.kappa
    b2 = fld.b2
    return (
        b2**2 * fld.mp.ricci
        + b2 * np.einsum("ijk,k->ij", fld.dr, fld.bu)
        + (n - 2) * b2 * _sym(fld.dsv)
        + b2 * fld.trace_r_up * fld.r
        - (n - 2) * np.outer(fld.s_vec, fld.s_vec)
        + (-kap + n - 2) * b2 * _sym(fld.drv)
        + (kap - n) * fld.r_scalar * fld.r
        + (-2 * kap + 4 - 2 * n) * _sym(np.outer(fld.r_vec, fld.s_vec))
        + 2 * (kap + 1) * b2 * _sym(fld.r @ fld.s_up)
        + (-2 * kap + 2 - n) * np.outer(fld.r_vec, fld.r_vec)
        + (-kap + n - 1) * b2**2 * hess_a
        - (3 * kap - a * (n + 1)) * (
            2 * b2 * _sym(np.outer(fld.r_vec, fld.f_grad))
            + b2**2 * np.outer(fld.f_grad, fld.f_grad)
        )
    )


def thm51_check(points, cfg: WeightConfig, tol=1e-6):
    """Checker for the nu = 0, kappa != 0 regime.

    The curvature polynomial splits by degree in y.  Precondition: the
    cubic slot is divisible by alpha^2, which defines the 1-form zeta.
    Conditions: the quadratic slot plus beta*zeta reduces to u alpha^2
    with u from its closed form; the linear slot vanishes; the
    drift-forced sigma agrees with the fit; and the Einstein equation
    holds end-to-end through the generic pipeline.
    """
    n = cfg.n
    kappa = cfg.kappa

    def conditions(pt, res, scal):
        fld = pt.fld
        b2 = fld.b2
        zeta, div_res = poly_divisible_by_alpha2(_cubic_drift_tensor(fld, cfg),
                                                 fld.mp.g)
        res.add("cubic-divisibility", div_res, kind="precondition")
        scal["zeta"].append(list(zeta))
        scal["divisibility_residual"].append(div_res)

        theta = np.array(pt.fitted(cfg).theta)
        theta_b = float(theta @ fld.bu)
        s_up_vec = fld.mp.ginv @ fld.s_vec
        u = (
            (n - kappa) * float(fld.r_vec @ s_up_vec)
            + (n - 2) * fld.sksk
            + 3 * (n - 1) * b2 * theta_b
            - b2 * (fld.div_s + fld.ss + fld.sr)
        )
        scal["u"].append(u)
        sigma_formula = _sigma_agreement(fld, pt.fitted(cfg).sigma, res)

        quad = _sym(np.outer(fld.bl, zeta)) \
            + _quadratic_drift_tensor(fld, cfg, fld.weight_hess)
        _reductions(pt, res, quad - u * fld.mp.g, u, theta, (
            (kappa - n) * fld.r_scalar * fld.s_vec
            + b2 * fld.trace_r_up * fld.s_vec
            + (n - kappa - 2) * b2 * np.einsum("k,kj->j", fld.r_vec, fld.s_up)
            - b2 * (fld.r @ s_up_vec)
        ))
        return EinsteinAnsatz(tuple(theta), sigma_formula)

    return _check("51", "nu=0,kappa!=0", conditions, points, cfg, tol)


def thm61_check(points, cfg: WeightConfig, tol=1e-6):
    """Checker for the projective regime (kappa = nu = 0).

    Precondition: the symmetrized drift derivative is conformal,
    r_00 = eta alpha^2.  Conditions: the cubic slot determines zeta
    (zero for a constant weight); the quadratic slot plus beta*zeta
    reduces with u from its closed form; the linear slot vanishes; the
    drift-forced sigma agrees with the fit; and the projective Ricci
    curvature satisfies the Einstein equation end-to-end through the
    generic pipeline.  pric_constants(n) gives the regime's (a, c).
    """
    n = cfg.n

    def conditions(pt, res, scal):
        fld = pt.fld
        eta = _isotropy(pt, "drift-isotropy", res, scal)
        b2 = fld.b2
        eta_k = fld.eta_grad
        fg = fld.f_grad

        zeta, div_res = poly_divisible_by_alpha2(
            -2 * (n - 1) * b2 * _sym(np.multiply.outer(fld.r, fg)), fld.mp.g)
        res.add("cubic-divisibility", div_res)
        scal["zeta"].append(list(zeta))

        theta = np.array(pt.fitted(cfg).theta)
        theta_b = float(theta @ fld.bu)
        u = ((n - 2) * fld.sksk + 3 * (n - 1) * b2 * theta_b
             - b2 * (fld.div_s + fld.ss))
        scal["u"].append(u)
        sigma_formula = _sigma_agreement(fld, pt.fitted(cfg).sigma, res)

        quad = (
            _sym(np.outer(fld.bl, zeta))
            + b2**2 * fld.mp.ricci
            + ((float(fld.bu @ eta_k) + (n - 2) * eta**2) * b2 - u) * fld.mp.g
            - (n - 2) * eta**2 * np.outer(fld.bl, fld.bl)
            + (n - 2) * b2 * _sym(np.outer(eta_k, fld.bl))
            - 2 * (n - 2) * eta * _sym(np.outer(fld.s_vec, fld.bl))
            + 2 * (n - 1) * b2 * eta * _sym(np.outer(fg, fld.bl))
            + (n - 2) * (b2 * _sym(fld.dsv) - np.outer(fld.s_vec, fld.s_vec))
            + (n - 1) * b2**2 * (fld.weight_hess + np.outer(fg, fg))
        )
        _reductions(pt, res, quad, u, theta, (n - 3) * b2 * eta * fld.s_vec)
        return EinsteinAnsatz(tuple(theta), sigma_formula)

    return _check("61", "nu=0,kappa=0", conditions, points, cfg, tol)
