"""Generic Finsler pipeline: spray, curvature and S-curvature from F alone.

Everything here is computed straight from the defining equations via
truncated Taylor arithmetic over the 2n tangent-bundle variables
(x^1..x^n, y^1..y^n).  No structure of any particular metric class is
assumed, which is what makes this module usable as an independent
cross-check for closed-form implementations.

The curvature of the spray needs second derivatives of the geodesic
coefficients, which themselves hold second derivatives of F^2, so the
full pipeline works with jets of total order four.
"""
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expr import ExprAst, eval_expr
from .jets import Jet, JetDomainError, jet_det, jet_space, jet_solve
from .riemann import SingularMetricError

VOLUME_KINDS = ("Busemann-Hausdorff", "weighted", "custom")


class ConicDomainError(ValueError):
    """Raised when (x, y) lies outside the conic domain of the metric."""


@dataclass(frozen=True)
class FinslerEvaluator:
    """A Finsler metric F(x, y) usable over floats, jets and numpy arrays.

    func(x, y) evaluates F for sequences of scalar-like entries (plain
    floats, Jet instances, or numpy arrays for vectorized sweeps), and
    domain(x, y) must return True (or a boolean mask) exactly where F
    is defined and positive.  box_hint(x) -> (lo, hi) optionally bounds
    the unit sublevel set {y : F(x, y) < 1} for Monte-Carlo volume
    estimation, and bh_closed(x) optionally supplies a closed-form
    unit-ball density when one is known for the metric class.
    """

    dim: int
    func: Callable
    domain: Callable
    name: str = "finsler"
    box_hint: Optional[Callable] = None
    bh_closed: Optional[Callable] = None

    def __call__(self, x, y):
        return self.func(x, y)


@dataclass(frozen=True)
class VolumeDensity:
    """Coordinate volume density sigma(x), as in dV = sigma(x) dx.

    func(x) must accept floats and Jet instances.  kind records where
    the density came from; it has no effect on the numerics.
    """

    func: Callable
    kind: str = "custom"

    def __post_init__(self):
        if self.kind not in VOLUME_KINDS:
            raise ValueError(
                f"volume kind must be one of {VOLUME_KINDS}, got {self.kind!r}"
            )

    def __call__(self, x):
        return self.func(x)


@dataclass(frozen=True)
class CurvatureSample:
    """All pointwise curvature data of a metric at one (x, y)."""

    x: np.ndarray
    y: np.ndarray
    g: np.ndarray            # fundamental tensor g_ij
    spray: np.ndarray        # geodesic coefficients G^i
    connection: np.ndarray   # N^i_j = dG^i/dy^j
    riemann: np.ndarray      # R^i_k
    ricci: float
    tau: float               # distortion
    s: float                 # S-curvature
    sdot: float              # horizontal derivative of S
    hess_f: Optional[float]  # Hessian form of the weight function, if given


def _check_domain(F: FinslerEvaluator, x, y):
    ok = F.domain(list(x), list(y))
    if not bool(ok):
        raise ConicDomainError(
            f"(x, y) outside the conic domain of metric {F.name!r}"
        )


def _check_invertible(g: np.ndarray, what="fundamental tensor"):
    if not np.all(np.isfinite(g)):
        raise SingularMetricError(f"{what} has non-finite entries")
    if np.linalg.cond(g) > 1e13:
        raise SingularMetricError(f"{what} is numerically singular")


def _f2_jet(F: FinslerEvaluator, x, y, order: int) -> Jet:
    """F^2 as a jet in the 2n variables (x, y), seeded at the base point."""
    n = F.dim
    space = jet_space(2 * n, order)
    seeds = space.seed(list(x) + list(y))
    f = F.func(seeds[:n], seeds[n:])
    if not isinstance(f, Jet):
        f = space.constant(float(f))
    return f * f


def _unit2(n2: int, a: int, b: Optional[int] = None) -> tuple:
    idx = [0] * n2
    idx[a] += 1
    if b is not None:
        idx[b] += 1
    return tuple(idx)


def _metric_jets(f2: Jet, n: int):
    """g_ij = (1/2) [F^2]_{y^i y^j} as jets two orders below f2."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j < i:
                row.append(rows[j][i])
            else:
                row.append(f2.deriv(n + i).deriv(n + j) * 0.5)
        rows.append(row)
    return rows


def _spray_jets(F: FinslerEvaluator, y, f2: Jet):
    """G^i as jets over the 2n variables, two orders below f2."""
    n = F.dim
    order = f2.space.order - 2
    g = _metric_jets(f2, n)
    space_lo = jet_space(2 * n, order)
    yj = [space_lo.variable(n + k, y[k]) for k in range(n)]
    rhs = []
    for l in range(n):
        acc = space_lo.constant(0.0)
        for k in range(n):
            acc = acc + f2.deriv(k).deriv(n + l) * yj[k]
        rhs.append(acc - f2.deriv(l).truncate(order))
    try:
        w = jet_solve(g, rhs)
    except JetDomainError as e:
        raise SingularMetricError(str(e)) from e
    return [wi * 0.25 for wi in w]


def _riemann_from_spray_jets(Gj, y, n: int) -> np.ndarray:
    n2 = 2 * n
    Gv = np.array([G.value for G in Gj])
    dGx = np.empty((n, n))
    dGy = np.empty((n, n))
    d2xy = np.empty((n, n, n))
    d2yy = np.empty((n, n, n))
    for i in range(n):
        grad = Gj[i].gradient()
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


def _sigma_jet(sigma: VolumeDensity, x, n: int, order: int) -> Jet:
    space = jet_space(2 * n, order)
    xj = [space.variable(i, x[i]) for i in range(n)]
    s = sigma.func(xj)
    if not isinstance(s, Jet):
        s = space.constant(float(s))
    return s


def _tau_jet(F, sigma, x, f2: Jet) -> Jet:
    """tau = ln(sqrt(det g_ij) / sigma) as a jet two orders below f2."""
    n = F.dim
    order = f2.space.order - 2
    det = jet_det(_metric_jets(f2, n))
    if det.value <= 0.0:
        raise SingularMetricError("nonpositive fundamental determinant")
    sj = _sigma_jet(sigma, x, n, order)
    if sj.value <= 0.0:
        raise ValueError("volume density must be positive")
    return det.log() * 0.5 - sj.log()


def hess_form(f, x, y, G, n: int) -> float:
    """f_{x^i x^j} y^i y^j - 2 f_{x^i} G^i for a given spray value G."""
    space = jet_space(n, 2)
    seeds = space.seed(list(x))
    fj = eval_expr(f, seeds) if isinstance(f, ExprAst) else f(seeds)
    if not isinstance(fj, Jet):
        fj = space.constant(float(fj))
    acc = 0.0
    for i in range(n):
        for j in range(n):
            acc += fj.partial(_unit2(n, i, j)) * y[i] * y[j]
    return float(acc - 2.0 * np.dot(fj.gradient(), G))


def curvature_sample(
    F: FinslerEvaluator, sigma: VolumeDensity, x, y, f=None
) -> CurvatureSample:
    """Full curvature bundle at (x, y): the generic pipeline's one entry.

    One order-4 jet of F^2 feeds everything.  The spray jets (order 2)
    give G, N and the Riemann curvature; the distortion jet (order 2)
    and the same spray jets give S as a first-order jet, whose
    horizontal derivative is Sdot.  S, tau and Sdot refer to sigma;
    f, when given, adds the geodesic Hessian form of that weight.
    """
    _check_domain(F, x, y)
    n = F.dim
    f4 = _f2_jet(F, x, y, 4)
    g = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            g[i, j] = g[j, i] = 0.5 * f4.partial(_unit2(2 * n, n + i, n + j))
    _check_invertible(g)
    Gj = _spray_jets(F, y, f4)
    Gv = np.array([G.value for G in Gj])
    N = np.array([G.gradient()[n:] for G in Gj])
    R = _riemann_from_spray_jets(Gj, y, n)
    tau = _tau_jet(F, sigma, x, f4)
    # S = y^m tau_{x^m} - 2 G^m tau_{y^m}, kept as a first-order jet
    space1 = jet_space(2 * n, 1)
    s_jet = space1.constant(0.0)
    for m in range(n):
        ym = space1.variable(n + m, y[m])
        s_jet = (s_jet + ym * tau.deriv(m)
                 - Gj[m].truncate(1) * tau.deriv(n + m) * 2.0)
    grad = s_jet.gradient()
    sdot = float(np.dot(y, grad[:n]) - 2.0 * np.dot(Gv, grad[n:]))
    hess = hess_form(f, x, y, Gv, n) if f is not None else None
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
        hess_f=hess,
    )


@dataclass(frozen=True)
class BHDensityEstimate:
    value: float            # Vol(B^n) / Vol{F < 1}
    stderr: float
    sublevel_volume: float
    samples: int
    hits: int
    closed: Optional[float]  # closed-form density if the metric supplies one


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _probe_box(F: FinslerEvaluator, x, probes: int = 256):
    """Axis-aligned box containing {F(x, .) < 1}, found by radial probing.

    By 1-homogeneity the sublevel set is the radial graph t < 1/F(x, u),
    so its extent along any probed direction is exact; doubling the
    largest extent covers directions between probes for the smooth
    convex sublevel sets handled here.  The probe directions come from
    a fixed-key generator so the box does not depend on the caller's
    Monte-Carlo seed.
    """
    n = F.dim
    rng = np.random.Generator(np.random.Philox(key=0x9E3779B9))
    dirs = rng.normal(size=(probes, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.vstack([dirs, np.eye(n), -np.eye(n)])
    xs = [float(v) for v in x]
    r = 0.0
    for u in dirs:
        if not bool(F.domain(xs, list(u))):
            continue
        val = F.func(xs, list(u))
        val = val.value if isinstance(val, Jet) else float(val)
        if math.isfinite(val) and val > 0.0:
            r = max(r, 1.0 / val)
    if r == 0.0:
        raise ValueError("degenerate sublevel set: no admissible probe direction")
    r *= 2.0
    return -r * np.ones(n), r * np.ones(n)


def _indicator(F: FinslerEvaluator, xs, samples: np.ndarray) -> np.ndarray:
    """Boolean mask of rows with F(x, row) < 1, vectorized when possible."""
    m = samples.shape[0]
    cols = [samples[:, i] for i in range(F.dim)]
    try:
        with np.errstate(all="ignore"):
            mask = np.asarray(F.domain(xs, cols))
            if mask.shape != (m,):
                raise TypeError("domain predicate is not vectorized")
            vals = np.asarray(F.func(xs, cols), dtype=float)
        return mask & np.isfinite(vals) & (vals > 0.0) & (vals < 1.0)
    except (TypeError, ValueError, AttributeError):
        out = np.zeros(m, dtype=bool)
        for k in range(m):
            row = list(samples[k])
            try:
                if not bool(F.domain(xs, row)):
                    continue
                v = float(F.func(xs, row))
            except (ArithmeticError, ValueError):
                continue
            out[k] = math.isfinite(v) and 0.0 < v < 1.0
        return out


def bh_density(
    F: FinslerEvaluator, x, mc_samples: int = 200_000, seed: int = 0
) -> BHDensityEstimate:
    """Unit-ball volume density Vol(B^n)/Vol{y : F(x, y) < 1} by Monte Carlo."""
    if mc_samples < 1:
        raise ValueError("mc_samples must be positive")
    n = F.dim
    if F.box_hint is not None:
        lo, hi = F.box_hint(x)
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
    else:
        lo, hi = _probe_box(F, x)
    box_volume = float(np.prod(hi - lo))
    rng = np.random.Generator(np.random.Philox(key=seed))
    samples = lo + rng.random(size=(mc_samples, n)) * (hi - lo)
    xs = [float(v) for v in x]
    inside = _indicator(F, xs, samples)
    hits = int(inside.sum())
    if hits == 0:
        raise ValueError("degenerate sublevel set: no Monte-Carlo hits")
    p = hits / mc_samples
    sublevel = p * box_volume
    value = unit_ball_volume(n) / sublevel
    rel = math.sqrt(p * (1.0 - p) / mc_samples) / p
    closed = None
    if F.bh_closed is not None:
        closed = float(F.bh_closed(x))
    return BHDensityEstimate(
        value=value,
        stderr=value * rel,
        sublevel_volume=sublevel,
        samples=mc_samples,
        hits=hits,
        closed=closed,
    )
