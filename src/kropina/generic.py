"""Generic Finsler pipeline: spray, curvature and S-curvature from F alone.

Everything here is computed straight from the defining equations via
truncated Taylor arithmetic over the 2n tangent-bundle variables
(x^1..x^n, y^1..y^n).  No structure of any particular metric class is
assumed, which is what makes this module usable as an independent
cross-check for closed-form implementations.

The curvature of the spray needs second derivatives of the geodesic
coefficients, which themselves hold second derivatives of F^2, so the
full pipeline works with jets of total order four.  Only F and F^2 are
Jet expressions.  Below them the pipeline works on stacked coefficient
arrays: the metric jets and the spray's right-hand side are gathers of
the F^2 jet, one graded_solve gives the spray and log det g, and the
Riemann curvature and S are array expressions over those.
"""
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .jets import Jet, JetDomainError, graded_solve, jet_space
from .riemann import SingularMetricError, _extract, eval_component_jets


class ConicDomainError(ValueError):
    """Raised when (x, y) lies outside the conic domain of the metric."""


@dataclass(frozen=True)
class FinslerEvaluator:
    """A Finsler metric F(x, y) usable over floats, jets and numpy arrays.

    at(x) returns y -> F(x, y) and domain_at(x) returns y -> True (or a
    boolean mask) exactly where F(x, y) is defined and positive, each
    with the work that depends on x alone done when it is called.  x and
    y are sequences of scalar-like entries: plain floats, Jet instances,
    or numpy arrays for vectorized sweeps.  box_hint(x) -> (lo, hi)
    optionally bounds the unit sublevel set {y : F(x, y) < 1} for
    Monte-Carlo volume estimation.  bh_density calls at(x) and
    domain_at(x) on numpy columns, so both stages must accept arrays.

    A coordinate volume density, as in dV = sigma(x) dx, is a plain
    function sigma(x) accepting floats and Jet instances.
    """

    dim: int
    at: Callable
    domain_at: Callable
    name: str = "finsler"
    box_hint: Optional[Callable] = None

    def __call__(self, x, y):
        return self.at(x)(y)


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
    s_bh: Optional[float] = None  # S against the unit-ball density, if given


def _check_domain(domain_at_x, y, name: str):
    """Raise ConicDomainError unless y lies in the conic domain, given
    the domain's x-stage y -> bool."""
    if not bool(domain_at_x(list(y))):
        raise ConicDomainError(
            f"(x, y) outside the conic domain of metric {name!r}"
        )


def _check_invertible(g: np.ndarray, what="fundamental tensor"):
    if not np.all(np.isfinite(g)):
        raise SingularMetricError(f"{what} has non-finite entries")
    if np.linalg.cond(g) > 1e13:
        raise SingularMetricError(f"{what} is numerically singular")


def _spray_system(f4: Jet, y, n: int):
    """(g, rhs): the metric jets g_ij = (1/2) [F^2]_{y^i y^j} and the
    spray's right-hand side [F^2]_{x^k y^l} y^k - [F^2]_{x^l}, as
    coefficient arrays over the 2n variables two orders below the F^2
    jet f4, so that g (4 G) = rhs.

    g, [F^2]_{x^k y^l} and [F^2]_{x^l} are each one gather from f4.  The
    products with the y seeds round as Jet's do, a value term plus a
    shift, and the sum over k runs in order, so rhs has the bits of the
    jet expression.
    """
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


def _riemann_from_spray(G: np.ndarray, y, n: int) -> np.ndarray:
    """R^i_k = 2 G^i_{x^k} - y^m G^i_{x^m y^k} + 2 G^m G^i_{y^m y^k}
    - G^i_{y^m} G^m_{y^k}, from the spray's (n, ncoef) coefficient array
    over the 2n variables, second partials gathered through the jet
    space's table."""
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


def _sigma_jet(sigma: Callable, x, n: int, order: int) -> Jet:
    """The density sigma as a jet of the given order over the 2n
    variables, from sigma called on the x seeds."""
    space = jet_space(2 * n, order)
    xj = [space.variable(i, x[i]) for i in range(n)]
    s = sigma(xj)
    if not isinstance(s, Jet):
        s = space.constant(float(s))
    return s


def _s_jet(tau: np.ndarray, G: np.ndarray, y, n: int) -> np.ndarray:
    """S = y^m tau_{x^m} - 2 G^m tau_{y^m} as a first-order coefficient
    array, from the order-2 arrays of tau and the spray.

    Each product rounds as Jet's does, a seed product as a value term
    plus a shift and G^m tau_{y^m} as the triple table's bincount, and
    the 2n terms are summed in the order of the jet expression.
    """
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


@dataclass(frozen=True)
class GenericPoint:
    """Everything the generic pipeline needs at one chart point x,
    whatever the direction: built by generic_point, read by
    curvature_sample."""

    F: FinslerEvaluator
    x: np.ndarray
    f_at: Callable           # y jets -> F(x, y), F.at of the order-4 x seeds
    domain: Callable         # float y -> in the conic domain, F.domain_at(x)
    log_sigma: Optional[Jet]     # ln sigma as an order-2 jet, None if sigma <= 0
    log_sigma_bh: Optional[Jet]  # likewise for the unit-ball density, if given
    weight_hess: Optional[np.ndarray]  # f_{x^i x^j}, if a weight is given
    weight_grad: Optional[np.ndarray]  # f_{x^i}, if a weight is given


def _log_density(sigma: Callable, x, n: int) -> Optional[Jet]:
    sj = _sigma_jet(sigma, x, n, 2)
    return sj.log() if sj.value > 0.0 else None


def generic_point(
    F: FinslerEvaluator, sigma: Callable, x, f=None, bh=None
) -> GenericPoint:
    """The x-only stage of the generic pipeline at the chart point x.

    Seeds the order-4 x jets and runs F's x-stage on them, takes the
    density's order-2 jet (and bh's, the unit-ball density, when
    given), the order-2 jet of the weight expression f for its Hessian
    form, and F's float domain stage, all once.  curvature_sample(point,
    y) then does only the work that depends on y.
    """
    n = F.dim
    space = jet_space(2 * n, 4)
    seeds = [space.variable(i, x[i]) for i in range(n)]
    weight_hess = weight_grad = None
    if f is not None:
        _, weight_grad, weight_hess = _extract(
            eval_component_jets(f, list(x), 2), n, 2)
    return GenericPoint(
        F=F,
        x=np.asarray(x, dtype=float),
        f_at=F.at(seeds),
        domain=F.domain_at(list(x)),
        log_sigma=_log_density(sigma, x, n),
        log_sigma_bh=None if bh is None else _log_density(bh, x, n),
        weight_hess=weight_hess,
        weight_grad=weight_grad,
    )


def _hess_form(point: GenericPoint, y, G) -> float:
    """f_{x^i x^j} y^i y^j - 2 f_{x^i} G^i for a given spray value G."""
    yv = np.asarray(y, dtype=float)
    return float(yv @ point.weight_hess @ yv
                 - 2.0 * np.dot(point.weight_grad, G))


def _tau(half_log_det: np.ndarray, log_sigma: Optional[Jet]) -> np.ndarray:
    """tau = ln(sqrt(det g_ij) / sigma) as an order-2 coefficient array."""
    if log_sigma is None:
        raise ValueError("volume density must be positive")
    return half_log_det - log_sigma.coef


def curvature_sample(point: GenericPoint, y) -> CurvatureSample:
    """Full curvature bundle at (x, y): the generic pipeline's one entry.

    One order-4 jet of F^2 feeds everything.  One graded solve of its
    metric jets (order 2) gives the spray and log det g, which feeds
    the distortion; the spray gives G, N and the Riemann curvature; the
    distortion and the same spray give S as a first-order jet, whose
    horizontal derivative is Sdot.  S, tau and Sdot refer to the
    point's density; s_bh is S from its own tau_BH = ln sqrt(det g) -
    ln sigma_BH when the point carries the unit-ball density, and hess_f
    the geodesic Hessian form of the point's weight.
    """
    F = point.F
    _check_domain(point.domain, y, F.name)
    n = F.dim
    space = jet_space(2 * n, 4)
    f = point.f_at([space.variable(n + k, y[k]) for k in range(n)])
    if not isinstance(f, Jet):
        f = space.constant(float(f))
    f4 = f * f
    gj, rhs = _spray_system(f4, y, n)
    g = gj[:, :, 0].copy()
    _check_invertible(g)
    try:
        w, log_det = graded_solve(jet_space(2 * n, 2), gj, rhs)
    except JetDomainError:
        raise SingularMetricError(
            "nonpositive fundamental determinant") from None
    G = w * 0.25
    Gv = G[:, 0].copy()
    N = G[:, 1 + n:1 + 2 * n].copy()
    R = _riemann_from_spray(G, y, n)
    half_log_det = log_det * 0.5
    tau = _tau(half_log_det, point.log_sigma)
    s_jet = _s_jet(tau, G, y, n)
    grad = s_jet[1:1 + 2 * n]
    sdot = float(np.dot(y, grad[:n]) - 2.0 * np.dot(Gv, grad[n:]))
    s_bh = None
    if point.log_sigma_bh is not None:
        tau_bh = _tau(half_log_det, point.log_sigma_bh)
        s_bh = float(_s_jet(tau_bh, G, y, n)[0])
    hess = _hess_form(point, y, Gv) if point.weight_hess is not None else None
    return CurvatureSample(
        x=point.x,
        y=np.asarray(y, dtype=float),
        g=g,
        spray=Gv,
        connection=N,
        riemann=R,
        ricci=float(np.trace(R)),
        tau=float(tau[0]),
        s=float(s_jet[0]),
        sdot=sdot,
        hess_f=hess,
        s_bh=s_bh,
    )


@dataclass(frozen=True)
class BHDensityEstimate:
    value: float            # Vol(B^n) / Vol{F < 1}
    stderr: float
    sublevel_volume: float
    samples: int
    hits: int


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
    f_at, in_domain = F.at(xs), F.domain_at(xs)
    r = 0.0
    for u in dirs:
        if not bool(in_domain(list(u))):
            continue
        val = f_at(list(u))
        val = val.value if isinstance(val, Jet) else float(val)
        if math.isfinite(val) and val > 0.0:
            r = max(r, 1.0 / val)
    if r == 0.0:
        raise ValueError("degenerate sublevel set: no admissible probe direction")
    r *= 2.0
    return -r * np.ones(n), r * np.ones(n)


def _indicator(F: FinslerEvaluator, xs, samples: np.ndarray) -> np.ndarray:
    """Boolean mask of rows with F(x, row) < 1, from one call of each of
    F's stages on the sample columns."""
    m = samples.shape[0]
    cols = [samples[:, i] for i in range(F.dim)]
    f_at, in_domain = F.at(xs), F.domain_at(xs)
    refusal = (f"metric {F.name!r}: bh_density needs domain and F stages "
               "that take numpy columns and return one value per row")
    try:
        with np.errstate(all="ignore"):
            mask = np.asarray(in_domain(cols))
            vals = np.asarray(f_at(cols), dtype=float)
    except (TypeError, ValueError) as e:
        raise TypeError(refusal) from e
    if mask.shape != (m,) or vals.shape != (m,):
        raise TypeError(refusal)
    return mask & np.isfinite(vals) & (vals > 0.0) & (vals < 1.0)


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
    return BHDensityEstimate(
        value=value,
        stderr=value * rel,
        sublevel_volume=sublevel,
        samples=mc_samples,
        hits=hits,
    )
