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
Riemann curvature and S are array expressions over those, with a
leading axis for all the directions of a chart point at once (vector
forward mode; Griewank and Walther, Evaluating Derivatives, ch. 13).
"""
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .jets import Jet, JetDomainError, graded_solve, jet_space
from .riemann import SingularMetricError, _dot


class ConicDomainError(ValueError):
    """Raised when (x, y) lies outside the conic domain of the metric."""


@dataclass(frozen=True)
class FinslerEvaluator:
    """A Finsler metric F(x, y) usable over floats and numpy arrays, with
    a batched jet stage.

    at(x) returns y -> F(x, y) and domain_at(x) returns y -> True (or a
    boolean mask) exactly where F(x, y) is defined and positive, each
    with the work that depends on x alone done when it is called.  x is
    a sequence of floats, y one of floats or of numpy columns for
    vectorized sweeps.  box_hint(x) -> (lo, hi) optionally bounds the
    unit sublevel set {y : F(x, y) < 1} for Monte-Carlo volume
    estimation.  bh_density calls both direction stages on numpy
    columns, a block of rows at a time, and curvature_samples the
    domain's, so they must accept arrays.

    jets_at is the batched jet stage the generic pipeline needs:
    curvature_samples runs jets_at(x) on the order-4 coordinate seeds x
    of the chart variables, and its stage on a (D, n) block of
    directions ys, which returns the (D, ncoef) coefficient arrays of
    F's jets at the seeds of each row on the direction variables.

    The pipeline takes a coordinate volume density, as in dV = sigma(x)
    dx, as ln sigma: an order-2 jet over the n chart variables at the
    chart point (see curvature_samples).
    """

    dim: int
    at: Callable
    domain_at: Callable
    name: str = "finsler"
    box_hint: Optional[Callable] = None
    jets_at: Optional[Callable] = None

    def __call__(self, x, y):
        return self.at(x)(y)


@dataclass(frozen=True)
class CurvatureSample:
    """All pointwise curvature data of a metric at one chart point x and
    a block of D directions y, each field with a leading direction
    axis: row k belongs to (x, y[k])."""

    x: np.ndarray            # (n,)
    y: np.ndarray            # (D, n)
    g: np.ndarray            # (D, n, n) fundamental tensor g_ij
    spray: np.ndarray        # (D, n) geodesic coefficients G^i
    connection: np.ndarray   # (D, n, n) N^i_j = dG^i/dy^j
    riemann: np.ndarray      # (D, n, n) R^i_k
    ricci: np.ndarray        # (D,)
    tau: np.ndarray          # (D,) distortion
    s: np.ndarray            # (D,) S-curvature
    sdot: np.ndarray         # (D,) horizontal derivative of S
    s_bh: np.ndarray         # (D,) S against the unit-ball density


def _check_invertible(g: np.ndarray, what="fundamental tensor"):
    """Raise SingularMetricError unless each symmetric matrix of g
    (..., n, n) is finite with a 2-norm condition number of at most
    1e13: max|lambda| / min|lambda| over its eigenvalues, the singular
    values of a symmetric matrix."""
    if not np.isfinite(g).all():
        raise SingularMetricError(f"{what} has non-finite entries")
    mags = np.abs(np.linalg.eigvalsh(g))
    low, high = mags.min(axis=-1), mags.max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        if not np.all(low > 0.0) or np.any(high / low > 1e13):
            raise SingularMetricError(f"{what} is numerically singular")


def _spray_system(f4: np.ndarray, ys: np.ndarray, n: int):
    """(g, rhs): the metric jets g_ij = (1/2) [F^2]_{y^i y^j} and the
    spray's right-hand side [F^2]_{x^k y^l} y^k - [F^2]_{x^l}, as
    coefficient arrays over the 2n variables two orders below the
    order-4 F^2 jets f4 (D, ncoef) at the directions ys (D, n), so
    that g (4 G) = rhs.

    g, [F^2]_{x^k y^l} and [F^2]_{x^l} are each one gather from f4.  The
    products with the y seeds round as Jet's do, a value term plus a
    shift, and the sum over k runs in order, so rhs has the bits of the
    jet expression.
    """
    space = jet_space(2 * n, 4)
    lo = jet_space(2 * n, 2)
    src, scale1, scale2 = space.second_partials
    d2 = f4[:, src[:, n:]] * scale1[:, n:] * scale2[:, n:]
    dxy = d2[:, :n]
    c1 = lo._deriv_src.shape[1]
    terms = dxy * ys[:, :, None, None] + 0.0
    terms[:, np.arange(n)[:, None, None], np.arange(n)[None, :, None],
          lo._deriv_src[n:, None, :]] += dxy[..., :c1]
    dx = f4[:, space._deriv_src[:n, :lo.ncoef]] * space._deriv_scale[
        :n, :lo.ncoef]
    return d2[:, n:] * 0.5, np.add.reduce(terms, axis=1) - dx


def _riemann_from_spray(G: np.ndarray, y, n: int) -> np.ndarray:
    """R^i_k = 2 G^i_{x^k} - y^m G^i_{x^m y^k} + 2 G^m G^i_{y^m y^k}
    - G^i_{y^m} G^m_{y^k}, from the spray's (..., n, ncoef) coefficient
    arrays over the 2n variables at the directions y (..., n), second
    partials gathered through the jet space's table."""
    Gv = G[..., 0]
    dGx = G[..., 1:1 + n]
    dGy = G[..., 1 + n:1 + 2 * n]
    sp = jet_space(2 * n, 2)
    pos = sp.hessian_positions
    d2xy = G[..., pos[:n, n:]] * sp.factorial[pos[:n, n:]]
    d2yy = G[..., pos[n:, n:]] * sp.factorial[pos[n:, n:]]
    yv = np.asarray(y, dtype=float)
    return (
        2.0 * dGx
        - np.einsum("...m,...imk->...ik", yv, d2xy)
        + 2.0 * np.einsum("...m,...imk->...ik", Gv, d2yy)
        - np.einsum("...im,...mk->...ik", dGy, dGy)
    )


def _s_jet(tau: np.ndarray, G: np.ndarray, ys: np.ndarray, n: int):
    """S = y^m tau_{x^m} - 2 G^m tau_{y^m} as first-order coefficient
    arrays (D, 1 + 2n), from the order-2 arrays of tau (D, ncoef) and
    the spray (D, n, ncoef) at the directions ys (D, n).

    Each product rounds as Jet's does, a seed product as a value term
    plus a shift and G^m tau_{y^m} as the triple table's bincount, and
    the 2n terms are summed in the order of the jet expression.
    """
    sp = jet_space(2 * n, 2)
    c1 = 1 + 2 * n
    d = tau[:, sp._deriv_src] * sp._deriv_scale
    tx, ty = d[:, :n], d[:, n:]
    m = np.arange(n)
    seeded = tx * ys[:, :, None] + 0.0
    seeded[:, m, 1 + n + m] += tx[..., 0]
    g1 = G[..., :c1]
    drift = 0.0 + g1[..., :1] * ty
    drift[..., 1:] += g1[..., 1:] * ty[..., :1]
    terms = np.empty((len(ys), 2 * n, c1))
    terms[:, 0::2] = seeded
    terms[:, 1::2] = -(drift * 2.0)
    return np.add.reduce(terms, axis=1)


@lru_cache(maxsize=None)
def _embedding(nvars: int, order: int) -> np.ndarray:
    """Where jet_space(nvars, order)'s coefficients sit among those of
    jet_space(2 nvars, order), the y exponents zero."""
    position = jet_space(2 * nvars, order).position
    return np.array([position[idx + (0,) * nvars]
                     for idx in jet_space(nvars, order).indices])


def _minus(coef: np.ndarray, log_density: Jet) -> np.ndarray:
    """coef (D, ncoef), arrays over the 2n variables (x, y), minus the
    jet log_density over the n chart variables of the same order, at
    the positions where it sits among them."""
    sp = log_density.space
    out = coef.copy()
    out[:, _embedding(sp.nvars, sp.order)] -= log_density.coef
    return out


def curvature_samples(F: FinslerEvaluator, x, ys, log_sigma: Jet,
                      log_sigma_bh: Optional[Jet] = None) -> CurvatureSample:
    """Full curvature bundles of F at the chart point x and each
    direction of the block ys (D, n): the generic pipeline's one entry.

    log_sigma is ln sigma, the log of the volume density, as an order-2
    jet over the n chart variables at x, and log_sigma_bh likewise the
    log of the unit-ball density when that is another density.

    F's jets_at stage runs once on the order-4 seeds of x and then on
    the whole block.  One order-4 jet of F^2 per direction feeds
    everything.  One graded solve of its metric jets (order 2) gives
    the spray and log det g, which feeds the distortion; the spray
    gives G, N and the Riemann curvature; the distortion and the same
    spray give S as a first-order jet, whose horizontal derivative is
    Sdot.  S, tau and Sdot refer to sigma; s_bh is S from its own
    tau_BH = ln sqrt(det g) - ln sigma_BH when log_sigma_bh is given,
    and S itself when not.  Every stage runs once over all D
    directions, each row with the bits of a sample of its direction
    alone; a direction outside the conic domain or with a singular g
    fails the whole block.
    """
    n = F.dim
    if F.jets_at is None:
        raise TypeError(f"metric {F.name!r} has no jets_at stage")
    x = np.asarray(x, dtype=float)
    ys = np.array(ys, dtype=float).reshape(-1, n)
    if not np.all(F.domain_at(list(x))(list(ys.T))):
        raise ConicDomainError(
            f"(x, y) outside the conic domain of metric {F.name!r}")
    space = jet_space(2 * n, 4)
    seeds = [space.variable(i, v) for i, v in enumerate(x)]
    f = Jet(space, F.jets_at(seeds)(ys))
    gj, rhs = _spray_system((f * f).coef, ys, n)
    g = gj[..., 0].copy()
    _check_invertible(g)
    try:
        w, log_det = graded_solve(jet_space(2 * n, 2), gj, rhs)
    except JetDomainError:
        raise SingularMetricError(
            "nonpositive fundamental determinant") from None
    G = w * 0.25
    Gv = G[..., 0].copy()
    half_log_det = log_det * 0.5
    tau = _minus(half_log_det, log_sigma)
    s_jet = _s_jet(tau, G, ys, n)
    grad = s_jet[:, 1:1 + 2 * n]
    s = s_jet[:, 0]
    if log_sigma_bh is not None:
        s_bh = _s_jet(_minus(half_log_det, log_sigma_bh), G, ys, n)[:, 0]
    else:
        s_bh = s
    R = _riemann_from_spray(G, ys, n)
    return CurvatureSample(
        x=x,
        y=ys,
        g=g,
        spray=Gv,
        connection=G[..., 1 + n:1 + 2 * n].copy(),
        riemann=R,
        ricci=np.trace(R, axis1=-2, axis2=-1),
        tau=tau[:, 0],
        s=s,
        sdot=_dot(ys, grad[:, :n]) - 2.0 * _dot(Gv, grad[:, n:]),
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
    xs, cols = [float(v) for v in x], list(dirs.T)
    with np.errstate(all="ignore"):
        vals = np.asarray(F.at(xs)(cols), dtype=float)
        vals = vals[np.asarray(F.domain_at(xs)(cols)) & np.isfinite(vals)
                    & (vals > 0.0)]
    if not vals.size:
        raise ValueError("degenerate sublevel set: no admissible probe direction")
    r = 2.0 * float(np.max(1.0 / vals))
    return -r * np.ones(n), r * np.ones(n)


# rows per call of an evaluator's direction stages in _indicator: a
# stage may stack n^2 terms per row (forms' quadratic form does), and
# 4096 rows keep those arrays at n^2 x 32 KB
_INDICATOR_ROWS = 4096


def _indicator(F: FinslerEvaluator, xs, samples: np.ndarray) -> np.ndarray:
    """Boolean mask of rows with F(x, row) < 1, from one call of each of
    F's x-stages and calls of their direction stages on the sample
    columns, _INDICATOR_ROWS rows at a time."""
    f_at, in_domain = F.at(xs), F.domain_at(xs)
    refusal = (f"metric {F.name!r}: bh_density needs domain and F stages "
               "that take numpy columns and return one value per row")
    masks = []
    for start in range(0, samples.shape[0], _INDICATOR_ROWS):
        block = samples[start:start + _INDICATOR_ROWS]
        m = block.shape[0]
        cols = [block[:, i] for i in range(F.dim)]
        try:
            with np.errstate(all="ignore"):
                mask = np.asarray(in_domain(cols))
                vals = np.asarray(f_at(cols), dtype=float)
        except (TypeError, ValueError) as e:
            raise TypeError(refusal) from e
        if mask.shape != (m,) or vals.shape != (m,):
            raise TypeError(refusal)
        masks.append(mask & np.isfinite(vals) & (vals > 0.0) & (vals < 1.0))
    return np.concatenate(masks)


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
