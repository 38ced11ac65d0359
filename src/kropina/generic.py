"""Generic Finsler pipeline: spray, curvature and S-curvature from F alone.

Everything here is computed straight from the defining equations via
truncated Taylor arithmetic over the 2n tangent-bundle variables
(x^1..x^n, y^1..y^n).  No structure of any particular metric class is
assumed, which is what makes this module usable as an independent
cross-check for closed-form implementations.

The curvature of the spray needs second derivatives of the geodesic
coefficients, which themselves hold second derivatives of F^2, so the
full pipeline works with jets of total order four.  Only F and F^2 are
Jet expressions, each formed once per row block of a chart point's
directions: F as a quotient when the metric's stage hands a numerator
and a denominator, F^2 as a product.  Below them the pipeline works on
coefficient arrays with a leading axis for the directions (vector
forward mode; Griewank and Walther, Evaluating Derivatives, ch. 13):
the metric jets and the spray's right-hand side are gathers of the F^2
jet and one graded_solve per block gives the spray and log det g; the
Riemann curvature and S are array expressions over those, over the
stacked rows of every chart point of a run at once.

A metric enters at one chart point x as an XStage: F, its domain and
its order-4 jets at x, each a function of a (D, n) block of directions.
curvature_samples takes the stages and blocks of all the chart points
of a run in one call, and a point at fault raises for the whole call;
bh_density reads F and its domain alone: the unit-ball density
Vol(B^n) / Vol{F < 1} by a product Gauss rule on the sphere, after a
change of variables fitted to F's own boundary points.
"""
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .jets import Jet, JetDomainError, graded_solve, jet_space
from .riemann import SingularMetricError, _dot


# a chart point's directions go from F's jets to the spray in row blocks
# of at most this many bytes of F's coefficients each, so that the
# pass's temporaries stay those of one block, whatever the point's D
_BLOCK_BYTES = 1 << 18


class ConicDomainError(ValueError):
    """Raised when (x, y) lies outside the conic domain of the metric."""


class XStage(NamedTuple):
    """A Finsler metric F at one chart point x, the work on x alone done
    once.  Each function takes a (D, n) block of directions ys and gives
    one row per direction: f(ys) the values F(x, y_k), domain(ys) the
    mask of the rows where F is defined and positive, and jets(ys) a
    pair (num, den) of (D, ncoef) coefficient arrays of order-4 jets
    over the 2n variables (x, y) at (x, y_k): F = num / den, or, for a
    metric that is not a quotient, F's own jets and None.
    curvature_samples calls jets once per row block of the point's
    directions and writes none of the arrays.  name names the metric
    in errors.

    The pipeline takes a coordinate volume density, as in dV = sigma(x)
    dx, as ln sigma: an order-2 jet over the n chart variables at x (see
    curvature_samples, which takes one stage per chart point of a run).
    """

    x: np.ndarray            # (n,)
    f: Callable
    domain: Callable
    jets: Callable
    name: str


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


def curvature_samples(points) -> list:
    """Full curvature bundles of a metric at the chart points of one run:
    the generic pipeline's one entry.

    points holds one (stage, ys, log_sigma, log_sigma_bh) per chart
    point, all of one n: the metric's stage at its x, its (D, n) block
    of directions, of any D, and the log of the volume density as an
    order-2 jet over the n chart variables at x, and likewise of the
    unit-ball density when that is another density, or None.  Every
    entry of a run has a log_sigma_bh or none does, as the points of one
    space share their densities' kinds.

    points is read once, in order, one chart point at a time.  A
    point's stage checks its domain on all its directions, which then go
    from F to the spray in row blocks of at most _BLOCK_BYTES of F's
    coefficients: per block, the stage's jets, F (num / den when the
    stage is a quotient), F * F, the spray system, the invertibility
    check of g and one graded solve, which gives the spray and log det
    g, and so the distortion.  Every row op keeps the bits of its row,
    so no block boundary moves one.  The closing stages run once over
    the stacked rows of the run: the spray gives G, N and the Riemann
    curvature; the distortion and the spray give S as a first-order
    jet, whose horizontal derivative is Sdot.  S, tau and Sdot refer to
    sigma; s_bh is S from its own tau_BH = ln sqrt(det g) - ln sigma_BH
    when log_sigma_bh is given, and S itself when not.

    Returns one CurvatureSample per point, each row with the bits of a
    sample of its direction alone, or raises; no points give [].  A
    direction outside the conic domain or with a singular g, or a den
    whose value is zero, raises the error of the first block at fault.
    """
    xs, yss, gs, Gs, taus, bh_taus = [], [], [], [], [], []
    for stage, ys, log_sigma, log_sigma_bh in points:
        x = np.asarray(stage.x, dtype=float)
        n = len(x)
        ys = np.array(ys, dtype=float).reshape(-1, n)
        if not np.all(stage.domain(ys)):
            raise ConicDomainError(
                f"(x, y) outside the conic domain of metric {stage.name!r}")
        xs.append(x)
        yss.append(ys)
        space = jet_space(2 * n, 4)
        step = max(1, _BLOCK_BYTES // (8 * space.ncoef))
        for r in range(0, len(ys), step):
            block = ys[r:r + step]
            num, den = stage.jets(block)
            f = Jet(space, num)
            if den is not None:
                f = f / Jet(space, den)
            gj, rhs = _spray_system((f * f).coef, block, n)
            g = gj[..., 0].copy()
            _check_invertible(g)
            try:
                w, log_det = graded_solve(jet_space(2 * n, 2), gj, rhs)
            except JetDomainError:
                raise SingularMetricError(
                    "nonpositive fundamental determinant") from None
            gs.append(g)
            Gs.append(w * 0.25)
            half_log_det = log_det * 0.5
            # the distortion: each log density subtracted where its
            # coefficients sit among those over the 2n variables
            for density, out in ((log_sigma, taus), (log_sigma_bh, bh_taus)):
                if density is not None:
                    tau = half_log_det.copy()
                    tau[:, _embedding(n, 2)] -= density.coef
                    out.append(tau)
    if not xs:
        return []

    ys = np.concatenate(yss)
    G = np.concatenate(Gs)
    Gv = G[..., 0].copy()
    tau = np.concatenate(taus)
    s_jet = _s_jet(tau, G, ys, n)
    grad = s_jet[:, 1:1 + 2 * n]
    s = s_jet[:, 0]
    s_bh = _s_jet(np.concatenate(bh_taus), G, ys, n)[:, 0] if bh_taus else s
    R = _riemann_from_spray(G, ys, n)
    fields = dict(
        g=np.concatenate(gs),
        spray=Gv,
        connection=G[..., 1 + n:1 + 2 * n].copy(),
        riemann=R,
        ricci=np.trace(R, axis1=-2, axis2=-1),
        tau=tau[:, 0],
        s=s,
        sdot=_dot(ys, grad[:, :n]) - 2.0 * _dot(Gv, grad[:, n:]),
    )
    out, start = [], 0
    for x, block_ys in zip(xs, yss):
        rows = slice(start, start + len(block_ys))
        start = rows.stop
        block = {name: v[rows] for name, v in fields.items()}
        block["s_bh"] = block["s"] if s_bh is s else s_bh[rows]
        out.append(CurvatureSample(x=x, y=block_ys, **block))
    return out


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


# random probe directions of _probe_directions, besides the 2n axis ones
_PROBES = 256


@lru_cache(maxsize=None)
def _probe_directions(n: int) -> np.ndarray:
    """(_PROBES + 2n, n) unit directions: normal draws of a fixed-key
    generator, normalised, then the 2n axis directions."""
    rng = np.random.Generator(np.random.Philox(key=0x9E3779B9))
    dirs = rng.normal(size=(_PROBES, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.vstack([dirs, np.eye(n), -np.eye(n)])
    dirs.flags.writeable = False   # shared by every caller
    return dirs


def _values(stage: XStage, ys: np.ndarray):
    """(vals, ok): F(x, y) at each row of ys (N, n), x the stage's, by
    one call of f and of domain on the block, and the mask of the rows
    where F is defined, finite and positive."""
    try:
        with np.errstate(all="ignore"):
            mask = np.asarray(stage.domain(ys))
            vals = np.asarray(stage.f(ys), dtype=float)
        if mask.shape != (len(ys),) or vals.shape != (len(ys),):
            raise ValueError("not one value per row")
    except (TypeError, ValueError) as e:
        raise TypeError(f"metric {stage.name!r}: bh_density needs f and "
                        "domain that take a block of directions and return "
                        "one value per row") from e
    return vals, mask & np.isfinite(vals) & (vals > 0.0)


def _gauss_jacobi(m: int, alpha: float, beta: float):
    """The m-node Gauss rule (nodes, weights) on [-1, 1] for the weight
    (1 - t)^alpha (1 + t)^beta, by Golub-Welsch: the nodes are the
    eigenvalues of the Jacobi matrix of the three-term recurrence, the
    weights mu_0 times the squared first components of its unit
    eigenvectors (the k = 0 and k = 1 entries in cancelled form)."""
    ab = alpha + beta
    k = np.arange(1, m, dtype=float)
    s = 2.0 * k + ab
    diag = np.empty(m)
    diag[0] = (beta - alpha) / (ab + 2.0)
    diag[1:] = (beta * beta - alpha * alpha) / (s * (s + 2.0))
    cancel = np.ones(m - 1)   # (k + ab) / (s - 1), which is 1 at k = 1
    cancel[1:] = (k[1:] + ab) / (s[1:] - 1.0)
    off = np.sqrt(4.0 * k * (k + alpha) * (k + beta) * cancel
                  / (s * s * (s + 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1)
                                 + np.diag(off, -1))
    mu0 = (2.0 ** (ab + 1.0) * math.gamma(alpha + 1.0) * math.gamma(beta + 1.0)
           / math.gamma(ab + 2.0))
    return nodes, mu0 * vecs[0] ** 2


# Gauss nodes per half of the polar coordinate of _sphere_rule, per n,
# from bh_density's worst relative error against the closed form on
# every builtin and on random_scenario(seed, n).  For odd n the polar
# integrand of a Kropina unit ball is a polynomial that 2 and 4 nodes
# integrate exactly; for even n it carries (1 + t)^((n - 3)/2), and 9
# nodes bring the error below 1e-14 (8: 2e-13 at n = 2), so 10 are used.
_POLAR_NODES = {2: 10, 3: 2, 4: 10, 5: 4, 6: 10}
# Gauss nodes of every other angle: after _polar_frame, F^(-n) of a unit
# ball that is an ellipsoid depends on the polar coordinate alone
_INNER_NODES = 2


@lru_cache(maxsize=None)
def _sphere_rule(n: int, m: int):
    """(u, w): a product Gauss rule on the unit sphere S^(n-1), nodes u
    (N, n) and weights w (N,) summing to its area (Stroud, Approximate
    Calculation of Multiple Integrals, 1971).

    Over u = (t, sqrt(1 - t^2) v), v on S^(n-2), the area element is
    (1 - t^2)^((n-3)/2) dt dv.  The polar coordinate t = u^1 takes m
    Gauss-Jacobi nodes on each of [0, 1] and [-1, 0], so that a kink of
    the integrand on the equator u^1 = 0 falls on a panel edge; each
    lower sphere takes _INNER_NODES Gauss-Gegenbauer nodes on [-1, 1]
    the same way, down to S^0 = {1, -1}.
    """
    u, w = np.array([[1.0], [-1.0]]), np.ones(2)
    for d in range(2, n + 1):
        alpha = (d - 3) / 2.0
        if d == n:
            x, wx = _gauss_jacobi(m, alpha, 0.0)
            t = (1.0 + x) / 2.0
            wt = wx * (1.0 + t) ** alpha / 2.0 ** (alpha + 1.0)
            t, wt = np.concatenate([t, -t]), np.concatenate([wt, wt])
        else:
            t, wt = _gauss_jacobi(_INNER_NODES, alpha, alpha)
        r = np.sqrt(1.0 - t * t)
        u = np.hstack([np.repeat(t, len(u))[:, None],
                       np.kron(r[:, None], u)])
        w = np.kron(wt, w)
    u.flags.writeable = w.flags.writeable = False   # shared by every caller
    return u, w


def _polar_frame(bdry: np.ndarray, probes: np.ndarray):
    """(M, |det M|) of the change of variables y = M u under which the
    quadric through the boundary points bdry (K, n) of {F(x, .) < 1} is
    a sphere whose centre lies on the polar axis u^1.

    The quadric y Q y + l.y + c = 0 is the least-squares null vector of
    the points' monomials (the last right singular vector); M is
    Q^(-1/2) times a reflection taking e_1 to the centre's direction.
    For a Kropina metric the unit ball is that ellipsoid, with the
    origin on its boundary, and F(x, M u)^(-n) is then a function of
    u^1 alone, zero for u^1 < 0.  When the points lie on no ellipsoid,
    M only puts the polar axis on the probe direction of largest 1/F
    (probes, the directions of bdry).  Any invertible M gives the same
    volume; the frame only makes the rule converge fast.
    """
    n = bdry.shape[1]
    i, j = np.triu_indices(n)
    scale = np.abs(bdry).max()
    z = bdry / scale
    coef = np.linalg.svd(np.hstack([z[:, i] * z[:, j], z,
                                    np.ones((len(z), 1))]),
                         full_matrices=False)[2][-1]
    Q = np.zeros((n, n))
    Q[i, j] = Q[j, i] = coef[:len(i)] * np.where(i == j, 1.0, 0.5)
    l, c = coef[len(i):-1], coef[-1]
    if np.trace(Q) < 0.0:
        Q, l, c = -Q, -l, -c
    lam, V = np.linalg.eigh(Q)
    # the centre v = -Q^(-1) l / 2 in Q's eigenbasis, and the quadric is
    # (y - v) Q (y - v) = v Q v - c
    with np.errstate(divide="ignore", invalid="ignore"):
        v = (V.T @ l) / lam * -0.5
    if lam[0] > 0.0 and lam @ (v * v) > c:
        root = np.sqrt(lam)
        A = (V / root) @ V.T * scale
        det = scale ** n / float(np.prod(root))
        axis = V @ (root * v)
    else:
        A, det = np.eye(n), 1.0
        axis = probes[np.argmax(np.linalg.norm(bdry, axis=1))]
    # the reflection along h = e_1 - axis / |axis|, when that is not 0
    h = -axis / max(np.linalg.norm(axis), np.finfo(float).tiny)
    h[0] += 1.0
    hh = h @ h
    if hh > 1e-24:
        A = A - np.outer(A @ h, h) * (2.0 / hh)
    return A, det


def bh_density(stage: XStage) -> float:
    """Unit-ball volume density Vol(B^n) / Vol{y : F(x, y) < 1} at the
    x of the stage, by a sphere quadrature that reads F alone.

    By F's positive homogeneity Vol{F < 1} = (1/n) int_(S^(n-1))
    F(x, u)^(-n) du over the directions where F is defined (Shen,
    Lectures on Finsler Geometry, 2001), which holds after any linear
    change of variables y = M u.  M comes from F's boundary points
    1/F(x, p) p along the fixed probe directions p (_polar_frame), and
    the integral from the product rule _sphere_rule(n, m) with m from
    _POLAR_NODES.  f and domain run once on the block of probes and
    once on the rule's nodes (a stage that does not give one value per
    row is refused with a TypeError).
    """
    n = len(stage.x)
    probes = _probe_directions(n)
    vals, ok = _values(stage, probes)
    if not ok.any():
        raise ValueError("degenerate sublevel set: no admissible probe direction")
    M, det = _polar_frame(probes[ok] / vals[ok, None], probes[ok])
    u, w = _sphere_rule(n, _POLAR_NODES.get(n, 10))
    vals, ok = _values(stage, u @ M.T)
    volume = det / n * float(w[ok] @ vals[ok] ** -float(n))
    if not volume > 0.0:
        raise ValueError("degenerate sublevel set: zero volume")
    return unit_ball_volume(n) / volume
