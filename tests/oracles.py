"""Reference routes that only the tests use.

Each function recomputes a quantity the package computes another way, so
a test can hold the package's route against it:

- spray_generic: the order-2 spray by a dense linear solve, against
  curvature_sample's jet-solved spray; geodesic_flow integrates it;
- jet_inverse: a jet matrix inverse through jet_solve;
- rs_from_RS: drift contractions from navigation data, against the
  drift bundle of the (alpha, beta) view;
- ric_ac_via_projective: the weighted Ricci curvature reassembled
  around the projective Ricci curvature.
"""
import math
from dataclasses import dataclass

import numpy as np

from kropina.einstein import (
    WeightConfig,
    _generic_sample,
    _require_bundle_weight,
    pric,
)
from kropina.forms import KropinaSpace, s_closed, s_dot_closed
from kropina.generic import (
    ConicDomainError,
    FinslerEvaluator,
    _check_domain,
    _check_invertible,
    _f2_jet,
    _unit2,
)
from kropina.jets import jet_solve
from kropina.riemann import (
    FieldPoint,
    MetricPoint,
    SingularMetricError,
    eval_component_jets,
    w_invariants_from_point,
)


def spray_generic(F: FinslerEvaluator, x, y) -> np.ndarray:
    """Geodesic coefficients G^i = (1/4) g^{il} ([F^2]_{x^k y^l} y^k - [F^2]_{x^l})."""
    _check_domain(F, x, y)
    n = F.dim
    f2 = _f2_jet(F, x, y, 2)
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


def geodesic_flow(F: FinslerEvaluator, x, y, t_end: float, steps: int) -> GeodesicPath:
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


def jet_inverse(A):
    """Columns of A^-1 via jet_solve against unit vectors."""
    n = len(A)
    space = A[0][0].space
    cols = []
    for j in range(n):
        e = [space.constant(1.0 if i == j else 0.0) for i in range(n)]
        cols.append(jet_solve(A, e))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def rs_from_RS(space: KropinaSpace, x, y):
    """(r_00, s^i_0, s_0) of the view metric from navigation-side data.

    Computes the drift-derivative contractions from the wind's
    covariant derivatives and the gauge's log-gradient instead of from
    the view metric directly; must agree with the drift bundle's.
    """
    xs = [float(v) for v in x]
    mp = MetricPoint.from_exprs(space.h, xs, order=1)
    fp = FieldPoint.from_exprs(mp, list(space.w), xs, order=1)
    wi = w_invariants_from_point(mp, fp)
    rj = eval_component_jets(space.rho, xs, 1)
    rho_grad = np.asarray(rj.gradient())
    e2 = math.exp(-2.0 * rj.value)
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


def ric_ac_via_projective(fields, cfg: WeightConfig, y, route="closed"):
    """ric_ac reassembled around the projective Ricci curvature:

        ric_ac = pric - kappa/(n+1) * (Sdot + 4 S^2/(n+1))
                      + nu * S^2/(n+1)^2.

    Independent evaluation path for the identity tests.
    """
    _require_bundle_weight(fields, cfg)
    n = fields.n
    kappa, nu = cfg.kappa, cfg.nu
    if route == "closed":
        sdot = (n + 1) * s_dot_closed(fields, y)
        s = s_closed(fields, y)
    else:
        sample = _generic_sample(fields, y)
        sdot, s = sample.sdot, sample.s
    base = pric(fields, y, route=route)
    return (base - kappa / (n + 1) * (sdot + 4 * s**2 / (n + 1))
            + nu * s**2 / (n + 1) ** 2)
