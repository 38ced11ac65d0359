"""Generic pipeline: homogeneity, Riemannian reduction, the ODE oracle,
and the BH density quadrature against the Monte-Carlo oracle."""
import math
from collections import Counter
from functools import partial

import numpy as np
import pytest

from kropina.expr import eval_expr, parse_expr
from fd import fd_partial
from kropina.generic import (
    _POLAR_NODES,
    ConicDomainError,
    _check_invertible,
    _gauss_jacobi,
    _polar_frame,
    _sphere_rule,
    bh_density,
    curvature_samples,
    unit_ball_volume,
)
from kropina.forms import finsler_stage, sigma_bh
from kropina.workbench import VERIFY_TOLS
from kropina.jets import Jet, jet_space
from kropina.riemann import MetricPoint, SingularMetricError
from kropina.scenarios import (
    COMPARISON_CUTOFF,
    load_scenario,
    random_scenario,
    scenario_samples,
)
from oracles import (
    BHDensityEstimate,
    LoopMetric,
    LoopStage,
    bh_density_mc,
    bh_volume_density,
    chart_point,
    christoffel,
    curvature_sample_oracle,
    deriv,
    eliminate_gauss_jordan,
    ellipsoid_box,
    f2_jet,
    f_jets,
    flat_wind,
    geodesic_flow,
    gradient,
    hess_form,
    hess_h,
    log_density,
    loop_metric,
    metric_from_strings,
    metric_jets,
    point_samples,
    sample_row,
    spray_generic,
    spray_jets,
    tau_jet,
    truncate,
    volume_density,
)

SPHERE3 = metric_from_strings(
    [["1", "0", "0"], ["0", "sin(x1)^2", "0"], ["0", "0", "cos(x1)^2"]]
)


def plain_metric(n, func, domain, name):
    """A LoopMetric from func(x, y) and domain(x, y) that does no work
    at x alone."""

    def at(x):
        return LoopStage(partial(func, x), partial(domain, x))

    return LoopMetric(dim=n, at=at, name=name)


def eval_xy(ast, x, y):
    """ast at the position x and the direction y over x(n+1)..x(2n).
    Where y is numpy columns (a block of directions), each direction is
    evaluated over floats on its own: eval_expr takes real numbers and
    jets only."""
    env = list(x) + list(y)
    if any(isinstance(v, np.ndarray) for v in env):
        return np.vectorize(lambda *v: eval_expr(ast, list(v)),
                            otypes=[float])(*env)
    return eval_expr(ast, env)


def expr_metric(f2_text, beta_text, n, name="expr"):
    """Finsler metric whose square and cone inequality are expressions.

    Variables x1..xn are position, x(n+1)..x(2n) the tangent vector.
    """
    f2_ast = parse_expr(f2_text, 2 * n)
    b_ast = parse_expr(beta_text, 2 * n)

    def func(x, y):
        val = eval_xy(f2_ast, x, y)
        return val.sqrt() if isinstance(val, Jet) else np.sqrt(val)

    def domain(x, y):
        return eval_xy(b_ast, x, y) > 0

    return plain_metric(n, func, domain, name)


def euclid_metric(n):
    def func(x, y):
        q = sum(yi * yi for yi in y)
        return q.sqrt() if isinstance(q, Jet) else np.sqrt(q)

    def domain(x, y):
        return sum(np.asarray(yi) ** 2 for yi in y) > 0

    return plain_metric(n, func, domain, "euclid")


def sphere3_metric():
    return expr_metric(
        "x4^2 + sin(x1)^2*x5^2 + cos(x1)^2*x6^2", "x4^2 + x5^2 + x6^2", 3, "s3"
    )


def flat_kropina(n=3):
    """F = |y|^2 / (2 y^1): quadratic over a linear form, conic on y^1 > 0."""

    def func(x, y):
        a2 = sum(yi * yi for yi in y)
        return a2 / (2.0 * y[0])

    def domain(x, y):
        return np.asarray(y[0]) > 0

    return plain_metric(n, func, domain, "flat-kropina")


def flat_kropina_box(n=3):
    """The box of flat_kropina(n)'s unit ball, |y - e_1| < 1."""
    lo, hi = -np.ones(n), np.ones(n)
    lo[0], hi[0] = 0.0, 2.0
    return lo, hi


def wavy_kropina():
    """Position-dependent quadratic-over-linear metric, conic on beta > 0."""
    a2 = (
        "(1 + 0.1*sin(x2))*x4^2 + (1 + 0.1*x1^2)*x5^2 + x6^2"
        " + 0.1*x3*x4*x5"
    )
    beta = "(1 + 0.05*x2)*x4 + 0.1*x1*x5 + 0.05*x6"
    f2_ast = parse_expr(f"({a2})^2 / ({beta})^2", 6)
    b_ast = parse_expr(beta, 6)

    def func(x, y):
        # f2_ast is F^2; the domain predicate guarantees beta > 0, so the
        # square root is safe
        num = eval_xy(f2_ast, x, y)
        return num.sqrt() if isinstance(num, Jet) else np.sqrt(num)

    def domain(x, y):
        return eval_xy(b_ast, x, y) > 0

    return plain_metric(3, func, domain, "wavy-kropina")


def const_density(x):
    return 1.0


def sample(F, x, y, sigma=const_density):
    """The curvature sample of the one direction y, with the constant
    density unless one is given."""
    return sample_row(point_samples(F.stage(x), [y],
                                    log_density(sigma, x)), 0)


def weighted_density(f_ast, n, base=None):
    def func(x):
        f = eval_expr(f_ast, list(x))
        scale = (
            (f * (-(n + 1.0))).exp()
            if isinstance(f, Jet)
            else math.exp(-(n + 1.0) * f)
        )
        b = base(x) if base is not None else 1.0
        return scale * b
    return func


XS = [0.3, -0.2, 0.4]
YS = [1.0, 0.3, -0.2]


def test_fundamental_tensor_riemannian():
    g = sample(euclid_metric(3), XS, YS).g
    assert np.allclose(g, np.eye(3), atol=1e-10)
    g3 = sample(sphere3_metric(), [0.7, 0.1, 0.2], YS).g
    mp = MetricPoint.from_exprs(SPHERE3, [0.7, 0.1, 0.2])
    assert np.allclose(g3, mp.g, atol=1e-10)


def test_euler_identity():
    F = wavy_kropina()
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = list(rng.uniform(-0.5, 0.5, 3))
        y = [1.0 + rng.uniform(0, 0.5), rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)]
        g = sample(F, x, y).g
        f = float(F(x, y))
        quad = float(np.asarray(y) @ g @ np.asarray(y))
        assert abs(quad - f * f) <= 1e-10 * max(1.0, f * f)


def test_conic_domain_error():
    F = flat_kropina()
    with pytest.raises(ConicDomainError):
        sample(F, XS, [-1.0, 0.2, 0.1])
    with pytest.raises(ConicDomainError):
        spray_generic(F, XS, [0.0, 1.0, 0.0])


def test_spray_euclidean_zero():
    G = spray_generic(euclid_metric(3), XS, YS)
    assert np.allclose(G, 0.0, atol=1e-12)


def test_spray_riemannian_equals_christoffel():
    x = [0.7, 0.1, 0.2]
    y = [0.4, 1.1, -0.3]
    G = spray_generic(sphere3_metric(), x, y)
    Gam = christoffel(SPHERE3, x)
    want = 0.5 * np.einsum("kij,i,j->k", Gam, y, y)
    assert np.allclose(G, want, atol=1e-9)


def test_homogeneity_suite():
    """F, G, R, Ric scale as lambda, lambda^2, lambda^2, lambda^2."""
    F = wavy_kropina()
    x = [0.2, 0.1, -0.3]
    y = [1.2, 0.4, -0.1]
    f0 = float(F(x, y))
    G0 = spray_generic(F, x, y)
    cs0 = sample(F, x, y)
    R0, ric0 = cs0.riemann, cs0.ricci
    for lam in (0.5, 2.0, 3.0):
        ys = [lam * v for v in y]
        cs = sample(F, x, ys)
        assert abs(float(F(x, ys)) - lam * f0) < 1e-9 * max(1, abs(f0))
        assert np.allclose(spray_generic(F, x, ys), lam**2 * G0, rtol=1e-9, atol=1e-11)
        assert np.allclose(cs.riemann, lam**2 * R0, rtol=1e-9, atol=1e-9)
        assert abs(cs.ricci - lam**2 * ric0) < 1e-9 * max(1, abs(ric0))


def test_riemann_matches_riemannian_curvature():
    """For F = sqrt(h(y,y)) the spray curvature is the h-curvature of y."""
    x = [0.7, 0.1, 0.2]
    y = [0.4, 1.1, -0.3]
    mp = MetricPoint.from_exprs(SPHERE3, x)
    cs = sample(sphere3_metric(), x, y)
    want = np.einsum("pikq,p,q->ik", mp.riemann, y, y)
    assert np.allclose(cs.riemann, want, atol=1e-8)
    hyy = float(np.asarray(y) @ mp.g @ np.asarray(y))
    assert abs(cs.ricci - 2.0 * hyy) < 1e-8


def test_flat_kropina_ricci_zero():
    F = flat_kropina()
    rng = np.random.default_rng(4)
    for _ in range(5):
        y = [1.0 + rng.uniform(0, 1), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)]
        assert abs(sample(F, XS, y).ricci) < 1e-8


def test_trace_consistency():
    F = wavy_kropina()
    x = [0.2, 0.1, -0.3]
    y = [1.2, 0.4, -0.1]
    cs = sample(F, x, y)
    assert cs.ricci == pytest.approx(float(np.trace(cs.riemann)), abs=1e-12)


def test_distortion_riemannian_zero():
    def sig(x):
        return eval_expr(parse_expr("sin(x1)*cos(x1)", 3), list(x))

    x = [0.7, 0.1, 0.2]
    tau = sample(sphere3_metric(), x, YS, sigma=sig).tau
    assert abs(tau) < 1e-12


def test_distortion_scale_invariance():
    F = wavy_kropina()
    x = [0.2, 0.1, -0.3]
    y = [1.2, 0.4, -0.1]
    t1 = sample(F, x, y).tau
    t2 = sample(F, x, [3.0 * v for v in y]).tau
    assert abs(t1 - t2) < 1e-10


def test_distortion_log_law():
    F = wavy_kropina()
    f_ast = parse_expr("0.3*x1 + 0.1*x2^2", 3)
    x = [0.2, 0.1, -0.3]
    y = [1.2, 0.4, -0.1]
    t0 = sample(F, x, y).tau
    tw = sample(F, x, y, sigma=weighted_density(f_ast, 3)).tau
    fx = eval_expr(f_ast, x)
    assert abs(tw - t0 - 4.0 * fx) < 1e-12


def test_s_flat_kropina_zero():
    F = flat_kropina()
    rng = np.random.default_rng(6)
    for _ in range(5):
        y = [1.0 + rng.uniform(0, 1), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)]
        assert abs(sample(F, XS, y).s) < 1e-8


def test_s_weighted_shift():
    """Reweighting the density adds (n+1) f_{x^i} y^i to S."""
    F = flat_kropina()
    f_ast = parse_expr("0.3*x1 + 0.1*x2^2", 3)
    y = [1.3, 0.2, -0.4]
    s0 = sample(F, XS, y).s
    sw = sample(F, XS, y, sigma=weighted_density(f_ast, 3)).s
    df = [0.3, 0.2 * XS[1], 0.0]
    f0 = sum(d * v for d, v in zip(df, y))
    assert abs(sw - s0 - 4.0 * f0) < 1e-10


def _flow_samples(F, sig, x, y, h, k):
    """Values of tau and S at the first k nodes of the geodesic through (x, y)."""
    path = geodesic_flow(F, x, y, t_end=h * k, steps=k)
    taus, esses = [], []
    for p, v in zip(path.pos, path.vel):
        cs = sample(F, list(p), list(v), sigma=sig)
        taus.append(cs.tau)
        esses.append(cs.s)
    return taus, esses


def test_s_and_sdot_match_geodesic_oracle():
    F = wavy_kropina()
    sig = weighted_density(parse_expr("0.3*x1 + 0.1*x2^2", 3), 3)
    x = [0.2, 0.1, -0.3]
    y = [1.2, 0.4, -0.1]
    h = 0.004
    taus, esses = _flow_samples(F, sig, x, y, h, 2)
    # one-sided second-order first derivative at t = 0
    dtau = (-3.0 * taus[0] + 4.0 * taus[1] - taus[2]) / (2.0 * h)
    ds = (-3.0 * esses[0] + 4.0 * esses[1] - esses[2]) / (2.0 * h)
    cs = sample(F, x, y, sigma=sig)
    s, sdot = cs.s, cs.sdot
    assert abs(dtau - s) < 1e-5 * max(1.0, abs(s))
    assert abs(ds - sdot) < 1e-5 * max(1.0, abs(sdot))


def test_hess_linear_flat():
    F = flat_kropina()
    f = parse_expr("2*x1 + x2", 3)
    y = [1.1, 0.3, 0.2]
    assert abs(hess_form(f, XS, y, sample(F, XS, y).spray, 3)) < 1e-12


def test_hess_riemannian_reduction():
    f = parse_expr("x1^2 + 0.5*x2*x3", 3)
    x = [0.7, 0.1, 0.2]
    y = [0.4, 1.1, -0.3]
    got = hess_form(f, x, y, sample(sphere3_metric(), x, y).spray, 3)
    H = hess_h(f, SPHERE3, x)
    assert abs(got - float(np.asarray(y) @ H @ np.asarray(y))) < 1e-9


def test_hess_matches_geodesic_oracle():
    F = wavy_kropina()
    f = parse_expr("x1^2 + 0.5*x2*x3", 3)
    x = [0.2, 0.1, -0.3]
    y = [1.2, 0.4, -0.1]
    h = 0.004
    path = geodesic_flow(F, x, y, t_end=3 * h, steps=3)
    vals = [eval_expr(f, list(p)) for p in path.pos]
    # one-sided second derivative, O(h^2)
    d2 = (2 * vals[0] - 5 * vals[1] + 4 * vals[2] - vals[3]) / h**2
    want = hess_form(f, x, y, sample(F, x, y).spray, 3)
    assert abs(d2 - want) < 1e-5 * max(1.0, abs(want))


def test_geodesic_straight_line_euclidean():
    F = euclid_metric(3)
    path = geodesic_flow(F, XS, YS, t_end=1.0, steps=50)
    want = np.asarray(XS) + path.t[:, None] * np.asarray(YS)
    assert np.allclose(path.pos, want, atol=1e-12)
    assert np.allclose(path.vel, np.asarray(YS), atol=1e-12)


def test_geodesic_conserves_f():
    F = wavy_kropina()
    x = [0.2, 0.1, -0.3]
    y = [1.2, 0.4, -0.1]
    path = geodesic_flow(F, x, y, t_end=0.5, steps=200)
    f0 = float(F(x, y))
    drift = max(
        abs(float(F(list(p), list(v))) - f0)
        for p, v in zip(path.pos, path.vel)
    )
    assert drift < 1e-7 * f0


def test_geodesic_ode_residual():
    """Re-differentiate the discrete path and compare against the spray."""
    F = wavy_kropina()
    x = [0.2, 0.1, -0.3]
    y = [1.2, 0.4, -0.1]
    steps = 200
    path = geodesic_flow(F, x, y, t_end=0.5, steps=steps)
    h = 0.5 / steps
    for k in (50, 100, 150):
        acc = (path.pos[k + 1] - 2 * path.pos[k] + path.pos[k - 1]) / h**2
        want = -2.0 * spray_generic(F, list(path.pos[k]), list(path.vel[k]))
        assert np.allclose(acc, want, atol=1e-4)


def test_geodesic_exits_domain():
    # artificial chart boundary at x1 = 0.5 in the domain predicate
    def func(x, y):
        q = sum(yi * yi for yi in y)
        return q.sqrt() if isinstance(q, Jet) else np.sqrt(q)

    F = plain_metric(3, func, lambda x, y: x[0] < 0.5, "bounded-chart")
    with pytest.raises(ConicDomainError):
        geodesic_flow(F, [0.4, 0.0, 0.0], [1.0, 0.0, 0.0], t_end=0.5, steps=50)


def test_geodesic_step_validation():
    F = euclid_metric(2)
    with pytest.raises(ValueError):
        geodesic_flow(F, [0.0, 0.0], [1.0, 0.0], t_end=1.0, steps=0)
    with pytest.raises(ValueError):
        geodesic_flow(F, [0.0, 0.0], [1.0, 0.0], t_end=0.0, steps=10)


def test_bh_euclid_n2():
    """The Euclidean unit ball has density 1: the quadrature gives it to
    round-off in every dimension, the Monte-Carlo oracle within 3 of its
    standard errors over a probed box."""
    for n in range(2, 7):
        F = euclid_metric(n)
        assert bh_density(F.stage([0.0] * n)) == pytest.approx(1.0, rel=1e-13)
    F = euclid_metric(2)
    est = bh_density_mc(F.stage([0.0, 0.0]), mc_samples=40_000, seed=7)
    assert isinstance(est, BHDensityEstimate)
    assert abs(est.value - 1.0) < 3.0 * est.stderr
    assert est.stderr < 0.02


def test_bh_kropina_closed_vs_mc():
    """The unit ball {|y|^2 < 2 y^1} of the flat Kropina metric is the
    unit ball about e_1, with the origin on its boundary: density 1."""
    for n in range(2, 7):
        F = flat_kropina(n)
        assert bh_density(F.stage([0.0] * n)) == pytest.approx(1.0, rel=1e-13)
    F = flat_kropina()
    est = bh_density_mc(F.stage(XS), mc_samples=150_000, seed=11,
                        box=flat_kropina_box())
    assert abs(est.value - 1.0) < 3.0 * est.stderr
    # ball of radius 1 inside the box of volume 8
    assert abs(unit_ball_volume(3) / est.value - 4.0 * math.pi / 3.0) < 0.05


def test_bh_scaling():
    F = flat_kropina()

    stage = F.stage(XS)
    e1 = bh_density(stage)
    e2 = bh_density(stage._replace(f=lambda ys: 2.0 * stage.f(ys)))
    # each sublevel volume is unit_ball_volume(3) / value
    assert e1 / e2 == pytest.approx(0.125, rel=1e-13)


def test_bh_density_of_a_unit_ball_that_is_no_ellipsoid():
    """The quadrature reads F alone: the l^4 unit ball of the plane has
    area 4 Gamma(5/4)^2 / Gamma(3/2), and after the change of variables
    fitted to its boundary points the rule still integrates F^-2."""

    def func(x, y):
        return (y[0] ** 4 + y[1] ** 4) ** 0.25

    def domain(x, y):
        return np.asarray(y[0]) ** 2 + np.asarray(y[1]) ** 2 > 0

    F = plain_metric(2, func, domain, "l4")
    area = 4.0 * math.gamma(1.25) ** 2 / math.gamma(1.5)
    assert bh_density(F.stage([0.0, 0.0])) == pytest.approx(math.pi / area,
                                                            rel=1e-6)


def test_polar_frame_of_points_on_no_ellipsoid_keeps_the_probe_axis():
    """Boundary points on a hyperbola fit no ellipsoid: the frame is
    then a reflection, det 1, taking the polar axis to the direction of
    the farthest point."""
    probes = np.array([[1.0, 0.0], [-1.0, 0.0], [0.6, 0.8], [-0.6, 0.8],
                       [0.6, -0.8], [-0.6, -0.8]])
    # x^2 - y^2 = 1 along each direction: r = 1 / sqrt(c^2 - s^2)
    r = 1.0 / np.sqrt(np.abs(probes[:, 0] ** 2 - probes[:, 1] ** 2))
    r[2:] *= np.array([1.0, 2.0, 1.5, 1.2])
    M, det = _polar_frame(probes * r[:, None], probes)
    assert det == 1.0
    assert np.allclose(M @ M.T, np.eye(2))
    assert np.allclose(M[:, 0], probes[3])


def test_sphere_rule_integrates_the_sphere():
    """Each rule's nodes lie on S^(n-1), its weights sum to the area,
    and it integrates (u^1)^2 and the kinked max(u^1, 0)^n exactly."""
    for n in range(2, 7):
        u, w = _sphere_rule(n, _POLAR_NODES[n])
        area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-15)
        assert w.sum() == pytest.approx(area, rel=1e-13)
        assert w @ u[:, 0] ** 2 == pytest.approx(area / n, rel=1e-13)
        # the volume of the unit ball about e_1, by its radial function
        # 2 max(u^1, 0)
        half = w @ (2.0 * np.maximum(u[:, 0], 0.0)) ** n / n
        assert half == pytest.approx(unit_ball_volume(n), rel=1e-13)


def test_gauss_jacobi_matches_the_classical_rules():
    """Golub-Welsch gives the Gauss-Legendre rule at alpha = beta = 0
    and the Gauss-Chebyshev one at alpha = beta = -1/2."""
    for m in (1, 2, 5, 10):
        t, w = _gauss_jacobi(m, 0.0, 0.0)
        lt, lw = np.polynomial.legendre.leggauss(m)
        assert np.allclose(t, lt, atol=1e-14) and np.allclose(w, lw, atol=1e-14)
        t, w = _gauss_jacobi(m, -0.5, -0.5)
        k = np.arange(m, 0, -1)
        assert np.allclose(t, np.cos((2 * k - 1) * math.pi / (2 * m)),
                           atol=1e-14)
        assert np.allclose(w, math.pi / m, atol=1e-14)


@pytest.mark.parametrize("doc", [
    "s3_hopf", "s5_hopf", random_scenario(1, 2), random_scenario(1, 4),
    random_scenario(1, 6)], ids=["s3_hopf", "s5_hopf", "random-1-2",
                                 "random-1-4", "random-1-6"])
def test_quadrature_within_three_standard_errors_of_monte_carlo(doc):
    """At each chart point the quadrature lies within 3 Monte-Carlo
    standard errors of the oracle's estimate over the unit ball's own
    box, and agrees with the closed form to the verify tolerance."""
    sc = load_scenario(doc)
    space = sc.space()
    for k, (x, _) in enumerate(scenario_samples(sc, points=2, directions=1)):
        stage = finsler_stage(space, x)
        value = bh_density(stage)
        est = bh_density_mc(stage, mc_samples=50_000, seed=100 + k,
                            box=ellipsoid_box(space, x))
        assert abs(value - est.value) < 3.0 * est.stderr
        closed = sigma_bh(space, x)
        assert abs(value - closed) / closed < VERIFY_TOLS["bh-density"]


def test_bh_density_refuses_stages_that_take_no_arrays():
    """The quadrature calls f and domain once on a block of directions;
    a function written for one float direction, or one that does not
    give one value per row, is refused by the stage's name."""
    stage = flat_kropina().stage(XS)

    def scalar_f(y):
        return math.fsum(v * v for v in y) / (2.0 * float(y[0]))

    def scalar_domain(y):
        return bool(y[0] > 0)

    stages = [
        stage._replace(name="scalar-F", f=scalar_f),
        stage._replace(name="scalar-domain", domain=scalar_domain),
        stage._replace(name="constant-F", f=lambda ys: 0.5),
    ]
    for bad in stages:
        with pytest.raises(TypeError, match=bad.name):
            bh_density(bad)


def test_unit_ball_volume_values():
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0)


def test_jet_derivatives_match_fd():
    """Spot-check module-internal derivatives against finite differences."""
    F = wavy_kropina()
    sig = weighted_density(parse_expr("0.3*x1 + 0.1*x2^2", 3), 3)
    x = [0.2, 0.1, -0.3]
    y = [1.2, 0.4, -0.1]
    Gj = spray_jets(F, y, f2_jet(F, x, y, 3))
    tau = tau_jet(F, sig, x, f2_jet(F, x, y, 3))
    checks = 0
    for k in range(3):
        idx = tuple(1 if v == k else 0 for v in range(3))
        for i in range(3):
            fx = fd_partial(lambda p: spray_generic(F, list(p), y)[i], x, idx)
            fy = fd_partial(lambda q: spray_generic(F, x, list(q))[i], y, idx)
            gx = gradient(Gj[i])[k]
            gy = gradient(Gj[i])[3 + k]
            assert abs(fx - gx) < 1e-5 * max(1.0, abs(gx))
            assert abs(fy - gy) < 1e-5 * max(1.0, abs(gy))
            checks += 2
        tx = fd_partial(lambda p: sample(F, list(p), y, sigma=sig).tau, x, idx)
        ty = fd_partial(lambda q: sample(F, x, list(q), sigma=sig).tau, y, idx)
        assert abs(tx - gradient(tau)[k]) < 1e-5 * max(1.0, abs(tx))
        assert abs(ty - gradient(tau)[3 + k]) < 1e-5 * max(1.0, abs(ty))
        checks += 2
    assert checks == 24


def _separate_routes(F, sig, x, y, f):
    """The bundle's quantities, each from its own jet of F^2 of the
    lowest order that carries it, as separate per-quantity routes would
    compute them."""
    from kropina.generic import _riemann_from_spray
    from kropina.jets import jet_space

    n = F.dim
    yv = np.asarray(y)
    g = np.array([[m.value for m in row]
                  for row in metric_jets(f2_jet(F, x, y, 2), n)])
    G = spray_generic(F, x, y)
    Gj4 = spray_jets(F, y, f2_jet(F, x, y, 4))
    R = _riemann_from_spray(np.array([G.coef for G in Gj4]), y, n)
    tau = 0.5 * math.log(np.linalg.det(g)) - math.log(sig(list(x)))
    grad = gradient(tau_jet(F, sig, x, f2_jet(F, x, y, 3)))
    s = float(yv @ grad[:n] - 2.0 * G @ grad[n:])
    # S as a first-order jet from the order-4 F^2 jet, then its
    # horizontal derivative along first-order spray jets
    f4 = f2_jet(F, x, y, 4)
    tau2 = tau_jet(F, sig, x, f4)
    Gj = spray_jets(F, y, truncate(f4, 3))
    space1 = jet_space(2 * n, 1)
    s_jet = space1.constant(0.0)
    for m in range(n):
        ym = space1.variable(n + m, y[m])
        s_jet = s_jet + ym * deriv(tau2, m) - Gj[m] * deriv(tau2, n + m) * 2.0
    Gv = np.array([Gm.value for Gm in Gj])
    sgrad = gradient(s_jet)
    return {
        "g": g,
        "riemann": R,
        "ricci": float(np.trace(R)),
        "tau": tau,
        "s": s,
        "sdot": float(yv @ sgrad[:n] - 2.0 * Gv @ sgrad[n:]),
        "hess_f": hess_form(f, x, y, G, n),
    }


def test_curvature_sample_bundle():
    F = wavy_kropina()
    sig = weighted_density(parse_expr("0.3*x1 + 0.1*x2^2", 3), 3)
    f = parse_expr("0.3*x1 + 0.1*x2^2", 3)
    x = [0.2, 0.1, -0.3]
    y = [1.2, 0.4, -0.1]
    cs = sample(F, x, y, sigma=sig)
    sep = _separate_routes(F, sig, x, y, f)
    assert np.allclose(cs.g, sep["g"], atol=1e-12)
    assert np.allclose(cs.spray, spray_generic(F, x, y), atol=1e-12)
    assert np.allclose(cs.riemann, sep["riemann"], atol=1e-10)
    assert cs.ricci == pytest.approx(sep["ricci"], abs=1e-10)
    assert cs.tau == pytest.approx(sep["tau"], abs=1e-12)
    assert cs.s == pytest.approx(sep["s"], abs=1e-12)
    assert cs.sdot == pytest.approx(sep["sdot"], abs=1e-10)
    assert hess_form(f, x, y, cs.spray, 3) == pytest.approx(sep["hess_f"],
                                                            abs=1e-12)
    # Euler identities for the bundle itself
    f2 = float(F(x, y)) ** 2
    assert abs(np.asarray(y) @ cs.g @ np.asarray(y) - f2) < 1e-10 * max(1, f2)
    assert np.allclose(cs.connection @ np.asarray(y), 2.0 * cs.spray, atol=1e-10)


def _same_bits(a, b):
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_sample(staged, oracle):
    for name in ("x", "y", "g", "spray", "connection", "riemann", "ricci",
                 "tau", "s", "sdot", "s_bh"):
        assert _same_bits(getattr(staged, name), getattr(oracle, name)), name


@pytest.mark.parametrize("source", [
    flat_wind(2), flat_wind(4), "s3_hopf", "euclid_gaussian",
])
def test_staged_sample_equals_oracle_bit_for_bit(source):
    """A chart point's samples, whose log densities come from its one jet
    evaluation over the n chart variables, are what the per-direction
    oracle computes from the density callables over the 2n variables,
    bit for bit, weighted and unit-ball S included."""
    sc = load_scenario(source)
    space = sc.space()
    ev = loop_metric(space)
    dens = volume_density(space)
    bh = bh_volume_density(space) if space.weight is not None else None
    checked = 0
    for x, ys in scenario_samples(sc, cutoff=COMPARISON_CUTOFF)[:2]:
        point = chart_point(space, x, ys[:3])
        for k, y in enumerate(point.ys):
            _assert_same_sample(
                sample_row(point.samples, k),
                curvature_sample_oracle(ev, dens, x, y, bh=bh),
            )
            checked += 1
    assert checked == 6
    assert (space.weight is not None) == (source == "euclid_gaussian")


def test_staged_sample_equals_oracle_without_a_stage():
    """A metric whose at(x) does no work at x alone gives the oracle's
    sample too."""
    F = wavy_kropina()
    sig = weighted_density(parse_expr("0.3*x1 + 0.1*x2^2", 3), 3)
    f = parse_expr("x1^2 + 0.5*x2*x3", 3)
    x = [0.2, 0.1, -0.3]
    samples = point_samples(F.stage(x), [[1.2, 0.4, -0.1], [0.9, -0.3, 0.2]],
                            log_density(sig, x),
                            log_density(const_density, x))
    for k, y in enumerate(samples.y):
        _assert_same_sample(
            sample_row(samples, k),
            curvature_sample_oracle(F, sig, x, y, bh=const_density),
        )


# The package's graded solve against jet_solve's Gauss-Jordan route on
# the staging test's samples: the largest |package - route| of each
# quantity over max(1, |route|).  Measured: g 0 (no elimination reaches
# it), s_bh 7.1e-13 (as s, which it is without a weight), spray 4.4e-15,
# connection 1.3e-14, riemann 3.7e-12, ricci 8.1e-12, tau 4.2e-16,
# s 7.1e-13, sdot 5.0e-10 (s3_hopf, where S-dot is roundoff about 0:
# -1.73e-9 against -1.24e-9).
ROUTE_BOUNDS = {
    "g": 0.0, "spray": 1e-13, "connection": 1e-13, "riemann": 1e-10,
    "ricci": 1e-10, "tau": 1e-14, "s": 1e-11, "sdot": 1e-8, "s_bh": 1e-11,
}


def test_sample_agrees_with_the_gauss_jordan_route():
    """curvature_sample against the oracle with Gauss-Jordan
    elimination, quantity by quantity, within ROUTE_BOUNDS."""
    worst = dict.fromkeys(ROUTE_BOUNDS, 0.0)
    for source in (flat_wind(2), flat_wind(4), "s3_hopf",
                   "euclid_gaussian"):
        sc = load_scenario(source)
        space = sc.space()
        ev = loop_metric(space)
        dens = volume_density(space)
        bh = bh_volume_density(space) if space.weight is not None else None
        for x, ys in scenario_samples(sc, cutoff=COMPARISON_CUTOFF)[:2]:
            point = chart_point(space, x, ys[:3])
            for k, y in enumerate(point.ys):
                got = sample_row(point.samples, k)
                want = curvature_sample_oracle(
                    ev, dens, x, y, bh=bh, eliminate=eliminate_gauss_jordan)
                for name in ROUTE_BOUNDS:
                    a, b = getattr(got, name), getattr(want, name)
                    assert (a is None) == (b is None), name
                    if a is None:
                        continue
                    a, b = np.asarray(a, float), np.asarray(b, float)
                    dev = np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b)))
                    worst[name] = max(worst[name], dev)
    over = {k: v for k, v in worst.items() if v > ROUTE_BOUNDS[k]}
    assert not over, over


def test_gauss_jordan_deviation_per_dimension():
    """The worst deviation between the package's sample and the
    Gauss-Jordan route, per dimension of random_scenario, over the
    eliminated quantities (seeds 1-3, first chart point, two
    directions; scaled as ROUTE_BOUNDS is).  Every dimension the schema
    accepts is held to one bound, so a decay with n fails here.
    Measured: 3.1e-16 at n = 2, 1.3e-15 at 3, 9.9e-16 at 4, 6.3e-15 at
    5 and 1.3e-15 at 6."""
    names = ("spray", "connection", "riemann", "ricci", "tau", "s", "sdot")
    worst = {}
    for n in range(2, 7):
        worst[n] = 0.0
        for seed in (1, 2, 3):
            sc = load_scenario(random_scenario(seed, n))
            space = sc.space()
            ev = loop_metric(space)
            dens = volume_density(space)
            x, ys = scenario_samples(sc, cutoff=COMPARISON_CUTOFF)[0]
            point = chart_point(space, x, ys[:2])
            for k, y in enumerate(point.ys):
                got = sample_row(point.samples, k)
                want = curvature_sample_oracle(
                    ev, dens, x, y, eliminate=eliminate_gauss_jordan)
                for name in names:
                    a = np.asarray(getattr(got, name), float)
                    b = np.asarray(getattr(want, name), float)
                    worst[n] = max(worst[n], np.max(np.abs(a - b))
                                   / max(1.0, np.max(np.abs(b))))
    assert all(dev <= 1e-13 for dev in worst.values()), worst


def test_degenerate_metric_reported():
    def func(x, y):
        q = y[0] * y[0]
        return q.sqrt() if isinstance(q, Jet) else np.sqrt(q)

    F = plain_metric(2, func, lambda x, y: np.asarray(y[0]) > 0, "rank1")
    with pytest.raises(SingularMetricError):
        sample(F, [0.0, 0.0], [1.0, 0.3])


# -- the stacked direction stage of the (alpha, beta) view ------------------


def _bits(v):
    """A value's kind and bytes: a jet's coefficients, a column's, or a
    float's (a Python or a numpy one)."""
    if isinstance(v, Jet):
        return Jet, v.space, v.coef.tobytes()
    if isinstance(v, float):
        return float, np.float64(v).tobytes()
    return type(v), v.shape, v.tobytes()


STAGE_SOURCES = ["s3_hopf", "torus_wind", flat_wind(4), "s5_hopf",
                 *(random_scenario(3, n) for n in range(2, 7))]


def _stage_case(source, directions):
    """A case of the stage's bit test: the blocks of ten directions keep
    the bare source id, those of one direction add "-D1"."""
    name = source if isinstance(source, str) else (
        f"{source['name']}_{source['dimension']}")
    return pytest.param(source, directions, id=name + (
        "" if directions == 10 else f"-D{directions}"))


@pytest.mark.parametrize("source, directions", [
    _stage_case(s, d) for d in (10, 1) for s in STAGE_SOURCES])
def test_direction_stage_equals_the_jet_loop_bit_for_bit(source, directions):
    """finsler_stage's f, domain and jets (a chart point's stage, whose
    jets read its x-stage's order-4 arrays), each called on a block of
    one direction (where _row_sum sums a single column) or of ten, give
    row by row the bits of the loop of Jet and float operations
    (oracles.loop_metric): F and its domain at each float direction,
    and F's jet at the order-4 seeds of x and of each direction, the
    quotient of the jets' two forms over the whole block."""
    sc = load_scenario(source)
    space = sc.space()
    n = space.dim
    ref = loop_metric(space)
    sp = jet_space(2 * n, 4)
    compared = 0
    for x, ys in scenario_samples(sc, points=2, directions=directions,
                                  seed=4):
        stage = chart_point(space, x).stage
        f, dom, rows = stage.f(ys), stage.domain(ys), f_jets(stage, ys)
        assert f.shape == dom.shape == (directions,)
        xf = [float(v) for v in x]
        loop = ref.at(xf)
        g = ref.at([sp.variable(i, v) for i, v in enumerate(xf)]).f
        for k, y in enumerate(ys):
            d = [float(v) for v in y]
            assert _bits(float(f[k])) == _bits(loop.f(d))
            assert bool(dom[k]) is bool(loop.domain(d))
            seeds = [sp.variable(n + i, v) for i, v in enumerate(d)]
            assert _bits(Jet(sp, rows[k].copy())) == _bits(g(seeds))
            compared += 1
    assert compared == 2 * directions


def test_direction_stage_refuses_jets_it_cannot_stack():
    """finsler_stage takes a float chart point, and the f, domain and
    jets of a chart point's stage a block of float directions: a jet
    chart point, or a block holding a jet, seeds included, raises
    TypeError."""
    space = load_scenario("s3_hopf").space()
    sp = jet_space(6, 2)
    x = [0.1, -0.2, 0.3]
    xj = [sp.variable(i, v) for i, v in enumerate(x)]
    with pytest.raises(TypeError):
        finsler_stage(space, xj)
    stage = chart_point(space, x).stage
    y = [1.0, 0.5, -0.2]
    assert stage.f([y]).shape == (1,)
    seeds = [sp.variable(3 + k, v) for k, v in enumerate(y)]
    refused = (
        [seeds],
        [[seeds[0] * 2.0, seeds[1], seeds[2]]],          # not a seed
        [[seeds[0], y[1], seeds[2]]],                    # a float among seeds
    )
    for block in refused:
        for fn in (stage.f, stage.domain, stage.jets):
            with pytest.raises(TypeError):
                fn(block)


def test_curvature_sample_makes_two_jet_products(monkeypatch):
    """One curvature pass over a chart point's directions multiplies two
    pairs of jets, Q times 1/L and F times F, each a batch of all the
    directions, and takes no product with a seed: the direction stage
    works on stacked arrays and the series of 1/L on coefficient arrays.
    It makes no other product: the stage's jets read the order-4 arrays
    of a_ij and b_i that the chart point's x-stage evaluated.  (The Jet
    loop made 27 products per direction, 13 of them with a seed, on
    s3_hopf.)"""
    counts = Counter()
    real_mul, real_seed = Jet.__mul__, Jet._times_seed

    def mul(a, b):
        counts["mul", a.coef.shape] += 1
        return real_mul(a, b)

    def times_seed(a, seed):
        counts["seed"] += 1
        return real_seed(a, seed)

    for source in ("s3_hopf", flat_wind(4)):
        sc = load_scenario(source)
        x, ys = scenario_samples(sc)[0]
        pt = chart_point(sc.space(), x)
        log_densities = pt.log_densities
        ncoef = jet_space(2 * sc.space().dim, 4).ncoef
        for block in (ys[:1], ys):
            monkeypatch.setattr(Jet, "__mul__", mul)
            monkeypatch.setattr(Jet, "__rmul__", mul)
            monkeypatch.setattr(Jet, "_times_seed", times_seed)
            counts.clear()
            curvature_samples([(pt.stage, block, *log_densities)])
            monkeypatch.undo()
            assert counts == {("mul", (len(block), ncoef)): 2}


def test_check_invertible_decides_as_the_condition_number():
    """The eigenvalue test of a symmetric g refuses exactly the matrices
    whose np.linalg.cond exceeds 1e13, across the bound: definite and
    indefinite, sizes 2 to 8, condition numbers from 1e11 to 1e15, and
    the singular and zero matrices."""
    rng = np.random.default_rng(13)
    cases = [np.zeros((3, 3)), np.diag([1.0, 0.0, 2.0])]
    for n in (2, 3, 4, 6, 8):
        for log_cond in (11.0, 12.0, 12.5, 12.9, 13.1, 13.5, 14.0, 15.0):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            lam = np.logspace(0.0, -log_cond, n) * rng.choice([-1.0, 1.0], n)
            g = (q * lam) @ q.T * 10.0 ** rng.uniform(-3, 3)
            cases.append((g + g.T) / 2.0)
    refused = []
    for g in cases:
        try:
            _check_invertible(g)
            refused.append(False)
        except SingularMetricError:
            refused.append(True)
    with np.errstate(all="ignore"):
        assert refused == [bool(np.linalg.cond(g) > 1e13) for g in cases]
    assert 0 < sum(refused) < len(cases)
    with pytest.raises(SingularMetricError, match="non-finite"):
        _check_invertible(np.diag([1.0, np.nan]))
