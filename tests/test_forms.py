"""Closed Kropina forms against the generic pipeline and each other."""
import math

import numpy as np
import pytest

from fd import fd_partial
from kropina.expr import eval_expr, parse_expr
from kropina.forms import (
    AbInvariants,
    GaugeError,
    HypothesisNotMetError,
    KropinaSpace,
    finsler_stage,
    hess_f_closed,
    hess_form,
    isotropy_fit,
    kropina_ricci_closed,
    kropina_spray_closed,
    nav_ricci_isotropic,
    nav_spray,
    s_bh_closed,
    s_closed,
    s_dot_closed,
    sigma_bh,
)
from kropina.generic import (
    ConicDomainError,
    bh_density,
)
from kropina.riemann import MetricPoint
from kropina.scenarios import load_scenario
from oracles import (
    ab_fields,
    bh_density_mc,
    bh_volume_density,
    chart_point,
    ellipsoid_box,
    field_point,
    jet_partials,
    log_density,
    loop_metric,
    metric_from_strings,
    nav_point,
    nav_metric,
    nav_riemann_isotropic,
    rs_from_RS,
    point_samples,
    sample_row,
    spray_generic,
    validate_views,
    volume_density,
    w_invariants,
    with_gauge,
    with_weight,
)

EUCLID3 = metric_from_strings([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
SPHERE3 = metric_from_strings(
    [["1", "0", "0"], ["0", "sin(x1)^2", "0"], ["0", "0", "cos(x1)^2"]]
)
HOPF_W = ("0", "1", "1")
HOPF_W_AST = [parse_expr(e, 3) for e in HOPF_W]
TORUS_W = ("0", "sin(x3)/sin(x1)", "cos(x3)/cos(x1)")


def hopf_space(gauge=None, weight=None):
    return KropinaSpace.from_nav(
        SPHERE3, HOPF_W, gauge=gauge, weight=weight, name="s3_hopf"
    )


def wavy_space(weight=None):
    a = metric_from_strings([
        ["1 + 0.1*sin(x2)", "0.05*x3", "0"],
        ["0.05*x3", "1 + 0.1*x1^2", "0"],
        ["0", "0", "1 + 0.05*x1"],
    ])
    b = ("1 + 0.05*x2", "0.1*x1", "0.05")
    return KropinaSpace.from_ab(a, b, weight=weight, name="wavy")


def twisted_space():
    """Unit but non-Killing wind on the round metric, nontrivial gauge."""
    return KropinaSpace.from_nav(
        SPHERE3, TORUS_W, gauge="2 + 0.3*x2", name="twisted"
    )


def parallel_space():
    return KropinaSpace.from_nav(EUCLID3, ("1", "0", "0"), name="flat_wind")


def conformal_space():
    """Drift b_i = 0.4 x_i on flat ground: r_ij = 0.4 a_ij exactly."""
    return KropinaSpace.from_ab(
        EUCLID3, ("0.4*x1", "0.4*x2", "0.4*x3"), name="conformal"
    )


def admissible_samples(space, rng, count, shift=(0.0, 0.0, 0.0), scale=0.35,
                       cutoff=0.05):
    """(x, y) pairs with beta > 0, away from the cone boundary.

    cutoff bounds beta / (|y|_alpha b) from below; comparisons against
    the jet pipeline keep it at 0.05 because the order-4 jets of
    (alpha^2/beta)^2 lose digits rapidly as the cone is approached.
    """
    shift = np.asarray(shift, dtype=float)
    out = []
    while len(out) < count:
        x = shift + scale * rng.uniform(-1.0, 1.0, space.dim)
        y = rng.normal(size=space.dim)
        env = [float(v) for v in x]
        a_val = np.array([
            [eval_expr(space.a.exprs[i][j], env) for j in range(space.dim)]
            for i in range(space.dim)
        ])
        bl = np.array([eval_expr(e, env) for e in space.b], dtype=float)
        beta = float(bl @ y)
        if beta < 0.0:
            y, beta = -y, -beta
        gauge = float(eval_expr(space.gauge, env))
        y_norm = math.sqrt(float(y @ a_val @ y))
        if beta <= cutoff * y_norm * gauge:
            continue
        out.append((x, y))
    return out


HOPF_SHIFT = (0.7, 0.3, 0.5)


# -- construction and view consistency ----------------------------------------


def test_views_consistent_on_hopf():
    space = hopf_space()
    rng = np.random.default_rng(11)
    pairs = admissible_samples(space, rng, 50, shift=HOPF_SHIFT, scale=0.3)
    validate_views(space, [x for x, _ in pairs], ys=[y for _, y in pairs])


def test_views_consistent_from_ab():
    space = wavy_space()
    rng = np.random.default_rng(12)
    pairs = admissible_samples(space, rng, 20)
    validate_views(space, [x for x, _ in pairs], ys=[y for _, y in pairs])


def test_canonical_gauge_collapses_views():
    space = parallel_space()
    x = [0.3, -0.1, 0.2]
    env = x
    for i in range(3):
        for j in range(3):
            assert eval_expr(space.a.exprs[i][j], env) == pytest.approx(
                eval_expr(space.h.exprs[i][j], env), abs=1e-15
            )
    w_low = np.array([1.0, 0.0, 0.0])
    b_val = np.array([eval_expr(e, env) for e in space.b])
    assert np.allclose(b_val, 2.0 * w_low, atol=1e-15)


def test_roundtrip_ab_nav_ab():
    space = wavy_space()
    h, w = space.h, space.w
    back = KropinaSpace.from_nav(h, w, gauge=space.gauge)
    a2, b2 = back.a, back.b
    rng = np.random.default_rng(13)
    for x, _ in admissible_samples(space, rng, 10):
        env = [float(v) for v in x]
        for i in range(3):
            assert eval_expr(b2[i], env) == pytest.approx(
                eval_expr(space.b[i], env), abs=1e-12
            )
            for j in range(3):
                assert eval_expr(a2.exprs[i][j], env) == pytest.approx(
                    eval_expr(space.a.exprs[i][j], env), abs=1e-12
                )


def test_gauge_change_preserves_f():
    base = hopf_space()
    alt = with_gauge(base, "2 + 0.3*x2")
    alt2 = with_gauge(base, "1.5 + 0.1*x1^2")
    rng = np.random.default_rng(14)
    for x, y in admissible_samples(base, rng, 50, shift=HOPF_SHIFT, scale=0.3):
        v0 = finsler_stage(base, x).f([y])[0]
        assert finsler_stage(alt, x).f([y])[0] == pytest.approx(v0, rel=1e-10)
        assert finsler_stage(alt2, x).f([y])[0] == pytest.approx(v0,
                                                               rel=1e-10)


def test_non_unit_wind_rejected():
    with pytest.raises(ValueError, match="not h-unit"):
        KropinaSpace.from_nav(
            EUCLID3, ("1", "0.3", "0"), check_at=[[0.0, 0.0, 0.0]]
        )


def test_validate_catches_broken_views():
    good = parallel_space()
    bad = KropinaSpace(
        dim=3, a=EUCLID3, b=good.b, b_up=good.b_up, h=SPHERE3, w=good.w,
        gauge=good.gauge, rho=good.rho,
    )
    with pytest.raises(ValueError):
        validate_views(bad, [[0.4, 0.2, 0.1]])


# -- drift invariants ----------------------------------------------------------


def test_parallel_drift_all_zero():
    space = parallel_space()
    fld = ab_fields(space, [0.2, 0.4, -0.1])
    inv = AbInvariants(fld, [1.0, 0.3, 0.2])
    assert np.allclose(fld.r, 0.0, atol=1e-15)
    assert np.allclose(fld.s, 0.0, atol=1e-15)
    for name in ("r_00", "r_0", "s_0", "r00_0", "s0_0", "div_s0", "r0_0",
                 "sk_sk0", "rk_sk0", "r0k_sk0"):
        assert getattr(inv, name) == pytest.approx(0.0, abs=1e-15), name
    for name in ("div_s", "sksk", "ss", "sr"):
        assert getattr(fld, name) == pytest.approx(0.0, abs=1e-15), name
    assert np.allclose(inv.s_i0, 0.0, atol=1e-15)


def test_conformal_drift_fits_eta():
    space = conformal_space()
    x = [0.6, 0.2, -0.3]
    fit = isotropy_fit(ab_fields(space, x))
    assert fit.residual <= 1e-8 * fit.scale
    assert fit.eta == pytest.approx(0.4, abs=1e-9)
    inv = AbInvariants(ab_fields(space, x), [0.5, 1.0, 0.2])
    assert inv.r_00 == pytest.approx(0.4 * inv.alpha2, rel=1e-12)
    assert np.allclose(inv.fields.s, 0.0, atol=1e-14)


def test_symmetry_antisymmetry_and_s00():
    rng = np.random.default_rng(15)
    for _ in range(30):
        c = [float(v) for v in rng.uniform(-0.08, 0.08, size=6)]
        a = metric_from_strings([
            [f"1 + {c[0]!r}*x2", f"{c[1]!r}*x3", "0"],
            [f"{c[1]!r}*x3", f"1 + {c[2]!r}*x1", "0"],
            ["0", "0", f"1 + {c[3]!r}*x1"],
        ])
        space = KropinaSpace.from_ab(
            a, (f"1 + {c[4]!r}*x2", f"{c[5]!r}*x1", "0.1")
        )
        x, y = admissible_samples(space, rng, 1)[0]
        fld = ab_fields(space, x)
        assert np.allclose(fld.s, -fld.s.T, atol=1e-13)
        assert np.allclose(fld.r, fld.r.T, atol=1e-13)
        assert float(y @ fld.s @ y) == pytest.approx(0.0, abs=1e-13)


def test_invariants_require_positive_beta():
    space = wavy_space()
    fld = ab_fields(space, [0.1, 0.0, 0.0])
    with pytest.raises(ConicDomainError):
        AbInvariants(fld, [-1.0, 0.0, 0.0])


def test_ab_fields_evaluate_both_views_in_one_call(monkeypatch):
    """a_ij, b^i, h_ij, W^i, the gauge and the weight of a chart point go
    through one eval_expr call over the order-2 jets of x, so the a_ij
    nodes inside b^i's adjugate trees are evaluated once per point; the
    x-stage's only other evaluations are F's stage, a_ij and b_i to
    order 4 and over floats.  The drift bundle, the navigation point
    and the weight's partials are those of each view's own evaluation,
    bit for bit."""
    import kropina.riemann as riemann
    from kropina.jets import Jet

    calls = []
    real = riemann.eval_expr

    def counted(exprs, env):
        jets = isinstance(env[0], Jet)
        calls.append((env[0].space.order if jets else "float", len(exprs)))
        return real(exprs, env)

    monkeypatch.setattr(riemann, "eval_expr", counted)
    x = [0.3, 0.2, -0.1]
    space = wavy_space(weight="0.1*(x1^2 + x2*x3)")
    pt = chart_point(space, x)
    fld, nav, _ = pt.fld, pt.nav, pt.log_densities
    assert calls == [(2, 9 + 3 + 9 + 3 + 1 + 1), (4, 9 + 3),
                     ("float", 9 + 3)]
    monkeypatch.undo()
    for got, metric, field in ((fld, space.a, space.b_up),
                               (nav, space.h, space.w)):
        mp = MetricPoint.from_exprs(metric, x, order=2)
        fp = field_point(mp, field, x, order=2)
        for name in ("g", "dg", "d2g"):
            assert np.array_equal(getattr(got.mp, name), getattr(mp, name))
        for name in ("w", "dw", "d2w"):
            assert np.array_equal(getattr(got, name), getattr(fp, name))
    _, df, d2f = jet_partials(space.weight, x, 2)
    assert np.array_equal(fld.f_grad, df) and np.array_equal(fld.f_hess, d2f)


def test_ab_fields_report_an_indefinite_metric_first():
    """Where a is not positive definite and b^i fails to evaluate, the
    metric is the error, as when a was evaluated on its own."""
    from kropina.riemann import NotPositiveDefiniteError

    a = metric_from_strings([["1", "0", "0"], ["0", "x1", "0"],
                             ["0", "0", "1"]])
    space = KropinaSpace.from_ab(a, ("1", "ln(x1)", "0"))
    with pytest.raises(NotPositiveDefiniteError):
        ab_fields(space, [-0.5, 0.1, 0.1])


def test_invariants_built_once_per_direction(monkeypatch):
    """A chart point contracts the drift invariants of all its directions
    in one AbInvariants, which every closed form reads without building
    another."""
    import kropina.forms as forms

    built = []
    real = forms.AbInvariants.__init__

    def init(self, fields, y):
        built.append(np.shape(y))
        real(self, fields, y)

    monkeypatch.setattr(forms.AbInvariants, "__init__", init)
    ys = [[1.0, 0.3, 0.2], [0.8, -0.1, 0.4], [1.1, 0.2, -0.3]]
    pt = chart_point(wavy_space(weight="0.1*x1"), [0.3, 0.2, -0.1], ys)
    for form in (kropina_ricci_closed, s_bh_closed, s_closed, s_dot_closed,
                 kropina_spray_closed, hess_f_closed):
        assert np.shape(form(pt.inv))[:1] == (3,)
    assert pt.inv is pt.inv
    assert built == [(3, 3)]


def test_eta_gradient_matches_analytic():
    # Killing wind with gauge 2 + 0.3 x2 makes r_ij = eta a_ij exactly,
    # with eta = 0.6 / (2 + 0.3 x2).
    space = hopf_space(gauge="2 + 0.3*x2")
    x = [0.7, 0.3, 0.5]
    flds = ab_fields(space, x)
    eta_exact = 0.6 / (2.0 + 0.3 * x[0 + 1])
    assert flds.trace_r_up / flds.n == pytest.approx(eta_exact, rel=1e-10)
    deta_exact = -0.18 / (2.0 + 0.3 * x[1]) ** 2
    assert flds.eta_grad[1] == pytest.approx(deta_exact, rel=1e-7)
    assert flds.eta_grad[0] == pytest.approx(0.0, abs=1e-8)
    assert flds.eta_grad[2] == pytest.approx(0.0, abs=1e-8)
    fit = isotropy_fit(flds)
    assert fit.residual <= 1e-8 * fit.scale
    assert fit.eta == pytest.approx(eta_exact, rel=1e-10)

    # eta is not constant on these scenarios; the exact gradient
    # a^{ij} r_{ij;k} / n must match differencing eta itself
    for name in ("euclid_twist", "torus_wind", "random:3"):
        sc = load_scenario(name)
        space = sc.space()
        x = sc.probe_points()[1]
        fd = [
            fd_partial(lambda p: ab_fields(space, p).trace_r_up / space.dim, x,
                       tuple(int(w == k) for w in range(space.dim)))
            for k in range(space.dim)
        ]
        assert np.max(np.abs(fd)) > 1e-6, name
        assert np.allclose(ab_fields(space, x).eta_grad, fd,
                           rtol=0.0, atol=1e-9), name


# -- closed spray --------------------------------------------------------------


def test_spray_closed_parallel_zero():
    space = parallel_space()
    fld = ab_fields(space, [0.1, 0.2, 0.3])
    g = kropina_spray_closed(AbInvariants(fld, [1.0, 0.4, -0.2]))
    assert np.allclose(g, 0.0, atol=1e-14)


@pytest.mark.parametrize("builder,shift", [
    (wavy_space, (0.0, 0.0, 0.0)),
    (hopf_space, HOPF_SHIFT),
    (twisted_space, HOPF_SHIFT),
])
def test_spray_closed_matches_generic(builder, shift):
    space = builder()
    fev = loop_metric(space)
    rng = np.random.default_rng(16)
    for x, y in admissible_samples(space, rng, 30, shift=shift, scale=0.25):
        closed = kropina_spray_closed(AbInvariants(ab_fields(space, x), y))
        generic = spray_generic(fev, list(x), list(y))
        scale = max(1.0, float(np.max(np.abs(generic))))
        assert np.max(np.abs(closed - generic)) < 1e-8 * scale


def test_spray_closed_homogeneous():
    space = wavy_space()
    x, y = [0.3, -0.2, 0.4], np.array([1.0, 0.3, -0.2])
    g1 = kropina_spray_closed(AbInvariants(ab_fields(space, x), y))
    g2 = kropina_spray_closed(AbInvariants(ab_fields(space, x), 1.7 * y))
    assert np.allclose(g2, 1.7**2 * g1, rtol=1e-12)


# -- closed Ricci --------------------------------------------------------------


@pytest.mark.parametrize("builder,shift", [
    (wavy_space, (0.0, 0.0, 0.0)),
    (hopf_space, HOPF_SHIFT),
    (twisted_space, HOPF_SHIFT),
])
def test_ricci_closed_matches_generic(builder, shift):
    space = builder()
    rng = np.random.default_rng(17)
    for x, y in admissible_samples(space, rng, 30, shift=shift, scale=0.25):
        pt = chart_point(space, x, [y])
        closed = kropina_ricci_closed(AbInvariants(pt.fld, y))
        generic = sample_row(pt.samples, 0).ricci
        assert closed == pytest.approx(generic, rel=1e-7, abs=1e-9)


def test_ricci_closed_flat_wind_zero():
    space = parallel_space()
    fld = ab_fields(space, [0.4, 0.1, 0.0])
    assert kropina_ricci_closed(AbInvariants(fld, [1.0, 0.2, 0.3])) == (
        pytest.approx(0.0, abs=1e-12)
    )


def test_ricci_closed_hopf_value():
    # the Hopf wind on the round 3-sphere keeps constant flag data:
    # Ric = 2 F^2 everywhere on the cone.
    space = hopf_space()
    rng = np.random.default_rng(18)
    for x, y in admissible_samples(space, rng, 10, shift=HOPF_SHIFT, scale=0.3):
        f_val = finsler_stage(space, x).f([y])[0]
        assert kropina_ricci_closed(AbInvariants(ab_fields(space, x), y)) == pytest.approx(
            2.0 * f_val**2, rel=1e-10
        )


def test_ricci_closed_homogeneous():
    space = wavy_space()
    x, y = [0.3, -0.2, 0.4], np.array([1.0, 0.3, -0.2])
    r1 = kropina_ricci_closed(AbInvariants(ab_fields(space, x), y))
    r2 = kropina_ricci_closed(AbInvariants(ab_fields(space, x), 2.3 * y))
    assert r2 == pytest.approx(2.3**2 * r1, rel=1e-12)


# -- S-curvature and its derivative ---------------------------------------------


def test_s_bh_conformal_vanishes():
    space = conformal_space()
    rng = np.random.default_rng(19)
    for x, y in admissible_samples(space, rng, 20, shift=(0.5, 0.1, -0.2)):
        assert s_bh_closed(AbInvariants(ab_fields(space, x), y)) == pytest.approx(0.0, abs=1e-12)


def test_s_bh_matches_generic():
    space = wavy_space()
    rng = np.random.default_rng(20)
    for x, y in admissible_samples(space, rng, 15):
        pt = chart_point(space, x, [y])
        closed = s_bh_closed(AbInvariants(pt.fld, y))
        generic = sample_row(pt.samples, 0).s_bh
        assert closed == pytest.approx(generic, rel=1e-8, abs=1e-10)


def test_s_bh_positively_homogeneous():
    space = wavy_space()
    x, y = [0.3, -0.2, 0.4], np.array([1.0, 0.3, -0.2])
    assert s_bh_closed(AbInvariants(ab_fields(space, x), 3.0 * y)) == pytest.approx(
        3.0 * s_bh_closed(AbInvariants(ab_fields(space, x), y)), rel=1e-12
    )


def test_s_closed_weighted_matches_generic():
    space = wavy_space(weight="0.1*(x1^2 + x2*x3)")
    rng = np.random.default_rng(21)
    for x, y in admissible_samples(space, rng, 10):
        pt = chart_point(space, x, [y])
        closed = s_closed(AbInvariants(pt.fld, y))
        generic = sample_row(pt.samples, 0).s
        assert closed == pytest.approx(generic, rel=1e-8, abs=1e-10)


def test_s_dot_matches_generic_weighted():
    space = wavy_space(weight="0.1*(x1^2 + x2*x3)")
    rng = np.random.default_rng(22)
    for x, y in admissible_samples(space, rng, 10):
        pt = chart_point(space, x, [y])
        closed = s_dot_closed(AbInvariants(pt.fld, y))
        generic = sample_row(pt.samples, 0).sdot / (space.dim + 1)
        assert closed == pytest.approx(generic, rel=1e-8, abs=1e-10)


def test_s_dot_flat_wind_zero():
    space = parallel_space()
    fld = ab_fields(space, [0.1, 0.2, 0.3])
    assert s_dot_closed(AbInvariants(fld, [1.0, 0.1, 0.2])) == pytest.approx(0.0, abs=1e-14)


def test_s_dot_quadratic_weight_is_plain_hessian():
    # flat wind has zero spray, so the geodesic Hessian of
    # f = (lam/2) |x|^2 is just lam |y|^2.
    lam = 0.2
    space = with_weight(parallel_space(), "0.1*(x1^2 + x2^2 + x3^2)")
    y = np.array([1.0, 0.4, -0.3])
    val = s_dot_closed(AbInvariants(ab_fields(space, [0.3, -0.2, 0.5]), y))
    assert val == pytest.approx(lam * float(y @ y), rel=1e-12)


def test_hess_f_closed_matches_generic():
    """The weight's Hessian form along the closed spray against the same
    form along the generic sample's spray."""
    space = wavy_space(weight="0.1*(x1^2 + x2*x3)")
    rng = np.random.default_rng(23)
    for x, y in admissible_samples(space, rng, 10):
        pt = chart_point(space, x, [y])
        closed = hess_f_closed(AbInvariants(pt.fld, y))
        generic = hess_form(pt.fld, y, sample_row(pt.samples, 0).spray)
        assert closed == pytest.approx(generic, rel=1e-9, abs=1e-11)


# -- volume density -------------------------------------------------------------


def test_sigma_bh_matches_monte_carlo():
    """The closed density against the Monte-Carlo oracle over the unit
    ball's box, and against the sphere quadrature to round-off."""
    space = wavy_space()
    x = [0.3, -0.2, 0.4]
    stage = finsler_stage(space, x)
    closed = sigma_bh(space, x)
    est = bh_density_mc(stage, mc_samples=150_000, seed=5,
                        box=ellipsoid_box(space, x))
    assert abs(est.value - closed) < 3.0 * est.stderr
    assert bh_density(stage) == pytest.approx(closed, rel=1e-13)


def test_volume_density_kinds_and_weighting():
    space = wavy_space()
    x = [0.3, -0.2, 0.4]
    plain = bh_volume_density(space)
    assert plain(x) == sigma_bh(space, x)
    weighted = volume_density(with_weight(space, "0.1*x1"))
    expected = math.exp(-4 * 0.1 * x[0]) * plain(x)
    assert weighted(x) == pytest.approx(expected, rel=1e-13)
    # a chart point's log densities, from its one jet evaluation, are
    # the logs of these callables' jets, bit for bit
    for sp in (space, with_weight(space, "0.1*x1")):
        log_sigma, log_bh = chart_point(sp, x).log_densities
        want = log_density(volume_density(sp), x)
        assert log_sigma.coef.tobytes() == want.coef.tobytes()
        if sp.weight is None:
            assert log_bh is None
        else:
            want = log_density(bh_volume_density(sp), x)
            assert log_bh.coef.tobytes() == want.coef.tobytes()


def test_sigma_bh_degenerate_drift_raises():
    space = KropinaSpace.from_ab(EUCLID3, ("0", "0", "0"))
    with pytest.raises(GaugeError):
        sigma_bh(space, [0.1, 0.2, 0.3])


def test_box_hint_brackets_unit_ball():
    """The Monte-Carlo oracle's box of a Kropina unit ball holds it."""
    space = wavy_space()
    x = [0.3, -0.2, 0.4]
    f = finsler_stage(space, x).f
    lo, hi = ellipsoid_box(space, x)
    rng = np.random.default_rng(24)
    ys = rng.uniform(lo - 0.3, hi + 0.3, size=(4000, 3))
    vals = np.array([
        f([y])[0] if float(y[0]) != 0.0 else np.inf for y in ys
    ])
    with np.errstate(invalid="ignore"):
        inside = np.isfinite(vals) & (vals > 0) & (vals < 1)
    assert np.all(ys[inside] >= lo - 1e-12)
    assert np.all(ys[inside] <= hi + 1e-12)


# -- conversions and the two-route check ------------------------------------------


@pytest.mark.parametrize("gauged", [False, True])
def test_rs_from_RS_matches_ab_invariants(gauged):
    space = wavy_space()
    if gauged:
        space = with_gauge(space, "2 + 0.3*x1")
    rng = np.random.default_rng(25)
    for x, y in admissible_samples(space, rng, 30):
        inv = AbInvariants(ab_fields(space, x), y)
        r_00, s_i0, s_0 = rs_from_RS(space, x, y)
        assert r_00 == pytest.approx(inv.r_00, rel=1e-9, abs=1e-12)
        assert np.max(np.abs(s_i0 - inv.s_i0)) < 1e-9
        assert s_0 == pytest.approx(inv.s_0, rel=1e-9, abs=1e-12)


def test_rs_killing_gauged_reduction():
    # Killing wind: the symmetric navigation derivative vanishes, so
    # r_00 = -2 e^{-2 rho} W^j rho_j h^2 and the drift is conformal
    # with eta = -2 W^k rho_k.
    space = hopf_space(gauge="2 + 0.3*x2")
    x = [0.7, 0.3, 0.5]
    y = [0.2, 1.0, 0.4]
    env = list(map(float, x))
    rho2 = -0.3 / (2.0 + 0.3 * x[1])
    w_rho = rho2  # W = (0, 1, 1) and rho depends on x2 only
    e2 = math.exp(-2.0 * float(eval_expr(space.rho, env)))
    h_val = np.array([
        [1.0, 0.0, 0.0],
        [0.0, math.sin(x[0]) ** 2, 0.0],
        [0.0, 0.0, math.cos(x[0]) ** 2],
    ])
    h2 = float(np.asarray(y) @ h_val @ np.asarray(y))
    r_00, _, _ = rs_from_RS(space, x, y)
    assert r_00 == pytest.approx(-2.0 * e2 * w_rho * h2, rel=1e-10)
    fit = isotropy_fit(ab_fields(space, x))
    assert fit.eta == pytest.approx(-2.0 * w_rho, rel=1e-10)


def test_rs_constant_gauge_collapse():
    # with a constant gauge rho is constant, so r_ij = 2 e^{-2 rho} R_ij
    # and the contraction r_00 tracks the navigation-side derivative.
    space = hopf_space(gauge=1.3)
    x = [0.7, 0.3, 0.5]
    y = [0.2, 1.0, 0.4]
    wi = w_invariants(SPHERE3, HOPF_W_AST, x)
    e2 = (1.3 / 2.0) ** 2
    inv = AbInvariants(ab_fields(space, x), y)
    expected = 2.0 * e2 * float(np.asarray(y) @ wi.r_ij @ np.asarray(y))
    assert inv.r_00 == pytest.approx(expected, abs=1e-12)
    r_00, _, _ = rs_from_RS(space, x, y)
    assert r_00 == pytest.approx(expected, abs=1e-12)


# -- navigation-side spray and curvature -------------------------------------------


def test_nav_spray_matches_generic():
    space = twisted_space()
    fev = nav_metric(space)
    rng = np.random.default_rng(26)
    for x, y in admissible_samples(space, rng, 30, shift=HOPF_SHIFT, scale=0.25):
        closed = nav_spray(nav_point(SPHERE3, TORUS_W, x), y)
        generic = spray_generic(fev, list(x), list(y))
        scale = max(1.0, float(np.max(np.abs(generic))))
        assert np.max(np.abs(closed - generic)) < 1e-8 * scale


def test_nav_spray_killing_reduction():
    # Killing wind with vanishing S_j: only the skew term survives.
    x = [0.7, 0.3, 0.5]
    y = np.array([0.2, 1.0, 0.4])
    mp = MetricPoint.from_exprs(SPHERE3, x, order=1)
    wi = w_invariants(SPHERE3, HOPF_W_AST, x)
    w_val = np.array([0.0, 1.0, 1.0])
    w0 = float((mp.g @ w_val) @ y)
    f_val = float(y @ mp.g @ y) / (2.0 * w0)
    g_h = 0.5 * np.einsum("kij,i,j->k", mp.christoffel, y, y)
    expected = g_h - f_val * (wi.s_up @ y)
    nav = nav_point(SPHERE3, HOPF_W, x)
    assert np.allclose(nav_spray(nav, y), expected, atol=1e-12)


def test_nav_spray_flat_zero():
    nav = nav_point(EUCLID3, ("1", "0", "0"), [0.1, 0.2, 0.3])
    g = nav_spray(nav, [1.0, 0.4, -0.2])
    assert np.allclose(g, 0.0, atol=1e-15)


def test_nav_spray_rejects_bad_cone():
    nav = nav_point(EUCLID3, ("1", "0", "0"), [0.0, 0.0, 0.0])
    with pytest.raises(ConicDomainError):
        nav_spray(nav, [-1.0, 0.2, 0.0])


def test_nav_curvature_flat_zero():
    nav = nav_point(EUCLID3, ("1", "0", "0"), [0.1, 0.2, 0.3])
    y = [1.0, 0.4, -0.2]
    assert np.allclose(nav_riemann_isotropic(nav, y), 0.0, atol=1e-15)
    assert nav_ricci_isotropic(nav, y) == 0.0


def test_nav_ricci_matches_generic_on_hopf():
    space = hopf_space()
    fev = nav_metric(space)
    dens = volume_density(space)
    rng = np.random.default_rng(27)
    for x, y in admissible_samples(space, rng, 30, shift=HOPF_SHIFT, scale=0.3):
        closed = nav_ricci_isotropic(nav_point(SPHERE3, HOPF_W, x), y)
        generic = sample_row(point_samples(
            fev.stage(x), [y], log_density(dens, x)), 0).ricci
        assert closed == pytest.approx(generic, rel=1e-7)


def test_nav_riemann_matches_generic_and_trace():
    space = hopf_space()
    fev = nav_metric(space)
    dens = volume_density(space)
    rng = np.random.default_rng(28)
    for x, y in admissible_samples(space, rng, 10, shift=HOPF_SHIFT, scale=0.3):
        closed = nav_riemann_isotropic(nav_point(SPHERE3, HOPF_W, x), y)
        generic = sample_row(point_samples(
            fev.stage(x), [y], log_density(dens, x)), 0).riemann
        assert np.max(np.abs(closed - generic)) < 1e-8 * max(
            1.0, float(np.max(np.abs(generic)))
        )
        assert float(np.trace(closed)) == pytest.approx(
            nav_ricci_isotropic(nav_point(SPHERE3, HOPF_W, x), y), rel=1e-12
        )


def test_nav_curvature_gating_refuses_twist():
    # the twist wind is unit-length but not Killing, so the curvature
    # formulas must refuse instead of returning an unproven value.
    twist = ("cos(x2)", "sin(x2)", "0")
    x, y = [0.1, 0.2, 0.3], [1.0, 0.1, 0.0]
    with pytest.raises(HypothesisNotMetError, match="Killing"):
        nav_riemann_isotropic(nav_point(EUCLID3, twist, x), y)
    with pytest.raises(HypothesisNotMetError):
        nav_ricci_isotropic(nav_point(EUCLID3, twist, x), y)


# -- isotropy equivalence chain -----------------------------------------------------


def test_isotropic_chain_forward():
    # conformal drift: fitted eta exists, S_BH vanishes identically,
    # and the navigation side has vanishing symmetric derivative.
    space = conformal_space()
    rng = np.random.default_rng(29)
    pairs = admissible_samples(space, rng, 15, shift=(0.5, 0.1, -0.2))
    fit = isotropy_fit(ab_fields(space, pairs[0][0]))
    assert fit.residual <= 1e-8 * fit.scale
    for x, y in pairs:
        assert abs(s_bh_closed(AbInvariants(ab_fields(space, x), y))) < 1e-9
    h, w = space.h, space.w
    for x, _ in pairs[:5]:
        mp = MetricPoint.from_exprs(h, list(x), order=1)
        fp = field_point(mp, w, x, order=1)
        c = fp.cov1
        assert np.linalg.norm(0.5 * (c + c.T)) < 1e-9


def test_isotropic_chain_reverse():
    # anisotropic drift: the fit fails, S_BH is nonzero somewhere, and
    # the navigation-side symmetric derivative is visibly nonzero.
    space = wavy_space()
    x = [0.3, -0.2, 0.4]
    fit = isotropy_fit(ab_fields(space, x))
    assert not fit.residual <= 1e-8 * fit.scale
    assert abs(s_bh_closed(AbInvariants(ab_fields(space, x), [1.0, 0.3, -0.2]))) > 1e-6
    h, w = space.h, space.w
    mp = MetricPoint.from_exprs(h, x, order=1)
    fp = field_point(mp, w, x, order=1)
    c = fp.cov1
    assert np.linalg.norm(0.5 * (c + c.T)) > 1e-6


# -- covariant-derivative identities for Killing winds ---------------------------------


def killing_setup(x):
    mp = MetricPoint.from_exprs(SPHERE3, x, order=2)
    fp = field_point(mp, HOPF_W_AST, x, order=2)
    c = fp.cov1
    s_low = 0.5 * (c - c.T)
    ds = 0.5 * (fp.cov2 - fp.cov2.transpose(1, 0, 2))
    return mp, fp, s_low, ds


def test_killing_first_derivative_identity():
    # S^i_{0|k} equals the curvature contraction riem[p,i,k,q] y^p W^q.
    x = [0.7, 0.3, 0.5]
    y = np.array([0.2, 1.0, 0.4])
    mp, fp, s_low, ds = killing_setup(x)
    lhs = np.einsum("il,ljk,j->ik", mp.ginv, ds, y)
    rhs = np.einsum("pikq,p,q->ik", mp.riemann, y, fp.w)
    assert np.allclose(lhs, rhs, atol=1e-10)
    # contracting k with y flips the sign through pair antisymmetry
    lhs2 = lhs @ y
    rhs2 = -np.einsum("pimq,p,m,q->i", mp.riemann, y, fp.w, y)
    assert np.allclose(lhs2, rhs2, atol=1e-10)


def test_killing_contracted_derivative_identity():
    # S_{0|k} = S_mk S^m_0 + W_m riem[p,m,k,q] y^p W^q for the
    # contracted form S_j = W^i S_ij.
    x = [0.7, 0.3, 0.5]
    y = np.array([0.2, 1.0, 0.4])
    mp, fp, s_low, ds = killing_setup(x)
    dwup = mp.ginv @ fp.cov1
    s_up = mp.ginv @ s_low
    dsv = np.einsum("ik,ij->jk", dwup, s_low) + np.einsum(
        "i,ijk->jk", fp.w, ds
    )
    lhs = y @ dsv
    rhs = (s_up @ y) @ s_low + np.einsum(
        "m,pmkq,p,q->k", fp.w_low, mp.riemann, y, fp.w
    )
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_killing_square_identity():
    # S^i_m S^m_0 = riem[p,i,m,q] W^p W^m y^q under the hypothesis.
    x = [0.7, 0.3, 0.5]
    y = np.array([0.2, 1.0, 0.4])
    mp, fp, s_low, _ = killing_setup(x)
    s_up = mp.ginv @ s_low
    lhs = s_up @ (s_up @ y)
    rhs = np.einsum("pimq,p,m,q->i", mp.riemann, fp.w, fp.w, y)
    assert np.allclose(lhs, rhs, atol=1e-10)


# -- evaluator plumbing ---------------------------------------------------------------


def test_evaluator_views_agree():
    space = twisted_space()
    fn = nav_metric(space)
    rng = np.random.default_rng(30)
    for x, y in admissible_samples(space, rng, 20, shift=HOPF_SHIFT, scale=0.25):
        assert finsler_stage(space, x).f([y])[0] == pytest.approx(
            fn(list(x), list(y)), rel=1e-10
        )
