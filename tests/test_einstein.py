"""Weighted Ricci family, the (theta, sigma) fit, and the four checkers."""
import json
import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from kropina import einstein as einstein_mod
from kropina.forms import (
    AbInvariants,
    KropinaSpace,
    kropina_ricci_closed,
)
from kropina.einstein import (
    ChartPoint,
    DispatchError,
    EinsteinAnsatz,
    WeightConfig,
    _Residuals,
    _generic_ric_ac,
    chart_points,
    fit_theta_sigma,
    poly_divisible_by_alpha2,
    pric_constants,
    ric_ac,
    tensor_einstein_check,
    thm41_check,
    thm44_check,
    thm51_check,
    thm61_check,
    weight_preset,
)
from kropina.riemann import MetricPoint, NotPositiveDefiniteError
from oracles import (
    ab_fields,
    einstein_residual,
    fit_residual,
    metric_from_strings,
    pric,
    residuals_per_row,
    ric_ac_via_projective,
    ricci_h,
    weight_constants,
    weighted_ricci_tensor,
)

EUCLID3 = metric_from_strings([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
SPHERE3 = metric_from_strings(
    [["1", "0", "0"], ["0", "sin(x1)^2", "0"], ["0", "0", "cos(x1)^2"]]
)
HOPF_W = ("0", "1", "1")
HOPF_SHIFT = (0.7, 0.3, 0.5)
GAUSS_F = "0.1*(x1^2 + x2^2 + x3^2)"
TWIST_W = ("cos(0.5*x2)", "sin(0.5*x2)", "0")


def hopf_space(weight=None):
    return KropinaSpace.from_nav(SPHERE3, HOPF_W, weight=weight, name="s3_hopf")


def gauss_space():
    return KropinaSpace.from_nav(
        EUCLID3, ("1", "0", "0"), weight=GAUSS_F, name="euclid_gaussian"
    )


def parallel_space():
    return KropinaSpace.from_nav(EUCLID3, ("1", "0", "0"), name="flat_wind")


def twist_space():
    return KropinaSpace.from_nav(EUCLID3, TWIST_W, name="euclid_twist")


def conformal_space():
    return KropinaSpace.from_ab(
        EUCLID3, ("0.4*x1", "0.4*x2", "0.4*x3"),
        weight="0.3*x1 + 0.1*x2^2", name="conformal",
    )


def wavy_space():
    a = metric_from_strings([
        ["1 + 0.1*sin(x2)", "0.05*x3", "0"],
        ["0.05*x3", "1 + 0.1*x1^2", "0"],
        ["0", "0", "1 + 0.05*x1"],
    ])
    return KropinaSpace.from_ab(
        a, ("1 + 0.05*x2", "0.1*x1", "0.05"),
        weight="0.2*x1 + 0.1*x2*x3", name="wavy",
    )


def admissible_directions(space, x, rng, count, cutoff=0.05):
    fld = ab_fields(space, x)
    out = []
    while len(out) < count:
        y = rng.normal(size=space.dim)
        beta = float(fld.bl @ y)
        if beta < 0.0:
            y, beta = -y, -beta
        norm = math.sqrt(float(y @ fld.mp.g @ y))
        if beta > cutoff * norm * math.sqrt(fld.b2):
            out.append(y)
    return out


def checker_samples(space, rng, points=2, dirs=7, shift=(0.0, 0.0, 0.0),
                    scale=0.25):
    shift = np.asarray(shift, dtype=float)
    samples = []
    for _ in range(points):
        x = shift + scale * rng.uniform(-1.0, 1.0, space.dim)
        samples.append((x, admissible_directions(space, x, rng, dirs)))
    return samples


def check(checker, space, cfg, samples, **kw):
    """A checker's report entry on the chart points of samples over
    space."""
    return checker(chart_points(space, samples), cfg, **kw)


def condition(rep, name):
    """The entry of the condition named name in a checker's report."""
    return next(c for c in rep["conditions"] if c["name"] == name)


CFG_INF = weight_preset("ricInf", 3)
CFG_51 = WeightConfig(Fraction(0), Fraction(3, 8), 3)  # kappa=2, nu=0
CFG_PRIC = weight_preset("pric", 3)


# -- weight constants and regimes ----------------------------------------------


def test_weight_constants_examples():
    kappa, nu = weight_constants(1, 0, 3)
    assert kappa == -2.0 and nu == -10.0
    kappa, nu = weight_constants(0, 0, 3)
    assert kappa == 2.0 and nu == 6.0
    a, c = pric_constants(3)
    kappa, nu = weight_constants(a, c, 3)
    assert kappa == 0.0 and nu == 0.0
    with pytest.raises(ValueError):
        weight_constants(1, 0, 1)


def test_ricn_preset():
    cfg = weight_preset("ricN:5", 3)
    assert float(cfg.a) == 1.0
    assert cfg.c == Fraction(1, 2)
    with pytest.raises(ValueError):
        weight_preset("ricN:3", 3)
    with pytest.raises(ValueError):
        weight_preset("nonsense", 3)
    # N is an integer: no float c, and "inf" is not ricInf
    for raw in ("2.5", "inf"):
        with pytest.raises(ValueError, match="needs an integer N"):
            weight_preset(f"ricN:{raw}", 3)


def test_ricinf_nu_value():
    # kappa = -2 in every dimension; nu = -(n + 7)
    for n in (2, 3, 4):
        cfg = weight_preset("ricInf", n)
        assert cfg.kappa == -2.0
        assert cfg.nu == -(n + 7)


def test_pric_constants_exact_zero():
    for n in (2, 3, 4):
        cfg = weight_preset("pric", n)
        assert cfg.kappa_exact == 0
        assert cfg.nu_exact == 0
        assert cfg.regime == "nu=0,kappa=0"
        assert cfg.checkers == ("61",)


def test_regime_classification():
    assert CFG_INF.regime == "nu!=0"
    assert CFG_INF.checkers == ("41", "44")
    assert CFG_51.regime == "nu=0,kappa!=0"
    assert CFG_51.checkers == ("51",)
    # float constants that only round onto the boundary still classify
    # as on it: a = 0, c = 9/25 at n = 4 gives nu = 0 up to rounding
    cfg = WeightConfig(0.0, 9 / 25, 4)
    assert cfg.regime == "nu=0,kappa!=0"


def test_regime_dispatch_total():
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(60):
        if rng.random() < 0.5:
            a = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 7)))
            c = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 7)))
        else:
            a = float(rng.uniform(-2, 2))
            c = float(rng.uniform(-2, 2))
        cfg = WeightConfig(a, c, int(rng.integers(2, 5)))
        assert cfg.regime in ("nu!=0", "nu=0,kappa!=0", "nu=0,kappa=0")
        assert len(cfg.checkers) >= 1
        seen.add(cfg.regime)
    assert "nu!=0" in seen


# -- the curvature family -------------------------------------------------------


def test_ric_ac_plain_is_unweighted_ricci():
    space = wavy_space()
    cfg = weight_preset("plain", 3)
    rng = np.random.default_rng(7)
    x = np.array([0.2, 0.4, -0.3])
    fld = ab_fields(space, x)
    for y in admissible_directions(space, x, rng, 4):
        assert ric_ac(AbInvariants(fld, y), cfg) == pytest.approx(
            kropina_ricci_closed(AbInvariants(fld, y)), rel=1e-12, abs=1e-12
        )


def test_ric_ac_routes_agree():
    space = wavy_space()
    rng = np.random.default_rng(8)
    for cfg in (CFG_INF, weight_preset("ricN:5", 3), CFG_PRIC):
        for shift in ((0.0, 0.0, 0.0), (0.3, -0.2, 0.1)):
            x = np.asarray(shift) + 0.1 * rng.uniform(-1, 1, 3)
            fld = ab_fields(space, x)
            for y in admissible_directions(space, x, rng, 5):
                closed = ric_ac(AbInvariants(fld, y), cfg)
                generic = _generic_ric_ac(
                    chart_points(space, [(x, [y])])[0].samples, cfg)[0]
                assert closed == pytest.approx(
                    generic, rel=1e-5, abs=1e-5 * max(1.0, abs(closed))
                )


def test_gwric2_identity_random_constants():
    space = wavy_space()
    rng = np.random.default_rng(9)
    x = np.array([0.2, 0.4, -0.3])
    fld = ab_fields(space, x)
    ys = admissible_directions(space, x, rng, 3)
    for _ in range(10):
        cfg = WeightConfig(float(rng.uniform(-1.5, 1.5)),
                           float(rng.uniform(-1.5, 1.5)), 3)
        for y in ys:
            direct = ric_ac(AbInvariants(fld, y), cfg)
            via = ric_ac_via_projective(fld, cfg, y)
            assert direct == pytest.approx(
                via, rel=1e-8, abs=1e-8 * max(1.0, abs(direct))
            )


def test_pric_matches_ric_ac_at_projective_constants():
    rng = np.random.default_rng(10)
    for space, shift in ((hopf_space(), HOPF_SHIFT), (wavy_space(), (0, 0, 0))):
        x = np.asarray(shift, dtype=float)
        fld = ab_fields(space, x)
        for y in admissible_directions(space, x, rng, 4):
            assert pric(fld, y) == pytest.approx(
                ric_ac(AbInvariants(fld, y), CFG_PRIC), rel=1e-8, abs=1e-12
            )


def test_hopf_ric_ac_weight_independent():
    # S = 0 on the Killing example, so every (a, c) sees the plain Ricci
    space = hopf_space()
    rng = np.random.default_rng(12)
    x = np.array(HOPF_SHIFT)
    fld = ab_fields(space, x)
    for y in admissible_directions(space, x, rng, 3):
        base = kropina_ricci_closed(AbInvariants(fld, y))
        inv = AbInvariants(fld, y)
        assert base == pytest.approx(2.0 * inv.F**2, rel=1e-9)
        for cfg in (CFG_INF, CFG_51, CFG_PRIC):
            assert ric_ac(AbInvariants(fld, y), cfg) == pytest.approx(base, rel=1e-10)


# -- einstein residual and fit --------------------------------------------------


def test_einstein_residual_known_pair_on_hopf():
    space = hopf_space()
    rng = np.random.default_rng(13)
    x = np.array(HOPF_SHIFT)
    fld = ab_fields(space, x)
    ansatz = EinsteinAnsatz((0.0, 0.0, 0.0), 1.0)
    for y in admissible_directions(space, x, rng, 4):
        assert abs(einstein_residual(fld, CFG_INF, ansatz, y)) < 1e-9


def test_einstein_residual_sigma_perturbation():
    space = hopf_space()
    rng = np.random.default_rng(14)
    x = np.array(HOPF_SHIFT)
    fld = ab_fields(space, x)
    delta = 0.37
    base = EinsteinAnsatz((0.0, 0.0, 0.0), 1.0)
    bumped = EinsteinAnsatz((0.0, 0.0, 0.0), 1.0 + delta)
    for y in admissible_directions(space, x, rng, 4):
        inv = AbInvariants(fld, y)
        r0 = einstein_residual(fld, CFG_INF, base, y)
        r1 = einstein_residual(fld, CFG_INF, bumped, y)
        assert r1 - r0 == pytest.approx(-(3 - 1) * delta * inv.F**2, rel=1e-9)


def test_fit_recovers_hopf_pair():
    space = hopf_space()
    rng = np.random.default_rng(15)
    x = np.array(HOPF_SHIFT)
    inv = AbInvariants(ab_fields(space, x), admissible_directions(space, x, rng, 9))
    fit = fit_theta_sigma(inv, CFG_INF)
    assert fit_residual(inv, CFG_INF, fit) < 1e-9
    assert np.abs(np.array(fit.theta)).max() < 1e-7
    assert fit.sigma == pytest.approx(1.0, abs=1e-7)


def test_fit_recovers_gaussian_pair():
    space = gauss_space()
    rng = np.random.default_rng(16)
    x = np.array([0.3, -0.2, 0.5])
    inv = AbInvariants(ab_fields(space, x), admissible_directions(space, x, rng, 9))
    fit = fit_theta_sigma(inv, CFG_INF)
    assert fit.theta[0] == pytest.approx(2 * 4 * 0.2 / (3 * 2), abs=1e-7)
    assert abs(fit.theta[1]) < 1e-7 and abs(fit.theta[2]) < 1e-7
    assert abs(fit.sigma) < 1e-7
    assert fit_residual(inv, CFG_INF, fit) < 1e-9


def test_fit_flat_is_zero():
    space = parallel_space()
    rng = np.random.default_rng(17)
    x = np.array([0.1, 0.2, 0.3])
    fld = ab_fields(space, x)
    fit = fit_theta_sigma(AbInvariants(fld, admissible_directions(space, x, rng, 8)), CFG_INF)
    assert np.abs(np.array(fit.theta)).max() < 1e-12
    assert abs(fit.sigma) < 1e-12


def test_fit_errors():
    space = hopf_space()
    rng = np.random.default_rng(18)
    x = np.array(HOPF_SHIFT)
    fld = ab_fields(space, x)
    ys = admissible_directions(space, x, rng, 4)
    with pytest.raises(ValueError, match="at least"):
        fit_theta_sigma(AbInvariants(fld, ys), CFG_INF)
    dup = [ys[0]] * 7
    with pytest.raises(ValueError, match="rank"):
        fit_theta_sigma(AbInvariants(fld, dup), CFG_INF)


@pytest.mark.parametrize("block", ["repeated", "scaled"])
def test_rank_deficient_direction_block_raises_before_solving(block,
                                                              monkeypatch):
    """A block of three directions repeated (rank 3) or of one direction
    scaled (rank 2) cannot fix the four unknowns of a 3-D fit; the fit
    raises its ValueError and no solution reaches an EinsteinAnsatz."""
    space = hopf_space()
    x = np.array(HOPF_SHIFT)
    fld = ab_fields(space, x)
    ys = admissible_directions(space, x, np.random.default_rng(18), 3)
    if block == "repeated":
        dirs = list(ys) * 3
    else:
        dirs = [c * ys[0] for c in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
    built = []
    monkeypatch.setattr(einstein_mod, "EinsteinAnsatz",
                        lambda *a: built.append(a))
    with pytest.raises(ValueError, match="direction set is rank-deficient "
                                         "for the theta/sigma fit"):
        fit_theta_sigma(AbInvariants(fld, dirs), CFG_INF)
    assert built == []


# -- pointwise tensor test ------------------------------------------------------


def test_tensor_check_multiple_of_metric():
    h = np.eye(3)
    mu, resid = tensor_einstein_check(5.0 * h, h)
    assert mu == pytest.approx(2.5)
    assert resid < 1e-14


def test_tensor_check_round_sphere():
    x = [0.7, 0.3, 0.5]
    T = ricci_h(SPHERE3, x)
    mu, resid = tensor_einstein_check(
        T, MetricPoint.from_exprs(SPHERE3, x, order=0).g)
    assert mu == pytest.approx(1.0, rel=1e-10)
    assert resid < 1e-10


def test_tensor_check_gaussian_weight():
    cfg = CFG_INF
    x = [0.4, -0.1, 0.2]
    T = weighted_ricci_tensor(EUCLID3, GAUSS_F, cfg, x)
    mu, resid = tensor_einstein_check(
        T, MetricPoint.from_exprs(EUCLID3, x, order=0).g)
    # Hess of the quadratic weight is 2*0.1*I, so mu = a(n+1)*0.2/(n-1)
    assert mu == pytest.approx(1.0 * 4 * 0.2 / 2, rel=1e-12)
    assert resid < 1e-12


def test_tensor_check_rejects_indefinite_metric():
    with pytest.raises(NotPositiveDefiniteError):
        tensor_einstein_check(np.eye(3), np.diag([1.0, -1.0, 1.0]))


# -- polynomial divisibility ----------------------------------------------------


def test_divisibility_recovers_linear_factor():
    rng = np.random.default_rng(19)
    a = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 1.0]])
    v = rng.normal(size=3)
    coeffs = (
        np.einsum("i,jk->ijk", v, a)
        + np.einsum("j,ik->ijk", v, a)
        + np.einsum("k,ij->ijk", v, a)
    ) / 3.0
    q, resid = poly_divisible_by_alpha2(coeffs, a)
    assert np.abs(q - v).max() < 1e-12
    assert resid < 1e-12


def test_divisibility_rejects_pure_cube():
    coeffs = np.zeros((3, 3, 3))
    coeffs[0, 0, 0] = 1.0  # y1^3 is not divisible by a Euclidean alpha^2
    q, resid = poly_divisible_by_alpha2(coeffs, np.eye(3))
    assert resid > 1e-2


def test_divisibility_zero_in_zero_out():
    q, resid = poly_divisible_by_alpha2(np.zeros((3, 3, 3)), np.eye(3))
    assert np.abs(q).max() == 0.0
    assert resid == 0.0


def test_divisibility_degree_two_and_four():
    a = np.array([[1.3, 0.2, 0.0], [0.2, 0.9, 0.0], [0.0, 0.0, 1.1]])
    q, resid = poly_divisible_by_alpha2(4.2 * a, a)
    assert q == pytest.approx(4.2)
    assert resid < 1e-12
    qm = np.array([[0.5, 0.1, 0.0], [0.1, -0.3, 0.2], [0.0, 0.2, 0.8]])
    coeffs = (
        np.einsum("ij,kl->ijkl", qm, a)
        + np.einsum("ik,jl->ijkl", qm, a)
        + np.einsum("il,jk->ijkl", qm, a)
    ) / 3.0
    got, resid = poly_divisible_by_alpha2(coeffs, a)
    assert np.abs(got - qm).max() < 1e-10
    assert resid < 1e-10
    with pytest.raises(ValueError):
        poly_divisible_by_alpha2(np.zeros((3,) * 5), a)


# -- thm41 ----------------------------------------------------------------------


def test_thm41_hopf_passes():
    rng = np.random.default_rng(21)
    space = hopf_space()
    samples = checker_samples(space, rng, shift=HOPF_SHIFT)
    rep = check(thm41_check, space, CFG_INF, samples)
    assert rep["verdict"] == "PASS"
    for mu in rep["scalars"]["mu"]:
        assert mu == pytest.approx(1.0, rel=1e-9)
    for s_f, s_p in zip(rep["scalars"]["sigma_formula"],
                        rep["scalars"]["sigma_proof"]):
        assert s_f == pytest.approx(1.0, rel=1e-9)
        assert s_p == pytest.approx(1.0, rel=1e-9)
    for th in rep["scalars"]["theta_formula"]:
        assert np.abs(th).max() < 1e-12


def test_thm41_gaussian_passes_with_nonzero_theta():
    rng = np.random.default_rng(22)
    space = gauss_space()
    samples = checker_samples(space, rng, shift=(0.2, -0.1, 0.3))
    rep = check(thm41_check, space, CFG_INF, samples)
    assert rep["verdict"] == "PASS"
    assert condition(rep, "einstein-residual-fitted")["residual"] < 1e-6
    assert condition(rep, "einstein-residual-formula")["residual"] < 1e-6
    for th_formula, th_fit in zip(rep["scalars"]["theta_formula"],
                                  rep["scalars"]["theta_fitted"]):
        assert th_formula[0] == pytest.approx(0.8 / 3, rel=1e-8)
        assert th_fit[0] == pytest.approx(0.8 / 3, rel=1e-6)
        assert abs(th_fit[0]) > 1e-3  # genuinely nonzero theta
    for mu in rep["scalars"]["mu"]:
        assert mu == pytest.approx(0.4, rel=1e-9)
    for s in rep["scalars"]["sigma_formula"]:
        assert abs(s) < 1e-10


def test_thm41_flat_all_zero():
    rng = np.random.default_rng(23)
    space = parallel_space()
    samples = checker_samples(space, rng)
    rep = check(thm41_check, space, CFG_INF, samples)
    assert rep["verdict"] == "PASS"
    assert all(abs(m) < 1e-12 for m in rep["scalars"]["mu"])
    assert all(abs(s) < 1e-12 for s in rep["scalars"]["sigma_formula"])


def test_thm41_twist_fails_on_wind_killing():
    rng = np.random.default_rng(24)
    space = twist_space()
    samples = checker_samples(space, rng)
    rep = check(thm41_check, space, CFG_INF, samples)
    assert rep["verdict"] == "FAIL"
    assert not condition(rep, "wind-killing")["passed"]
    # the disagreement between formula and fit is surfaced, not averaged
    assert not condition(rep, "theta-sigma-fit-agreement")["passed"]


def test_thm41_dispatch_error_outside_regime():
    rng = np.random.default_rng(25)
    space = hopf_space()
    samples = checker_samples(space, rng, points=1, shift=HOPF_SHIFT)
    with pytest.raises(DispatchError):
        check(thm41_check, space, CFG_PRIC, samples)


def test_thm41_rejects_non_unit_wind():
    rng = np.random.default_rng(26)
    space = parallel_space()
    samples = checker_samples(space, rng, points=1)
    with pytest.raises(ValueError, match="h-unit"):
        check(thm41_check, KropinaSpace.from_nav(EUCLID3, ("2", "0", "0")),
              CFG_INF, samples)


def test_thm41_names_the_non_unit_wind_point_in_plain_floats():
    space = KropinaSpace.from_nav(EUCLID3, ("1 + 0.5*x1", "0", "0"))
    [pt] = chart_points(space, [([0.2, 0.0, 0.0], [[1.0, 0.0, 0.0]])])
    with pytest.raises(ValueError) as err:
        thm41_check([pt], CFG_INF)
    message = str(err.value)
    assert "h-unit at [0.2, 0.0, 0.0]: " in message
    assert "np.float64" not in message


def test_thm41_unchanged_by_rebuilding_the_space_from_nav_data():
    # F-level quantities do not depend on the gauge, so rebuilding the
    # space from its (h, W) in the canonical gauge changes nothing
    from kropina.scenarios import (
        COMPARISON_CUTOFF, load_scenario, scenario_samples,
    )

    sc = load_scenario("torus_wind")
    space = sc.space()
    cfg = sc.config()
    samples = scenario_samples(sc, points=1, directions=5,
                               cutoff=COMPARISON_CUTOFF)
    own = check(thm41_check, space, cfg, samples)
    rebuilt = check(
        thm41_check,
        KropinaSpace.from_nav(space.h, space.w, weight=space.weight),
        cfg, samples,
    )
    assert own["verdict"] == rebuilt["verdict"]
    assert [c["name"] for c in own["conditions"]] == [
        c["name"] for c in rebuilt["conditions"]
    ]
    for mine, theirs in zip(own["conditions"], rebuilt["conditions"]):
        assert mine["passed"] == theirs["passed"], mine["name"]
        assert abs(mine["residual"] - theirs["residual"]) <= 1e-10, mine["name"]


# -- thm44 ----------------------------------------------------------------------


def test_thm44_hopf_passes_lambda32():
    rng = np.random.default_rng(27)
    space = hopf_space()
    samples = checker_samples(space, rng, shift=HOPF_SHIFT)
    rep = check(thm44_check, space, CFG_INF, samples)
    assert rep["verdict"] == "PASS"
    for lam in rep["scalars"]["lambda"]:
        assert lam == pytest.approx(32.0, rel=1e-9)
    for s in rep["scalars"]["sigma_formula"]:
        assert s == pytest.approx(1.0, rel=1e-9)


def test_thm44_gaussian_passes():
    rng = np.random.default_rng(28)
    space = gauss_space()
    samples = checker_samples(space, rng, shift=(0.1, 0.2, -0.2))
    rep = check(thm44_check, space, CFG_INF, samples)
    assert rep["verdict"] == "PASS"
    for lam in rep["scalars"]["lambda"]:
        assert lam == pytest.approx(16 * 4 * 0.2, rel=1e-8)


def test_thm44_twist_precondition_verdict():
    rng = np.random.default_rng(29)
    space = twist_space()
    samples = checker_samples(space, rng)
    rep = check(thm44_check, space, CFG_INF, samples)
    assert rep["verdict"] == "PRECONDITION"
    iso = condition(rep, "isotropy")
    assert iso["kind"] == "precondition"
    assert not iso["passed"]


def test_thm44_dispatch():
    rng = np.random.default_rng(30)
    space = hopf_space()
    samples = checker_samples(space, rng, points=1, shift=HOPF_SHIFT)
    with pytest.raises(DispatchError):
        check(thm44_check, space, CFG_51, samples)


# -- thm51 ----------------------------------------------------------------------


def test_thm51_hopf_passes_u32():
    rng = np.random.default_rng(32)
    space = hopf_space()
    samples = checker_samples(space, rng, shift=HOPF_SHIFT)
    rep = check(thm51_check, space, CFG_51, samples)
    assert rep["verdict"] == "PASS"
    for u in rep["scalars"]["u"]:
        assert u == pytest.approx(32.0, rel=1e-9)
    for z in rep["scalars"]["zeta"]:
        assert np.abs(z).max() < 1e-10


def test_thm51_flat_passes():
    rng = np.random.default_rng(33)
    space = parallel_space()
    samples = checker_samples(space, rng)
    rep = check(thm51_check, space, CFG_51, samples)
    assert rep["verdict"] == "PASS"


def test_thm51_conformal_zeta_matches_closed_form():
    # not Einstein, but the cubic slot is exactly divisible and zeta has
    # the closed form kappa (b^2 deta + 2 eta (r + s)) + 2(3 kappa
    # - a(n+1)) b^2 eta df on a conformal drift
    rng = np.random.default_rng(34)
    space = conformal_space()
    x = np.array([0.4, -0.3, 0.6])
    samples = [(x, admissible_directions(space, x, rng, 7))]
    rep = check(thm51_check, space, CFG_51, samples)
    div = condition(rep, "cubic-divisibility")
    assert div["kind"] == "precondition"
    assert div["passed"]
    zeta = np.array(rep["scalars"]["zeta"][0])
    fld = ab_fields(space, x)
    eta = 0.4
    kap = CFG_51.kappa
    expect = (
        kap * (fld.b2 * fld.eta_grad + 2 * eta * fld.r_vec + 2 * eta * fld.s_vec)
        + 2 * (3 * kap - float(CFG_51.a) * 4) * fld.b2 * eta * fld.f_grad
    )
    assert np.abs(zeta - expect).max() < 1e-8
    # the drift is conformal but the space is not weakly Einstein here
    assert rep["verdict"] == "FAIL"


def test_thm51_dispatch():
    rng = np.random.default_rng(35)
    space = hopf_space()
    samples = checker_samples(space, rng, points=1, shift=HOPF_SHIFT)
    with pytest.raises(DispatchError):
        check(thm51_check, space, CFG_INF, samples)


# -- thm61 ----------------------------------------------------------------------


def test_thm61_hopf_passes_u32():
    rng = np.random.default_rng(36)
    space = hopf_space()
    samples = checker_samples(space, rng, shift=HOPF_SHIFT)
    rep = check(thm61_check, space, CFG_PRIC, samples)
    assert rep["verdict"] == "PASS"
    for u in rep["scalars"]["u"]:
        assert u == pytest.approx(32.0, rel=1e-9)


def test_thm61_flat_passes():
    rng = np.random.default_rng(37)
    space = parallel_space()
    samples = checker_samples(space, rng)
    rep = check(thm61_check, space, CFG_PRIC, samples)
    assert rep["verdict"] == "PASS"


def test_thm61_constant_weight_zeta_zero():
    rng = np.random.default_rng(38)
    space = hopf_space(weight="0.5")
    samples = checker_samples(space, rng, points=1, shift=HOPF_SHIFT)
    rep = check(thm61_check, space, CFG_PRIC, samples)
    assert rep["verdict"] == "PASS"
    assert np.abs(rep["scalars"]["zeta"][0]).max() < 1e-14


def test_thm61_dispatch():
    rng = np.random.default_rng(39)
    space = hopf_space()
    samples = checker_samples(space, rng, points=1, shift=HOPF_SHIFT)
    with pytest.raises(DispatchError):
        check(thm61_check, space, CFG_INF, samples)


# -- chart points ---------------------------------------------------------------


@pytest.mark.parametrize("checker", [thm41_check, thm44_check, thm51_check,
                                     thm61_check])
def test_checkers_reject_a_config_of_another_dimension(checker):
    """The regime of a config is classified at its own n, so a config
    for another dimension than the points' cannot be judged."""
    rng = np.random.default_rng(44)
    space = hopf_space()
    points = chart_points(space, checker_samples(space, rng, points=1,
                                                 shift=HOPF_SHIFT))
    for cfg in (WeightConfig(1, 0, 7), weight_preset("pric", 4),
                WeightConfig(0, Fraction(3, 4), 2)):
        with pytest.raises(ValueError, match="dimension 3"):
            checker(points, cfg)


def test_chart_point_builds_each_bundle_once(monkeypatch):
    passes = []
    real_samples = einstein_mod.curvature_samples

    def samples(points):
        passes.append([np.array(ys) for _, ys, *_ in points])
        return real_samples(points)

    rng = np.random.default_rng(45)
    space = gauss_space()
    [(x, ys)] = checker_samples(space, rng, points=1, shift=(0.2, -0.1, 0.3))
    monkeypatch.setattr(einstein_mod, "curvature_samples", samples)
    [pt] = chart_points(space, [(x, ys)])
    assert isinstance(pt, ChartPoint)
    assert pt.fld is pt.fld and pt.nav is pt.nav
    assert pt.stage is pt.stage
    assert pt.samples is pt.samples and pt.inv is pt.inv
    assert pt.samples.ricci.shape == pt.inv.F.shape == (len(ys),)
    assert pt.fitted(CFG_INF) is pt.fitted(weight_preset("ricInf", 3))
    assert pt.fitted(CFG_INF) is not pt.fitted(CFG_PRIC)
    assert pt.log_densities is pt.log_densities
    # with a weight, S against sigma_BH differs from the weighted S by
    # (n + 1) f_0; without one the sample's s_bh is its s
    cs = pt.samples
    f_0 = np.array([float(pt.fld.f_grad @ y) for y in ys])
    assert np.allclose(cs.s - cs.s_bh, 4 * f_0, rtol=1e-8, atol=0.0)
    [plain] = chart_points(hopf_space(), [(x, ys[:1])])
    assert plain.log_densities[1] is None
    cs = plain.samples
    assert cs.s_bh is cs.s
    # one generic pass per run, over each point's directions once
    [[first], [second]] = passes
    assert np.array_equal(first, ys) and np.array_equal(second, ys[:1])


# -- cross-cutting properties ---------------------------------------------------


def test_isotropy_follows_from_small_einstein_residual():
    # whenever the fitted residual is below tolerance in the nu != 0
    # regime, the drift must fit r_00 = eta alpha^2 below tolerance too
    from kropina.forms import isotropy_fit

    rng = np.random.default_rng(40)
    cases = [
        (hopf_space(), HOPF_SHIFT),
        (gauss_space(), (0.2, -0.1, 0.3)),
        (twist_space(), (0.0, 0.0, 0.0)),
    ]
    checked = 0
    for space, shift in cases:
        x = np.asarray(shift) + 0.1 * rng.uniform(-1, 1, 3)
        fld = ab_fields(space, x)
        inv = AbInvariants(fld, admissible_directions(space, x, rng, 9))
        if fit_residual(inv, CFG_INF, fit_theta_sigma(inv, CFG_INF)) < 1e-6:
            iso = isotropy_fit(fld)
            assert iso.residual / max(1.0, iso.scale) < 1e-6
            checked += 1
    assert checked >= 2  # hopf and gaussian actually exercise the property


def test_report_round_trips_through_json():
    rng = np.random.default_rng(41)
    space = hopf_space()
    samples = checker_samples(space, rng, points=1, shift=HOPF_SHIFT)
    rep = check(thm44_check, space, CFG_INF, samples)
    assert isinstance(rep["conditions"], list)
    doc = json.loads(json.dumps(rep))
    assert doc["theorem"] == "44"
    assert doc["verdict"] == "PASS"
    names = [c["name"] for c in doc["conditions"]]
    assert "isotropy" in names and "ricci-reduction" in names
    assert doc["points"] == 1
    assert doc["directions"] == 7


def _bits(v):
    return struct.pack("<d", v)


@pytest.mark.parametrize("special", [math.nan, -math.nan, math.inf,
                                     -math.inf, -0.0, 1e308])
@pytest.mark.parametrize("row", [0, 4, 5, 11])
def test_residual_blocks_judge_as_rows_one_at_a_time(special, row):
    """_Residuals over scalar and block adds judges each condition as
    the per-row route does over the same residuals one at a time."""
    tol = 1e-6
    rng = np.random.default_rng(44)
    # each name's kind and its four adds, a block of that size or (0) a
    # scalar; "reduction" and "einstein" have 12 rows, row 4 of
    # "reduction" is a block of one and its row 5 a scalar.  "einstein"
    # also holds a NaN at row 8, so the first non-finite row is judged.
    layout = {"fit": ("precondition", (0, 0, 0, 0)),
              "reduction": ("condition", (4, 1, 0, 6)),
              "einstein": ("condition", (3, 3, 1, 5))}
    values = {name: 0.5e-6 * rng.random(sum(max(k, 1) for k in sizes))
              for name, (_, sizes) in layout.items()}
    values["einstein"][8] = math.nan
    values["reduction"][row] = values["einstein"][row] = special
    adds = []
    for step in range(4):
        for name, (kind, sizes) in layout.items():
            at = sum(max(k, 1) for k in sizes[:step])
            block = values[name][at:at + max(sizes[step], 1)]
            adds.append((name, block if sizes[step] else float(block[0]), kind))

    res = _Residuals(tol)
    for name, block, kind in adds:
        res.add(name, block, kind)
    rows = [(name, float(v), kind) for name, block, kind in adds
            for v in np.atleast_1d(block)]
    got, want = res.conditions(), residuals_per_row(tol, rows)
    assert [c["name"] for c in got] == [c["name"] for c in want] == list(layout)
    for mine, theirs in zip(got, want):
        assert type(mine["residual"]) is float
        assert _bits(mine["residual"]) == _bits(theirs["residual"]), mine["name"]
        # the residual may be NaN, so it is held to its bits alone
        assert dict(mine, residual=0.0) == dict(theirs, residual=0.0)
    assert got[1]["passed"] == (abs(special) <= tol)


# (checker, cfg, preconditions, condition names in report order, scalar keys)
REPORT_LAYOUTS = {
    "41": (thm41_check, CFG_INF, [],
           ["wind-killing", "einstein-tensor", "sigma-consistency",
            "theta-sigma-fit-agreement", "einstein-residual-formula",
            "einstein-residual-fitted"],
           ["mu", "sigma_formula", "sigma_proof", "sigma_fitted",
            "theta_formula", "theta_fitted", "wind_norm_dev"]),
    "44": (thm44_check, CFG_INF, ["isotropy"],
           ["isotropy", "sigma-agreement", "ricci-reduction",
            "one-form-reduction", "einstein-residual-formula",
            "einstein-residual-fitted"],
           ["eta", "isotropy_residual", "lambda", "sigma_formula",
            "sigma_fitted", "theta_fitted"]),
    "51": (thm51_check, CFG_51, ["cubic-divisibility"],
           ["cubic-divisibility", "sigma-agreement", "quadratic-reduction",
            "linear-reduction", "einstein-residual-formula",
            "einstein-residual-fitted"],
           ["zeta", "u", "sigma_formula", "sigma_fitted", "theta_fitted",
            "divisibility_residual"]),
    "61": (thm61_check, CFG_PRIC, ["drift-isotropy"],
           ["drift-isotropy", "cubic-divisibility", "sigma-agreement",
            "quadratic-reduction", "linear-reduction",
            "einstein-residual-formula", "einstein-residual-fitted"],
           ["eta", "isotropy_residual", "zeta", "u", "sigma_formula",
            "sigma_fitted", "theta_fitted"]),
}


@pytest.mark.parametrize("theorem", sorted(REPORT_LAYOUTS))
def test_report_layout_per_regime(theorem):
    """Each theorem's conditions keep their names and order, and its
    scalars their names, one scalar entry per chart point, on a passing
    Hopf run."""
    checker, cfg, pre, names, keys = REPORT_LAYOUTS[theorem]
    rng = np.random.default_rng(43)
    space = hopf_space()
    samples = checker_samples(space, rng, points=2, shift=HOPF_SHIFT)
    rep = check(checker, space, cfg, samples)
    assert rep["theorem"] == theorem and rep["verdict"] == "PASS"
    assert [c["name"] for c in rep["conditions"]] == names
    assert [c["name"] for c in rep["conditions"]
            if c["kind"] == "precondition"] == pre
    assert set(rep["scalars"]) == set(keys)
    assert all(len(v) == rep["points"] == 2 for v in rep["scalars"].values())


def test_reports_are_deterministic():
    def run():
        rng = np.random.default_rng(42)
        space = hopf_space()
        samples = checker_samples(space, rng, points=1, shift=HOPF_SHIFT)
        return check(thm44_check, space, CFG_INF, samples)

    a, b = run(), run()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
