"""Acceptance gate: the ten shipping criteria, one pass/fail line each.

Everything runs at desk scale (dimension 3, at most 20 points x 30
directions per scenario) against the five builtin scenarios, with fixed
seeds throughout.  Each test prints a single criterion line so the gate
can be read off a terminal run.
"""
import numpy as np
import pytest

from kropina.einstein import WeightConfig, ric_ac, weight_preset
from fd import fd_partial
from kropina.forms import (
    AbInvariants,
    finsler_stage,
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
from kropina.generic import bh_density
from kropina.jets import Jet, jet_space
from kropina.riemann import MetricPoint
from kropina.scenarios import (
    COMPARISON_CUTOFF,
    load_scenario,
    scenario_samples,
)
from kropina.workbench import VERIFY_TOLS, run_check
from oracles import (
    ab_fields,
    chart_point,
    field_point,
    loop_metric,
    pric,
    second_cov_w,
    spray_generic,
    w_invariants,
)

SCENARIO_NAMES = (
    "euclid_parallel",
    "s3_hopf",
    "euclid_gaussian",
    "euclid_twist",
    "torus_wind",
)

# scenarios where the drift is conformal / Killing by construction
ISOTROPIC = {"euclid_parallel", "s3_hopf", "euclid_gaussian"}


def announce(num, text, ok):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}"
    print(line)
    assert ok, line


def rel(a, b):
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


@pytest.fixture(scope="module")
def grid():
    """Shared sample grid: 3 points x 10 directions per scenario."""
    out = {}
    for name in SCENARIO_NAMES:
        sc = load_scenario(name)
        space = sc.space()
        samples = scenario_samples(
            sc, points=3, directions=10,
            cutoff=COMPARISON_CUTOFF,
        )
        out[name] = (sc, space, samples)
    return out


def test_criterion_01_spray_cross_validation(grid):
    worst = 0.0
    count = 0
    for name, (sc, space, samples) in grid.items():
        ev = loop_metric(space)
        for x, ys in samples:
            pt = chart_point(space, x)
            for y in ys:
                g = spray_generic(ev, x, y)
                closed = kropina_spray_closed(AbInvariants(pt.fld, y))
                worst = max(worst, rel(closed, g))
                worst = max(worst, rel(nav_spray(pt.nav, y), g))
                count += 1
    announce(
        1,
        f"both closed sprays match the generic spray to 1e-8 "
        f"({count} samples over {len(grid)} scenarios, worst {worst:.2e})",
        worst < 1e-8 and count >= 150,
    )


def test_criterion_02_ricci_cross_validation(grid):
    worst = 0.0
    for name, (sc, space, samples) in grid.items():
        for x, ys in samples:
            pt = chart_point(space, x, ys)
            for k, y in enumerate(pt.ys):
                worst = max(worst, rel(kropina_ricci_closed(pt.inv)[k],
                                       pt.samples.ricci[k]))
    worst_nav = 0.0
    for name in ("euclid_parallel", "s3_hopf"):
        sc, space, samples = grid[name]
        for x, ys in samples:
            pt = chart_point(space, x, ys)
            for k, y in enumerate(pt.ys):
                worst_nav = max(
                    worst_nav,
                    rel(nav_ricci_isotropic(pt.nav, y), pt.samples.ricci[k]),
                )
    announce(
        2,
        f"closed Ricci matches generic to 1e-7 (worst {worst:.2e}); "
        f"navigation Ricci agrees on the isotropic scenarios "
        f"(worst {worst_nav:.2e})",
        worst < 1e-7 and worst_nav < 1e-7,
    )


def test_criterion_03_s_curvature_and_density(grid):
    worst = 0.0
    for name, (sc, space, samples) in grid.items():
        for x, ys in samples:
            pt = chart_point(space, x, ys)
            for k, y in enumerate(pt.ys):
                worst = max(worst, rel(s_bh_closed(pt.inv)[k],
                                       pt.samples.s_bh[k]))
    worst_bh = 0.0
    for name, (sc, space, samples) in grid.items():
        for x, _ in samples:
            closed = sigma_bh(space, x)
            worst_bh = max(worst_bh, abs(bh_density(finsler_stage(space, x))
                                         - closed) / closed)
    announce(
        3,
        f"closed S-curvature matches the generic route to 1e-5 "
        f"(worst {worst:.2e}); the sphere-quadrature BH density matches "
        f"the closed form to {VERIFY_TOLS['bh-density']:g} at every chart "
        f"point (worst {worst_bh:.2e})",
        worst < 1e-5 and worst_bh < VERIFY_TOLS["bh-density"],
    )


def test_criterion_04_s_dot_cross_validation(grid):
    worst = 0.0
    worst_weighted = 0.0
    for name, (sc, space, samples) in grid.items():
        n1 = space.dim + 1
        for x, ys in samples:
            pt = chart_point(space, x, ys)
            for k, y in enumerate(pt.ys):
                dev = rel(n1 * s_dot_closed(pt.inv)[k],
                          pt.samples.sdot[k])
                worst = max(worst, dev)
                if space.weight is not None:
                    worst_weighted = max(worst_weighted, dev)
    announce(
        4,
        f"closed S-dot matches the generic route under the weighted "
        f"density to 1e-5 (worst {worst:.2e}; nonconstant-weight worst "
        f"{worst_weighted:.2e})",
        worst < 1e-5 and worst_weighted > 0.0,
    )


def test_criterion_05_equivalence_suite(grid):
    tol = 1e-8
    verdicts = {}
    for name, (sc, space, samples) in grid.items():
        p_fit = True
        p_s_zero = True
        p_killing = True
        p_conformal = True
        for x, ys in samples:
            fld = ab_fields(space, list(x))
            fit = isotropy_fit(fld)
            p_fit &= fit.residual <= tol * max(1.0, fit.scale)

            for y in ys:
                p_s_zero &= abs(s_bh_closed(AbInvariants(fld, y))) <= tol

            inv = w_invariants(space.h, space.w, list(x))
            p_killing &= float(np.max(np.abs(inv.r_ij))) <= tol

            dev = fld.r - fld.trace_r_up / fld.n * fld.mp.g
            scale = max(1.0, float(np.max(np.abs(fld.r))))
            p_conformal &= float(np.max(np.abs(dev))) <= tol * scale
        verdicts[name] = (p_fit, p_s_zero, p_killing, p_conformal)

    jointly = all(len(set(v)) == 1 for v in verdicts.values())
    twist_false = verdicts["euclid_twist"] == (False,) * 4
    expected_true = all(
        all(verdicts[name]) == (name in ISOTROPIC) for name in verdicts
    )
    digest = {k: all(v) for k, v in verdicts.items()}
    announce(
        5,
        "the four predicates (isotropy fit, vanishing S, Killing wind, "
        "conformal drift) are jointly true or jointly false per scenario "
        f"at 1e-8; euclid_twist is the jointly-false witness ({digest})",
        jointly and twist_false and expected_true,
    )


def test_criterion_06_killing_transport_identity(grid):
    sc, space, _ = grid["s3_hopf"]
    rng = np.random.default_rng(606)
    box = np.asarray(sc.box)
    pts = rng.uniform(box[:, 0], box[:, 1], size=(20, 3))
    worst = 0.0
    for x in pts:
        x = list(map(float, x))
        cov2 = second_cov_w(space.h, space.w, x)
        mp = MetricPoint.from_exprs(space.h, x, order=2)
        fp = field_point(mp, space.w, x, order=1)
        rhs = -np.einsum("m,jmki->kij", fp.w_low, mp.riemann)
        worst = max(worst, float(np.max(np.abs(cov2 - rhs))))
    announce(
        6,
        f"second covariant derivative of the Killing wind matches its "
        f"curvature transport at 20 points (worst {worst:.2e})",
        worst < 1e-8,
    )


def _conditions(check):
    return {c["name"]: c for c in check.get("conditions", ())}


def test_criterion_07_weakly_weighted_end_to_end():
    hopf = run_check("s3_hopf")
    gauss = run_check("euclid_gaussian")
    ok = hopf.verdict == "PASS" and gauss.verdict == "PASS"
    worst = 0.0
    for doc in (hopf, gauss):
        thm41 = next(c for c in doc.checks if c["theorem"] == "41")
        conds = _conditions(thm41)
        for key in ("einstein-residual-formula", "einstein-residual-fitted",
                    "theta-sigma-fit-agreement"):
            worst = max(worst, conds[key]["residual"])
            ok &= conds[key]["passed"]
    gauss41 = next(c for c in gauss.checks if c["theorem"] == "41")
    theta_fitted = np.asarray(gauss41["scalars"]["theta_fitted"], dtype=float)
    theta_nonzero = float(np.max(np.abs(theta_fitted))) > 1e-3
    announce(
        7,
        f"end-to-end weakly-Einstein residuals stay below 1e-6 on the "
        f"Killing-sphere and weighted-flat scenarios with closed and "
        f"fitted (theta, sigma) agreeing (worst {worst:.2e}); the "
        f"weighted scenario has a genuinely nonzero fitted theta",
        ok and worst < 1e-6 and theta_nonzero,
    )


def test_criterion_08_checkers_across_regimes():
    flat = load_scenario("euclid_parallel").as_dict()
    regime_runs = [
        (dict(flat, constants={"preset": "ricInf"}), "auto"),   # 41 + 44
        (dict(flat, constants={"a": "0", "c": "3/8"}), "auto"),  # 51
        (dict(flat, constants={"preset": "pric"}), "auto"),      # 61
    ]
    flat_ok = True
    for doc, theorem in regime_runs:
        out = run_check(doc, theorem=theorem)
        flat_ok &= out.verdict == "PASS"

    hopf = load_scenario("s3_hopf").as_dict()
    worst = 0.0
    hopf_ok = True
    for constants, theorem in (
        ({"a": 1, "c": 0}, "44"),
        ({"a": "0", "c": "3/8"}, "51"),
        ({"preset": "pric"}, "61"),
    ):
        out = run_check(dict(hopf, constants=constants), theorem=theorem)
        hopf_ok &= out.verdict == "PASS"
        for check in out.checks:
            for cond in check.get("conditions", ()):
                worst = max(worst, cond["residual"])

    twist = run_check("euclid_twist")
    twist_ok = twist.verdict == "PRECONDITION" and twist.exit_code == 3
    announce(
        8,
        f"the flat wind passes every regime checker; the Killing sphere "
        f"passes the isotropic-drift, nu=0 and projective checkers with "
        f"residuals below 1e-6 (worst {worst:.2e}); the twisted wind "
        f"reports precondition failure with exit code 3",
        flat_ok and hopf_ok and worst < 1e-6 and twist_ok,
    )


def test_criterion_09_weighted_ricci_identity(grid):
    rng = np.random.default_rng(909)
    pairs = [(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
             for _ in range(10)]
    worst = 0.0
    for name, (sc, space, samples) in grid.items():
        n = space.dim
        n1 = n + 1
        for a, c in pairs:
            cfg = WeightConfig(a, c, n)
            kap = cfg.kappa
            nu = cfg.nu
            for x, ys in samples[:2]:
                fld = ab_fields(space, x)
                for y in ys[:3]:
                    s_val = s_closed(AbInvariants(fld, y))
                    sdot_full = n1 * s_dot_closed(AbInvariants(fld, y))
                    lhs = ric_ac(AbInvariants(fld, y), cfg)
                    rhs = (
                        pric(fld, y)
                        - kap / n1 * (sdot_full + 4.0 * s_val**2 / n1)
                        + nu * s_val**2 / n1**2
                    )
                    worst = max(worst, rel(lhs, rhs))
    exact = all(
        weight_preset("pric", n).kappa_exact == 0
        and weight_preset("pric", n).nu_exact == 0
        for n in (2, 3, 4)
    )
    announce(
        9,
        f"the weighted Ricci decomposition through the projective part "
        f"holds to 1e-8 over 10 random weight pairs and all scenarios "
        f"(worst {worst:.2e}); the projective constants zero out kappa "
        f"and nu exactly",
        worst < 1e-8 and exact,
    )


def _jet_partial(value, idx):
    # constant component expressions collapse to plain floats under jet
    # evaluation; their derivatives are exactly zero
    return value.partial(idx) if isinstance(value, Jet) else 0.0


def test_criterion_10_ad_integrity(grid):
    rng = np.random.default_rng(1010)
    names = list(SCENARIO_NAMES)
    worst = 0.0
    checks = 0
    while checks < 30:
        name = names[int(rng.integers(len(names)))]
        sc, space, samples = grid[name]
        x, ys = samples[int(rng.integers(len(samples)))]
        y = ys[int(rng.integers(len(ys)))]
        x = [float(v) for v in x]
        y = [float(v) for v in y]
        n = space.dim
        # F's stage at x, its jets from the point's order-4 pass
        stage = chart_point(space, x).stage

        kind = ("F-x", "F-y", "density-x")[int(rng.integers(3))]
        deg = int(rng.integers(1, 3))
        idx = [0] * n
        for _ in range(deg):
            idx[int(rng.integers(n))] += 1
        idx = tuple(idx)

        if kind in ("F-x", "F-y"):
            # F's jets come from the stage, its order-4 jets at x and y
            # over the 2n variables (x, y)
            if kind == "F-x":
                fn = lambda p: float(finsler_stage(space, p).f([y])[0])
                at = idx + (0,) * n
            else:
                fn = lambda p: float(stage.f([p])[0])
                at = (0,) * n + idx
            sp = jet_space(2 * n, 4)
            jet_val = _jet_partial(Jet(sp, stage.jets([y])[0]), at)
        else:
            # ln sigma, as a chart point takes it from its one jet pass
            fn = lambda p: chart_point(space, p).log_densities[0].value
            jet_val = chart_point(space, x).log_densities[0].partial(idx)

        fd_val = fd_partial(fn, x if kind != "F-y" else y, idx)
        worst = max(worst, rel(jet_val, fd_val))
        checks += 1
    announce(
        10,
        f"jet derivatives of the metric function and log volume densities "
        f"match finite differences to 1e-5 over 30 seeded spot checks "
        f"(worst {worst:.2e})",
        worst < 1e-5 and checks == 30,
    )
