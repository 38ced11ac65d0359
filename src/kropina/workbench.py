"""Run drivers: theorem checks, formula verification, representation
conversion.

Each driver takes a scenario (name, path, dict, or loaded Scenario),
performs one kind of run, and returns a ReportDocument whose exit code
follows the command-line contract: 0 pass, 2 verdict failure, 3
precondition failure.  Usage and input problems raise instead; the CLI
maps those to exit 1.
"""

import math

import numpy as np

from .einstein import (
    DispatchError,
    chart_points,
    thm41_check,
    thm44_check,
    thm51_check,
    thm61_check,
)
from .expr import ExprError, eval_expr, parse_expr, print_expr
from .forms import (
    GaugeError,
    HypothesisNotMetError,
    finsler_evaluator,
    hess_f_closed,
    kropina_ricci_closed,
    kropina_spray_closed,
    nav_ricci_isotropic,
    nav_spray,
    nav_to_ab,
    s_bh_closed,
    s_closed,
    s_dot_closed,
    sigma_bh,
)
from .generic import ConicDomainError, bh_density
from .reports import ReportDocument, exit_code_for, merge_verdicts
from .scenarios import (
    COMPARISON_CUTOFF,
    ScenarioError,
    load_scenario,
    scenario_samples,
)

# formula pair -> ladder tolerance; scenario files may override per name
VERIFY_TOLS = {
    "spray": 1e-8,
    "nav-spray": 1e-8,
    "ricci": 1e-7,
    "s-curvature": 1e-5,
    "s-weighted": 1e-5,
    "s-dot": 1e-5,
    "weight-hessian": 1e-7,
    "nav-ricci": 1e-7,
    "bh-density": 3.0,  # units of Monte-Carlo standard error
}


def _rel_dev(a, b):
    """Largest absolute difference of a and b over max(1, |a|, |b|)."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def _listed(v):
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    return [float(t) for t in arr]


# -- check ------------------------------------------------------------------


def run_check(scenario, theorem="auto", seed=None, tol=None):
    """Run the Einstein characterisation checkers on a scenario.

    theorem 'auto' dispatches on the weight-constant regime; an explicit
    id runs that checker alone (a regime mismatch is reported as a
    precondition failure, since the theorem's hypotheses exclude the
    configuration before any geometry is computed).  The checkers share
    one ChartPoint per sampled x, so each chart point's bundles and
    (theta, sigma) fit are built, and each (x, y) sampled, once per run.
    """
    scenario = load_scenario(scenario)
    space = scenario.space()
    cfg = scenario.config()
    tol = scenario.tolerance("check", 1e-6) if tol is None else float(tol)

    checkers = {"41": thm41_check, "44": thm44_check, "51": thm51_check,
                "61": thm61_check}
    if theorem == "auto":
        ids = cfg.checkers
    elif theorem in checkers:
        ids = (theorem,)
    else:
        raise ValueError(
            f"unknown theorem id {theorem!r}; expected auto, 41, 44, 51 or 61"
        )

    doc = ReportDocument(kind="check", scenario=scenario.as_dict())
    with doc.timed("sampling"):
        # checker conditions compare formula routes through the generic
        # pipeline, whose high-order jets degrade near the cone boundary;
        # sample with the comparison margin, not the bare domain cutoff
        samples = scenario_samples(scenario, seed=seed,
                                   cutoff=COMPARISON_CUTOFF)

    points = chart_points(space, samples)
    for t in ids:
        with doc.timed(f"thm{t}"):
            try:
                report = checkers[t](points, cfg, tol=tol)
            except DispatchError as e:
                doc.checks.append(
                    {"theorem": t, "verdict": "PRECONDITION", "error": str(e)}
                )
                doc.errors.append({"kind": "dispatch", "message": str(e)})
                doc.settle("PRECONDITION")
                continue
            except (ConicDomainError, HypothesisNotMetError, ValueError,
                    np.linalg.LinAlgError) as e:
                doc.checks.append(
                    {"theorem": t, "verdict": "ERROR", "error": str(e)}
                )
                doc.errors.append({"kind": type(e).__name__, "message": str(e)})
                doc.settle("ERROR")
                continue
        doc.checks.append(report.as_dict())
        doc.settle(report.verdict)

    for check in doc.checks:
        rows = [dict(cond) for cond in check.get("conditions", [])]
        if rows:
            doc.tables.append({"name": f"thm{check['theorem']}", "rows": rows})
    return doc


# -- verify -------------------------------------------------------------------


def _table(name, tol, rows, key):
    """A judged table: the worst deviation (rows[k][key]) over its rows
    against tol.

    Skipped rows do not count, and a table whose rows were all skipped
    compared nothing: its passed is None, with the reason.  A non-finite
    deviation fails the table; the first one becomes max_rel_dev and
    non_finite_rows lists the indices of every such row.
    """
    devs = [(k, row[key]) for k, row in enumerate(rows)
            if not row.get("skipped")]
    bad = [k for k, d in devs if not math.isfinite(d)]
    if bad:
        worst = rows[bad[0]][key]
    else:
        worst = max((d for _, d in devs), default=0.0)
    table = {
        "name": name,
        "tol": tol,
        "max_rel_dev": worst,
        "samples": len(devs),
        "skipped": len(rows) - len(devs),
        "passed": (not bad and worst <= tol) if devs else None,
        "rows": rows,
    }
    if bad:
        table["non_finite_rows"] = bad
    if not devs:
        table["reason"] = f"no row compared: all {len(rows)} rows were skipped"
    return table


def _pair_row(x, y, closed, generic):
    """One closed/generic comparison; closed() is evaluated here so that
    a formula whose hypothesis fails at x marks the row as skipped."""
    row = {"x": _listed(x), "y": _listed(y)}
    try:
        value = closed()
    except HypothesisNotMetError as e:
        row["skipped"] = True
        row["reason"] = str(e)
        return row
    row["closed"] = _listed(value) if np.ndim(value) else float(value)
    row["generic"] = _listed(generic) if np.ndim(generic) else float(generic)
    row["rel_dev"] = _rel_dev(value, generic)
    return row


def run_verify(scenario, points=None, dirs=None, seed=None, mc_samples=20000):
    """Cross-validate every closed formula against the generic pipeline.

    One table per formula pair, each with the worst relative deviation
    over the sample grid and its ladder tolerance.  Exit code 0 exactly
    when every pair stays within tolerance.  Each sampled x is one
    ChartPoint, whose drift bundle, navigation point and generic point
    serve every direction; each (x, y) gets one generic curvature
    sample, which also carries S against the unit-ball density for the
    S-curvature pair when a weight is set.
    """
    scenario = load_scenario(scenario)
    space = scenario.space()
    n1 = space.dim + 1
    weighted = space.weight is not None

    doc = ReportDocument(kind="verify", scenario=scenario.as_dict())
    with doc.timed("sampling"):
        samples = scenario_samples(
            scenario,
            points=points,
            directions=dirs,
            seed=seed,
            cutoff=COMPARISON_CUTOFF,
        )

    names = ["spray", "nav-spray", "ricci", "s-curvature", "s-dot"]
    if weighted:
        names.append("s-weighted")
    names.append("nav-ricci")
    if weighted:
        names.append("weight-hessian")
    rows = {name: [] for name in names}
    chart = chart_points(space, samples, unit_ball=weighted)
    with doc.timed("pairs"):
        for pt in chart:
            fld, nav, x = pt.fld, pt.nav, pt.x
            for y in pt.ys:
                cs = pt.sample(y)
                s_bh = cs.s_bh if weighted else cs.s
                pairs = {
                    "spray": (lambda: kropina_spray_closed(fld, y), cs.spray),
                    "nav-spray": (lambda: nav_spray(nav, y), cs.spray),
                    "ricci": (lambda: kropina_ricci_closed(fld, y), cs.ricci),
                    "s-curvature": (lambda: s_bh_closed(fld, y), s_bh),
                    "s-dot": (lambda: n1 * s_dot_closed(fld, y), cs.sdot),
                    "s-weighted": (lambda: s_closed(fld, y), cs.s),
                    "nav-ricci": (lambda: nav_ricci_isotropic(nav, y),
                                  cs.ricci),
                    "weight-hessian": (lambda: hess_f_closed(fld, y),
                                       cs.hess_f),
                }
                for name in names:
                    rows[name].append(_pair_row(x, y, *pairs[name]))

    verdicts = []
    for name in names:
        tol = scenario.tolerance(name, VERIFY_TOLS[name])
        table = _table(name, tol, rows[name], "rel_dev")
        doc.tables.append(table)
        if table["passed"] is not None:
            verdicts.append("PASS" if table["passed"] else "FAIL")

    # volume density: Monte-Carlo estimate against the closed form, one
    # row per chart point, judged in standard-error units
    tol_se = scenario.tolerance("bh-density", VERIFY_TOLS["bh-density"])
    rows = []
    with doc.timed("bh-density"):
        for k, pt in enumerate(chart):
            est = bh_density(pt.evaluator, pt.x, mc_samples=mc_samples,
                             seed=scenario.seed + 7919 * k)
            closed = sigma_bh(space, pt.x)
            rows.append({
                "x": _listed(pt.x),
                "closed": closed,
                "estimate": est.value,
                "stderr": est.stderr,
                "dev_se": abs(est.value - closed) / est.stderr,
                "mc_samples": est.samples,
            })
    table = _table("bh-density", tol_se, rows, "dev_se")
    doc.tables.append(table)
    verdicts.append("PASS" if table["passed"] else "FAIL")

    doc.settle(*verdicts)
    return doc


# -- convert ------------------------------------------------------------------


def _check_gauge_positive(gauge, scenario):
    for x in scenario.probe_points():
        try:
            value = float(eval_expr(gauge, list(x)))
        except (ExprError, ArithmeticError) as e:
            raise GaugeError(
                f"gauge cannot be evaluated at {x}: {e}"
            ) from None
        if not value > 0.0:
            raise GaugeError(
                f"gauge must be positive on the chart; got {value:g} at {x}"
            )


def run_convert(scenario, to, gauge=None, seed=None):
    """Rewrite a scenario in the other representation.

    The emitted document is validated through the ordinary loader, and
    the report carries numeric evidence: F evaluated through source and
    converted expressions at the scenario's own sample plan, all
    directions of a chart point in one evaluation over numpy columns.
    Without a gauge text the space's own gauge is used.
    """
    scenario = load_scenario(scenario)
    if to not in ("nav", "ab"):
        raise ValueError(f"unknown representation {to!r}; expected nav or ab")
    space = scenario.space()

    if gauge is None:
        gauge_ast = space.gauge
    else:
        try:
            gauge_ast = parse_expr(gauge, scenario.dimension)
        except ExprError as e:
            raise GaugeError(f"gauge does not parse: {e}") from None
    _check_gauge_positive(gauge_ast, scenario)

    doc = ReportDocument(kind="convert", scenario=scenario.as_dict())
    emitted = scenario.as_dict()
    emitted["name"] = f"{scenario.name}_{to}"
    emitted["representation"] = to
    for key in ("defs", "gauge", "weight"):
        emitted.pop(key, None)

    with doc.timed("rewrite"):
        if to == "nav":
            metric, vector = space.h, space.w
        elif gauge is None:
            # the space already holds (a, b) in its own gauge: the
            # source's own for an ab scenario
            metric, vector = space.a, space.b
        else:
            metric, vector = nav_to_ab(space.h, space.w, gauge=gauge_ast)
        named = {"gauge": gauge_ast if to == "nav" else None,
                 "weight": space.weight}
        named = {k: e for k, e in named.items() if e is not None}
        n = scenario.dimension
        texts, defs = print_expr([*(e for row in metric.exprs for e in row),
                                  *vector, *named.values()])
        emitted["metric"] = [texts[i * n:i * n + n] for i in range(n)]
        emitted["vector"] = texts[n * n:n * n + n]
        emitted.update(zip(named, texts[n * n + n:]))
        if defs:
            emitted["defs"] = defs

    with doc.timed("validate"):
        try:
            conv_space = load_scenario(emitted).space()
        except ScenarioError as e:
            # the pointer is into the emitted document, which the caller
            # has not seen: say so instead of passing it on as theirs
            where = (f" (at {e.pointer} of the emitted document)"
                     if e.pointer else "")
            raise ScenarioError(
                f"converted document {emitted['name']!r} does not load: "
                f"{e.reason}{where}") from None

    tol = scenario.tolerance("convert", 1e-10)
    src_f = finsler_evaluator(space)
    dst_f = finsler_evaluator(conv_space)
    rows = []
    with doc.timed("evidence"):
        for x, ys in scenario_samples(scenario, seed=seed):
            cols = list(np.transpose(ys))
            f_src = src_f(list(x), cols)
            f_dst = dst_f(list(x), cols)
            for k, y in enumerate(ys):
                rows.append({
                    "x": _listed(x),
                    "y": _listed(y),
                    "f_source": float(f_src[k]),
                    "f_converted": float(f_dst[k]),
                    "rel_dev": _rel_dev(f_src[k], f_dst[k]),
                })
    table = _table("f-agreement", tol, rows, "rel_dev")
    doc.tables.append(table)
    doc.emitted = emitted
    doc.settle("PASS" if table["passed"] else "FAIL")
    return doc
