"""Run drivers: theorem checks, formula verification, representation
conversion.

Each driver takes a scenario (name, path, dict, or loaded Scenario),
performs one kind of run, and returns a ReportDocument whose exit code
follows the command-line contract: 0 pass, 2 verdict failure, 3
precondition failure.  Usage and input problems raise instead; the CLI
maps those to exit 1.
"""

import math
from operator import itemgetter

import numpy as np

from .einstein import (
    DispatchError,
    chart_points,
    thm41_check,
    thm44_check,
    thm51_check,
    thm61_check,
)
from .expr import ExprError, parse_expr, print_expr
from .forms import (
    GaugeError,
    HypothesisNotMetError,
    KropinaSpace,
    finsler_stage,
    hess_f_closed,
    hess_form,
    kropina_ricci_closed,
    kropina_spray_closed,
    nav_ricci_isotropic,
    nav_spray,
    s_bh_closed,
    s_closed,
    s_dot_closed,
    sigma_bh,
)
from .generic import bh_density
from .reports import ReportDocument
from .riemann import evaluate
from .scenarios import (
    COMPARISON_CUTOFF,
    ScenarioError,
    load_scenario,
    load_trusted,
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
    # relative, as the others; bh_density's worst error on the builtins
    # and random_scenario(seed, n), seeds 1-20, n = 2..6, is 7e-15
    "bh-density": 1e-12,
}


def _rel_devs(a, b):
    """Row k's largest absolute difference of a[k] and b[k] over
    max(1, |a[k]|, |b[k]|), for blocks of scalars (D,) or of vectors
    (D, n); NaN wherever a row holds a non-finite entry."""
    a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
    with np.errstate(all="ignore"):
        scale = np.maximum(np.abs(a).max(axis=1), np.abs(b).max(axis=1))
        return np.abs(a - b).max(axis=1) / np.maximum(1.0, scale)


def _rows(**columns):
    """One row {name: column[k]} per k from whole columns, each turned
    into Python values by one tolist(): a float block (D,) gives floats,
    a block (D, n) lists, and row order and key order follow the
    arguments."""
    names = tuple(columns)
    values = [np.asarray(c).tolist() for c in columns.values()]
    return [dict(zip(names, row)) for row in zip(*values)]


# -- check ------------------------------------------------------------------


def run_check(scenario, theorem="auto", seed=None, tol=None):
    """Run the Einstein characterisation checkers on a scenario.

    theorem 'auto' dispatches on the weight-constant regime; an explicit
    id runs that checker alone (a regime mismatch is reported as a
    precondition failure, since the theorem's hypotheses exclude the
    configuration before any geometry is computed).  Each checker's
    report entry goes into the report as it is, and its conditions are
    also the rows of its thm<id> table.  The checkers share
    one ChartPoint per sampled x, so each chart point's bundles and
    (theta, sigma) fit are built, and each (x, y) sampled, once per run.
    """
    scenario = load_scenario(scenario)
    space = scenario.space()
    cfg = scenario.config()
    tol = scenario.tolerance("check", 1e-6) if tol is None else float(tol)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"check tolerance must be finite and > 0, got {tol}")

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

    with doc.timed("chart points"):
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
            except ValueError as e:
                doc.checks.append(
                    {"theorem": t, "verdict": "ERROR", "error": str(e)}
                )
                doc.errors.append({"kind": type(e).__name__, "message": str(e)})
                doc.settle("ERROR")
                continue
        doc.checks.append(report)
        doc.tables.append({"name": f"thm{t}", "rows": report["conditions"]})
        doc.settle(report["verdict"])
    return doc


# -- verify -------------------------------------------------------------------


def _table(name, tol, rows, key):
    """A judged table: the worst deviation (rows[k][key]) over its rows
    against tol, the index of its row (worst_at) and its margin, the
    worst over tol.  The rows are built by _rows, so they hold Python
    floats, ints, lists and strs, which the report writes as they are.

    Skipped rows do not count, and a table whose rows were all skipped
    compared nothing: its passed, max_rel_dev, worst_at and margin are
    None, with the reason.  A non-finite deviation fails the table; the
    first one becomes max_rel_dev and non_finite_rows lists the indices
    of every such row.
    """
    devs = [(k, row[key]) for k, row in enumerate(rows)
            if not row.get("skipped")]
    bad = [k for k, d in devs if not math.isfinite(d)]
    if bad:
        worst_at = bad[0]
    elif devs:
        worst_at = max(devs, key=itemgetter(1))[0]
    else:
        worst_at = None
    worst = None if worst_at is None else rows[worst_at][key]
    table = {
        "name": name,
        "tol": tol,
        "max_rel_dev": worst,
        "worst_at": worst_at,
        "margin": None if worst is None else worst / tol,
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


def _pair_rows(first, closed, generic):
    """The closed/generic comparisons of a chart point's directions, one
    row each, numbered by the report's sample index from first on, from
    one block of values per side: (D,) for a scalar formula, whose rows
    hold floats, or (D, n), whose rows hold lists.  Each block becomes
    Python values in one tolist() and each row's rel_dev comes from
    _rel_devs; closed() is evaluated here so that a formula whose
    hypothesis fails at x marks the point's rows as skipped."""
    generic = np.asarray(generic, dtype=float)
    sample = range(first, first + len(generic))
    try:
        values = np.asarray(closed(), dtype=float)
    except HypothesisNotMetError as e:
        return _rows(sample=sample, skipped=[True] * len(sample),
                     reason=[str(e)] * len(sample))
    return _rows(sample=sample, closed=values, generic=generic,
                 rel_dev=_rel_devs(values, generic))


def run_verify(scenario, points=None, dirs=None, seed=None):
    """Cross-validate every closed formula against the generic pipeline.

    One table per formula pair, each with the worst relative deviation
    over the sample grid and its ladder tolerance.  Exit code 0 exactly
    when every pair stays within tolerance.  Each sampled x is one
    ChartPoint, whose drift invariants, navigation point and generic
    samples cover all of its directions in one pass each; a sample's S
    against the unit-ball density is the S-curvature pair's generic
    side.  The bh-density pair holds the closed unit-ball density
    sigma_bh against generic.bh_density, a deterministic sphere
    quadrature of F's unit ball, with one row per chart point.

    The report's samples list each chart point once, with its
    directions ys and their beta = b_i y^i; a pair row names its (x, y)
    by its sample index, counted over the points in order and over each
    point's directions within it, and a bh-density row its point's
    index.
    """
    scenario = load_scenario(scenario)
    space = scenario.space()
    n1 = space.dim + 1
    weighted = space.weight is not None

    doc = ReportDocument(kind="verify", scenario=scenario.as_dict(),
                         samples=[])
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
    with doc.timed("chart points"):
        chart = chart_points(space, samples)
    with doc.timed("pairs"):
        first = 0
        for pt in chart:
            inv, nav, ys, cs = pt.inv, pt.nav, pt.ys, pt.samples
            doc.samples.append({"x": pt.x.tolist(), "ys": ys.tolist(),
                                "beta": inv.beta.tolist()})
            # both sides are thunks, so a pair no table holds costs nothing
            pairs = {
                "spray": (lambda: kropina_spray_closed(inv), lambda: cs.spray),
                "nav-spray": (lambda: nav_spray(nav, ys), lambda: cs.spray),
                "ricci": (lambda: kropina_ricci_closed(inv), lambda: cs.ricci),
                "s-curvature": (lambda: s_bh_closed(inv), lambda: cs.s_bh),
                "s-dot": (lambda: n1 * s_dot_closed(inv), lambda: cs.sdot),
                "s-weighted": (lambda: s_closed(inv), lambda: cs.s),
                "nav-ricci": (lambda: nav_ricci_isotropic(nav, ys),
                              lambda: cs.ricci),
                "weight-hessian": (lambda: hess_f_closed(inv),
                                   lambda: hess_form(pt.fld, ys, cs.spray)),
            }
            for name in names:
                closed, generic = pairs[name]
                rows[name] += _pair_rows(first, closed, generic())
            first += len(ys)

    verdicts = []
    for name in names:
        tol = scenario.tolerance(name, VERIFY_TOLS[name])
        table = _table(name, tol, rows[name], "rel_dev")
        doc.tables.append(table)
        if table["passed"] is not None:
            verdicts.append("PASS" if table["passed"] else "FAIL")

    # volume density: the sphere quadrature of F's unit ball against the
    # closed form, one row per chart point
    tol = scenario.tolerance("bh-density", VERIFY_TOLS["bh-density"])
    with doc.timed("bh-density"):
        closed = np.array([sigma_bh(space, pt.x) for pt in chart])
        quadrature = np.array([bh_density(pt.stage) for pt in chart])
        rows = _rows(point=range(len(chart)), closed=closed,
                     quadrature=quadrature,
                     rel_dev=_rel_devs(closed, quadrature))
    table = _table("bh-density", tol, rows, "rel_dev")
    doc.tables.append(table)
    verdicts.append("PASS" if table["passed"] else "FAIL")

    doc.settle(*verdicts)
    return doc


# -- convert ------------------------------------------------------------------


def _check_gauge_positive(gauge, scenario):
    for x in scenario.probe_points():
        try:
            value = float(evaluate(x, gauge)[0])
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

    The emitted document is validated by loading it back, and
    the report carries numeric evidence: F evaluated through source and
    converted expressions at the scenario's own sample plan, all
    directions of a chart point in one call of each space's stage, one
    row per sample of the report's samples list, named by its index as
    in run_verify.  Without a gauge text the space's own gauge is used.
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

    doc = ReportDocument(kind="convert", scenario=scenario.as_dict(),
                         samples=[])
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
            ab = KropinaSpace.from_nav(space.h, space.w, gauge=gauge_ast)
            metric, vector = ab.a, ab.b
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
            conv_space = load_trusted(emitted, origin="<dict>").space()
        except ScenarioError as e:
            # the pointer is into the emitted document, which the caller
            # has not seen: say so instead of passing it on as theirs
            where = (f" (at {e.pointer} of the emitted document)"
                     if e.pointer else "")
            raise ScenarioError(
                f"converted document {emitted['name']!r} does not load: "
                f"{e.reason}{where}") from None

    tol = scenario.tolerance("convert", 1e-10)
    rows = []
    with doc.timed("evidence"):
        for x, ys in scenario_samples(scenario, seed=seed):
            ys = np.array(ys)
            f_src = finsler_stage(space, x).f(ys)
            f_dst = finsler_stage(conv_space, x).f(ys)
            doc.samples.append({"x": np.asarray(x).tolist(),
                                "ys": ys.tolist()})
            rows += _rows(sample=range(len(rows), len(rows) + len(ys)),
                          f_source=f_src, f_converted=f_dst,
                          rel_dev=_rel_devs(f_src, f_dst))
    table = _table("f-agreement", tol, rows, "rel_dev")
    doc.tables.append(table)
    doc.emitted = emitted
    doc.settle("PASS" if table["passed"] else "FAIL")
    return doc
