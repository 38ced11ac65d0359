"""The benchmark's tracer still finds every name it wraps in the package.

perfbench/tracer.py wraps the layer functions and a few bundle methods
of kropina by name, and refuses a run in which a package function stays
out of its reach (held in a module-level container or as a default
argument).  Here it is compiled from its file and installed, so a
refactor of src/ that drops a wrapped name or hides a function from it
fails this suite, not only a traced benchmark run.  Nothing is written
under perfbench/.
"""
import types
from pathlib import Path

from kropina.workbench import run_check, run_verify

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    mod = types.ModuleType("perfbench_tracer")
    mod.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


def test_tracer_installs_with_no_bypass():
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        assert tracer.bypasses() == []
        # the bundle counters read one drift bundle per chart point
        doc = run_check("s3_hopf")
        assert doc.verdict == "PASS"
        metrics = tracer.metrics()
        assert metrics["forms.ab_fields.builds"] == 3
        assert metrics["einstein.thm41.calls"] == 1
    finally:
        tracer.uninstall()


def test_traced_verify_times_one_bh_density_call_per_chart_point():
    """verify-nav's generic.bh_density group times the density route:
    a traced verify at 1 x 2 reads one call per chart point."""
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        assert tracer.bypasses() == []
        doc = run_verify("s3_hopf", points=1, dirs=2)
        assert doc.verdict == "PASS"
        metrics = tracer.metrics()
        assert metrics["generic.bh_density.calls"] == 1
        assert metrics["generic.bh_density.s"] > 0.0
    finally:
        tracer.uninstall()


def test_traced_verify_makes_one_generic_pass_per_run():
    """Each chart point of a verify run makes one curvature_samples
    call: a traced verify at 3 x 2 reads three calls, and writes the
    report an untraced run writes."""
    plain = run_verify("s3_hopf", points=3, dirs=2).to_json(timings=False)
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        assert tracer.bypasses() == []
        doc = run_verify("s3_hopf", points=3, dirs=2)
        assert doc.verdict == "PASS"
        assert tracer.metrics()["generic.curvature_samples.calls"] == 3
        traced = doc.to_json(timings=False)
    finally:
        tracer.uninstall()
    assert traced == plain
