"""tools/plan_memory.py: one fresh child per plan, and its bound."""
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "plan_memory",
    Path(__file__).resolve().parent.parent / "tools" / "plan_memory.py")
plan_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(plan_memory)


def test_a_plan_above_its_bound_exits_1(capsys):
    """A 1 x 2 verify plan runs in a child of its own, which reads at
    least the interpreter's peak RSS, so a bound of 1 MB fails it."""
    assert plan_memory.main(["--bound", "1", "1x2"]) == 1
    line = capsys.readouterr().out
    assert line.startswith("1 x 2: ") and line.endswith(
        " MB, PASS  ABOVE 1 MB\n")
    assert float(line.split(", ")[1].split()[0]) > 1.0


@pytest.mark.parametrize("text", ["4", "4x", "x500", "4x5x6", "ax5"])
def test_a_plan_is_points_x_directions(text):
    with pytest.raises(SystemExit):
        plan_memory.main([text])
