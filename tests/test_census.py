"""The reachability census (``scripts/census.py``) on one tiny scenario."""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "census", ROOT / "scripts" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


def tracked_changes() -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), "status", "--porcelain",
         "--untracked-files=no"],
        capture_output=True, text=True, check=True).stdout


def test_census_of_one_scenario():
    before = tracked_changes()
    spec = repro.ScenarioSpec(kind="static", app="mm", size=1200,
                              start=(2, 2), iterations=1)
    result = census.census({"tiny": lambda _recorder: repro.run(spec),
                            "broken": lambda _recorder: 1 / 0})

    assert list(result["errors"]) == ["broken"]
    functions = result["functions"]
    assert functions["repro.simulate.engine:Environment.run"] == ["tiny"]
    # Every function ast finds under src/ is in the map, reached or not.
    defined = {key for key, _lines in census.src_functions().values()}
    assert defined == set(functions)
    assert set(result["unreached"]) == {
        key for key, names in functions.items() if not names}
    assert "repro.sweep.resolver:_run_redist" in result["unreached"]
    assert tracked_changes() == before
