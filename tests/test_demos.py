"""The narrative demos run end to end on a copy of ``demos/``."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import belief_opacity as bo

ROOT = Path(__file__).resolve().parents[1]


def test_demos_run_and_write_their_artifacts(tmp_path):
    demos = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", demos, ignore=shutil.ignore_patterns("output"))
    scripts = sorted(demos.glob("0*.py"))
    assert [p.name for p in scripts] == [
        "01_belief_tracking.py", "02_abstraction_pipeline.py",
        "03_direct_restriction.py", "04_edit_rewriting.py",
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(bo.__file__).resolve().parents[1])}
    for script in scripts:
        run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                             env=env, timeout=300)
        assert run.returncode == 0, f"{script.name}:\n{run.stderr}"
    written = {p.name for p in (demos / "output").iterdir()}
    assert written == {"cells.csv", "abstraction.dot", "pruned.dot", "partition.svg", "edit.dot"}
