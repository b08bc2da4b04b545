"""The example scripts under scripts/ run to completion."""

import subprocess
import sys
from pathlib import Path

from nellab.sim import builtin_scenarios

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_run_all_scenarios_writes_one_trace_per_builtin(tmp_path):
    out_dir = tmp_path / "traces"
    result = run_script("run_all_scenarios.py", "--out-dir", str(out_dir),
                        cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert sorted(path.name for path in out_dir.iterdir()) == sorted(
        f"{name}.trace.json" for name in builtin_scenarios())


def test_persistence_timeline_runs(tmp_path):
    result = run_script("persistence_timeline.py", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "--- mitm_persistence ---" in result.stdout
    assert "--- mitigation_scrub ---" in result.stdout
