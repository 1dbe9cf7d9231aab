"""Smoke runs of every benchmark workload on the tiny world.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``
(about half a minute per run: each starts its own Spark JVM).
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _session_processes(sid: int) -> list[int]:
    """Processes still alive (zombies included) in session ``sid``; empty without /proc."""
    out = []
    for p in Path("/proc").glob("[0-9]*"):
        try:
            if int((p / "stat").read_text().rsplit(")", 1)[1].split()[3]) == sid:
                out.append(int(p.name))
        except (OSError, ValueError, IndexError):
            continue
    return out


def _run(*args):
    """Run the benchmark in a session of its own; no process of that session may outlive it."""
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    stdout, stderr = proc.communicate(timeout=600)
    assert _session_processes(proc.pid) == [], "the run left processes behind"
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    out = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny")
    assert out.returncode == 0, out.stderr[-4000:]
    *_, report_line, result_line = out.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    report = json.loads(report_line)["report"]
    assert set(report["digests"]) == {"prefs_digest", "rg_digest", "routes_digest"}
    if trace:
        # The traced stages cover the build. At test scale they cover more
        # than 95 %; the tiny build is mostly the cold JVM's fixed cost, part
        # of which (planning the cached trips DataFrame) falls between stages.
        assert report["metrics"]["core.pipeline.stage_share"]["value"] >= 0.9


def test_refuses_without_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, the run fails and prints no result."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench").mkdir(exist_ok=True)
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
