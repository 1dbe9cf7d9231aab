"""Benchmark of the L2R reproduction: offline build, Fig. 10 fan-out, online routing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trained_od --seed 1 --seconds 5 --trace 0

The run draws its queries from ``--seed``, checks every output,
and prints two JSON lines on standard output: a report (every metric with
its unit, direction and sample count, the digests, the host and Spark
configuration), then the result line. With ``--trace 0`` the result holds
the end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its
per-layer metrics. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """Identifies the program's code also where the checkout is not a git repository."""
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def _adopt_orphans() -> None:
    """Become the reaper of this run's orphaned descendants (Linux only).

    Spark's Python worker daemon is a child of the JVM and outlives it by a
    moment; as our own child it can be waited for.
    """
    if sys.platform.startswith("linux"):
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _children() -> list[int]:
    me, out = os.getpid(), []
    for p in os.listdir("/proc") if os.path.isdir("/proc") else []:
        try:
            with open(f"/proc/{p}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == me:
            out.append(int(p))
    return out


def _wait_for_children(grace_s: float = 20.0) -> None:
    """Wait until every child, adopted orphans included, has ended; kill those left after ``grace_s``."""
    deadline, killed = time.monotonic() + grace_s, False
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0]:
                continue
        except ChildProcessError:
            return
        if not killed and time.monotonic() > deadline:
            for pid in _children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            killed = True
        time.sleep(0.02)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("test", "tiny"), default="test", help="world size; tiny is for smoke tests")
    args = ap.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "repro").is_dir() or not spec_file.is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} or {spec_file} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # The Spark driver process and its Python workers both import the program from src/.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # A terminated run still stops Spark and waits for its children on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    _adopt_orphans()
    try:
        from workload import run_workload

        run, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, str(tmp))
    finally:
        _wait_for_children()
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()  # only when no other run is using it

    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in run.metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "git_sha": _git_sha(), "src_digest": _src_digest(), **info,
        "digests": run.digests,
        "fail_frac": run.failed / max(1, run.attempted),
        "errors": run.errors,
        "metrics": {
            name: {"value": v, "unit": declared.get(name, {}).get("unit"), "better": declared.get(name, {}).get("better"), "n": n}
            for name, (v, n) in sorted(run.metrics.items())
        },
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": run.metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
