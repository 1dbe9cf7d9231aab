"""Host calibration: how much parallel CPU the host gives, how fast the kernel runs,
and how fast the host is while each phase runs.

The first two numbers go into every result, so that a ratio such as
``core.preference.parallel_eff`` has a base, and a run made on a loaded
host can be told apart from a slower program. The third is a fixed
reference search (``reference_search``), interleaved with the stream and
sampled beside the build and the fan-out (``Sampler``); the timed metrics
are scaled by it to a fixed host speed.
"""
from __future__ import annotations

import contextlib
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Fixed CPU-bound pure-Python work, started at a shared wall-clock instant.
_BURN = """
import sys, time
start = float(sys.argv[1])
while time.time() < start:
    time.sleep(0.001)
t0 = time.perf_counter()
x = 0
for i in range(1_000_000):
    x += i * i % 7
print(time.perf_counter() - t0)
"""


def _run_burners(n: int) -> float:
    """Wall time for ``n`` processes that each do the fixed work at once."""
    start = time.time() + 0.3  # lets every process finish starting up first
    procs = [
        subprocess.Popen([sys.executable, "-c", _BURN, repr(start)], stdout=subprocess.PIPE, text=True)
        for _ in range(n)
    ]
    try:
        return max(float(p.communicate(timeout=120)[0]) for p in procs)
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()


def parallelism() -> tuple[float, int]:
    """(effective parallelism of ``nproc`` CPU-bound processes against one, nproc)."""
    n = os.cpu_count() or 1
    return n * _run_burners(1) / _run_burners(n), n


def kernel_us(reps: int = 3) -> float:
    """Median µs per plain Dijkstra call on a fixed city and fixed queries.

    The city and the queries do not depend on the workload seed, so this
    number changes only with the host's speed and the search kernel.
    """
    import numpy as np

    from repro.roadnet.generator import make_city
    from repro.roadnet.shortest_path import dijkstra

    net = make_city(grid_n=20, cell_m=250.0, zone_cells=5, seed=0).net
    w = net.travel_time()
    ods = np.random.default_rng(0).integers(net.n_vertices, size=(50, 2))
    per_call = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for s, d in ods:
            dijkstra(net, int(s), int(d), w)
        per_call.append((time.perf_counter() - t0) / len(ods) * 1e6)
    return statistics.median(per_call)


# The stream's speed reference: a Dijkstra search written in the style of
# repro.roadnet.shortest_path (dict and heapq over numpy CSR arrays) on a
# fixed 20×20 grid with fixed weights. It is the benchmark's own code, so no
# change to the program moves it, and it slows as the program's searches
# do when the host's speed drifts.
_GRID = 20
_REF_SRC, _REF_DST = 0, 4 * _GRID + 4


def _ref_graph():
    import numpy as np

    n = _GRID
    edges = [(v, v + 1) for v in range(n * n) if (v + 1) % n] + [(v, v + n) for v in range(n * n - n)]
    adj = [[] for _ in range(n * n)]
    for k, (a, b) in enumerate(edges):
        adj[a].append((b, k))
        adj[b].append((a, k))
    indptr = np.cumsum([0] + [len(a) for a in adj])
    nbr = np.array([x for a in adj for x, _ in a])
    nbr_edge = np.array([k for a in adj for _, k in a])
    w = np.random.default_rng(0).uniform(1.0, 2.0, len(edges))
    return indptr, nbr, nbr_edge, w


_REF = _ref_graph()
# The reference's median cost on the 4-core host where the benchmark was
# written, in that host's usual state. It only sets the scale of the
# stream's scaled latencies.
REF_US = 200.0


def reference_search(clock=time.perf_counter) -> float:
    """Seconds one run of the fixed reference search takes on ``clock``."""
    import heapq

    indptr, nbr, nbr_edge, w = _REF
    t0 = clock()
    dist, done, pq = {_REF_SRC: 0.0}, set(), [(0.0, _REF_SRC)]
    while pq:
        d, u = heapq.heappop(pq)
        if u in done:
            continue
        if u == _REF_DST:
            break
        done.add(u)
        lo, hi = indptr[u], indptr[u + 1]
        for x, e in zip(nbr[lo:hi], nbr_edge[lo:hi]):
            x = int(x)
            if x in done:
                continue
            nd = d + w[e]
            if nd < dist.get(x, float("inf")):
                dist[x] = nd
                heapq.heappush(pq, (nd, x))
    return clock() - t0


# Each sample runs the search three times back to back and keeps the last:
# a search right after a sleep runs on cold caches, about 1.7 times slower.
SAMPLE_PERIOD_S = 0.05
_SAMPLER_MAIN = """
import sys, time, host
out, period = open(sys.argv[1], "w"), float(sys.argv[2])
while True:
    c = [host.reference_search(time.thread_time) for _ in range(3)][-1]
    out.write(f"{time.perf_counter()} {c}\\n")
    out.flush()
    time.sleep(period)
"""


class Sampler:
    """A child process that times the reference search every SAMPLE_PERIOD_S, in CPU time.

    The build and the fan-out run on the JVM and its Python workers, where
    no reference can be interleaved with the work, so this process samples
    the host's speed beside them. CPU time leaves out the time it waits for
    a core. It costs about 1.5 % of one core.
    """

    def __init__(self, tmp: str):
        self.path = os.path.join(tmp, "sampler.txt")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).resolve().parent)] + [p for p in [env.get("PYTHONPATH")] if p])
        self.proc = subprocess.Popen([sys.executable, "-c", _SAMPLER_MAIN, self.path, str(SAMPLE_PERIOD_S)], env=env)
        # Its start-up would compete with the first phase it samples.
        deadline = time.monotonic() + 30
        while self.proc.poll() is None and time.monotonic() < deadline:
            if os.path.exists(self.path) and os.path.getsize(self.path):
                break
            time.sleep(0.02)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def ref_s(self, t0: float, t1: float, least: int = 5) -> float:
        """Median reference cost between perf_counter times t0 and t1 (at least the ``least`` nearest samples)."""
        samples = []
        with open(self.path) as f:
            for line in f:
                with contextlib.suppress(ValueError):
                    t, c = map(float, line.split())
                    samples.append((t, c))
        inside = [c for t, c in samples if t0 <= t <= t1]
        if len(inside) < least:
            mid = (t0 + t1) / 2
            inside = [c for _, c in sorted(samples, key=lambda s: abs(s[0] - mid))[:least]]
        return statistics.median(inside)

    def scale(self, t0: float, t1: float) -> float:
        """Factor that takes a wall time between t0 and t1 to the reference speed REF_US."""
        return REF_US * 1e-6 / self.ref_s(t0, t1)
