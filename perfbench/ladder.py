"""The cargo-N wall: the largest N that `models` and `update` solve.

Each rung solves cargo-N in its own interpreter under a wall-time cap and
the engine's default budgets.  The ladder climbs from N = 3 and stops at the
first rung that fails; the stop records the budget that tripped (error type
and message) or "time cap", with its seconds and peak RSS.

    python3 perfbench/ladder.py models 4 WORK_DIR    # one rung, prints JSON
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
FIRST_N, LAST_N = 3, 8
# Wall-time cap per rung, spawn and file writing included.  The `models`
# cap is 2.7 times the slowest N = 4 `models` solve measured, 4.48 s (2.14 s
# at best) over 85 runs on a shared 2-CPU Xeon VM.  The N = 4 `update` rung
# needs about 40 s to reach its budget, so its cap always stops it; a lower
# cap there saves that dead time in every run, and is still about six times
# the N = 3 `update` rung (a solve of at most 0.64 s, plus start-up).
RUNG_CAP_S = {"models": 12.0, "update": 6.0}


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set of a live process, from /proc.

    ``ru_maxrss`` would do for the process itself, but Linux carries a
    parent's high-water mark over fork and exec into the child."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _rung(op: str, n: int, work: str) -> dict:
    sys.path.insert(0, HERE)
    from cargo_n import clone_queries, write_cargo
    from hybridmknf import HybridMknfError, dynamic_models, entails, load_sequence, parse_query
    from workloads import CRITERION_1, CRITERION_2

    base, update = write_cargo(n, work)
    paths = [base] if op == "models" else [base, update]
    t0 = time.perf_counter()
    try:
        dkb = load_sequence(paths)
        models = dynamic_models(dkb)
    except HybridMknfError as exc:
        return {"ok": False, "stop": f"{type(exc).__name__}: {exc}",
                "seconds": time.perf_counter() - t0}
    seconds = time.perf_counter() - t0
    # the acceptance verdicts, cloned per block pattern; reported, not gating
    queries = clone_queries(CRITERION_1 if op == "models" else CRITERION_2, n)
    wrong = [q for q in queries if not entails(models, parse_query(q, dkb.sig))]
    if len(models) != 1:
        wrong.insert(0, f"{len(models)} models, expected 1")
    return {"ok": True, "seconds": seconds, "wrong": wrong}


def run_rung(op: str, n: int, work: str, cap_s: float, env: dict) -> dict:
    """Solve one rung in a child process; kill it at the cap."""
    cmd = [sys.executable, os.path.abspath(__file__), op, str(n), work]
    t0 = time.perf_counter()
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = child.communicate(timeout=cap_s)
        capped = False
    except subprocess.TimeoutExpired:
        rss_mb = peak_rss_mb(child.pid)
        child.kill()
        child.communicate()
        capped = True
    wall = time.perf_counter() - t0
    if capped:
        return {"ok": False, "stop": f"time cap {cap_s:g} s", "seconds": wall,
                "peak_rss_mb": rss_mb}
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return {"ok": False, "stop": f"rung exited with code {child.returncode}",
                "seconds": wall, "peak_rss_mb": float("nan")}
    return json.loads(lines[-1])


def climb(op: str, work: str, env: dict):
    """(largest N solved, per-rung records); 0 when N = FIRST_N fails."""
    best = 0
    rungs = []
    for n in range(FIRST_N, LAST_N + 1):
        rung = run_rung(op, n, work, RUNG_CAP_S[op], env)
        rung["n"] = n
        rungs.append(rung)
        if not rung["ok"]:
            break
        best = n
    return best, rungs


if __name__ == "__main__":
    op_arg, n_arg, work_arg = sys.argv[1:4]
    result = _rung(op_arg, int(n_arg), work_arg)
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
