"""Closed-loop benchmark of the hybridmknf engine.

    python3 perfbench/run.py --workload cargo --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One client, one process, no threads.  A workload is a cycle of jobs (see
workloads.py); the loop runs whole jobs until `--seconds` have passed, timing
each solve (``load_sequence`` plus ``dynamic_models``) and each ``entails``
call, and checks every answer against its reference outside the timed part.
It then measures the interpreter set-up cost and climbs the cargo-N wall.

Acceptance queries the engine is known to answer wrongly
(workloads.KNOWN_WRONG) are asked once after the loop and reported, but not
counted, so that ``correct`` flags only new wrong answers.

With ``--trace 0`` the last line is the end-to-end result.  With
``--trace 1`` cycles alternate between traced and untraced, and the last
line holds the per-layer metrics of the traced ones (see tracer.py).  Lines
before it report every metric by name and unit, the environment, each
wrong answer by workload and operation, and the wall ladder.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("cargo", "programs", "small")
CALIBRATE_EVERY_S = 0.05
SETUP_SPAWNS = 11


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# statistics


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples beyond it.

    Below 20 samples that percentile would not exceed the median, so the
    maximum is reported instead, as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def median(samples: list[float]) -> float:
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# environment and set-up


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "hybridmknf")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def spawn_seconds(statement: str) -> float:
    """Seconds from spawning an interpreter until `statement` has run, read
    against the monotonic clock the parent and child share."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", f"{statement}; import time; print(repr(time.perf_counter()))"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout) - t0


def cli_setup(spawns: int) -> tuple[float, float, float]:
    """(setup_s, CLI seconds, reference seconds) from alternating spawns.

    Spawn-to-import time of `hybridmknf.cli` swings by a quarter between
    runs minutes apart on a shared VM, and so does a spawn that only imports
    NumPy; their ratio spreads by under a tenth.  setup_s is that ratio in
    units of calib.REF_IMPORT_S, the NumPy spawn's time on the reference VM.
    One warm-up pair is not counted.
    """
    cli, ref = [], []
    for i in range(spawns + 1):
        r, c = spawn_seconds("import numpy"), spawn_seconds("import hybridmknf.cli")
        if i:
            ref.append(r)
            cli.append(c)
    return median(cli) / median(ref) * calib.REF_IMPORT_S, median(cli), median(ref)


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs job cycles and keeps timed samples, failures and layer deltas.

    A sample is (start, end, seconds).  The calibration kernel runs before
    every job that starts 0.05 s or more after the last kernel run, and once
    after the loop, so each sample has a kernel run on both sides."""

    def __init__(self, jobs, api, tracer=None) -> None:
        self.jobs = jobs
        self.api = api  # {traced: (load_sequence, dynamic_models, entails, parse_query)}
        self.tracer = tracer
        self.samples = {"models": [], "update": [], "entail": []}
        self.traced = {"models": [], "update": [], "entail": []}
        self.kernels: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.attempted = 0
        self.wrong: dict[tuple[str, str, str], int] = {}
        self.layer_self: dict[str, dict[str, float]] = {"models": {}, "update": {}}

    def _fail(self, kind: str, label: str, what: str) -> None:
        key = (kind, label, what)
        self.wrong[key] = self.wrong.get(key, 0) + 1

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        calib.kernel()
        t1 = time.perf_counter()
        self.kernels.append(((t0 + t1) / 2, t1 - t0))

    def run_job(self, job, traced: bool) -> None:
        load, solve, entails, parse_query = self.api[traced]
        out = self.traced if traced else self.samples
        tr = self.tracer if traced else None
        before = dict(tr.self_s) if tr else None
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            dkb = load(job.paths)
            models = solve(dkb)
        except Exception as exc:  # a solve that raises is a failed operation
            self._fail(job.kind, job.label, f"{type(exc).__name__}: {exc}")
            self.attempted += len(job.queries)
            for text, _ in job.queries:
                self._fail("entail", job.label, f"{text}: solve failed")
            return
        t1 = time.perf_counter()
        out[job.kind].append((t0, t1, t1 - t0))
        if tr:
            acc = self.layer_self[job.kind]
            for name, value in tr.self_s.items():
                acc[name] = acc.get(name, 0.0) + value - before.get(name, 0.0)
        why = job.wrong_models(models, dkb.sig)
        if why:
            self._fail(job.kind, job.label, why)
        for text, expected in job.queries:
            self.attempted += 1
            query = parse_query(text, dkb.sig)
            t0 = time.perf_counter()
            try:
                got = entails(models, query)
            except Exception as exc:  # counted, reported, never fatal
                self._fail("entail", job.label, f"{text}: {type(exc).__name__}: {exc}")
                continue
            t1 = time.perf_counter()
            out["entail"].append((t0, t1, t1 - t0))
            if got != expected:
                self._fail("entail", job.label, f"{text}: got {got}, expected {expected}")

    def run(self, seconds: float, trace: bool) -> float:
        """Whole cycles until the deadline; traced and untraced alternate.

        Stopping only between cycles keeps the mix of operations fixed, and
        at least one cycle (two when tracing) always runs."""
        t_start = time.perf_counter()
        deadline = t_start + seconds
        min_cycles = 2 if trace else 1
        cycle = 0
        while True:
            traced = trace and cycle % 2 == 0
            if traced:
                self.tracer.install()
            try:
                for job in self.jobs:
                    if time.perf_counter() - self.kernels[-1][0] >= CALIBRATE_EVERY_S:
                        self.calibrate()
                    self.run_job(job, traced)
            finally:
                if traced:
                    self.tracer.uninstall()
            gc.collect()
            cycle += 1
            if cycle >= min_cycles and time.perf_counter() >= deadline:
                break
        self.calibrate()
        return time.perf_counter() - t_start

    def in_ref(self, samples) -> list[float]:
        """Each sample over the mean of the kernel runs just before and
        just after it."""
        mids = [m for m, _ in self.kernels]
        out = []
        for t0, t1, dt in samples:
            i = bisect.bisect_left(mids, t0)
            out.append(2 * dt / (self.kernels[i - 1][1] + self.kernels[i][1]))
        return out

    @property
    def failed(self) -> int:
        return sum(self.wrong.values())


# ---------------------------------------------------------------------------
# metrics


def end_to_end(
    loop: Loop, setup: tuple[float, float, float], rss_mb: float, wall: dict
) -> tuple[dict, dict]:
    """(gated, printed): the metrics BENCHMARK.json bounds, and the tails
    and plain-second latencies the report shows beside them."""
    out, printed = {}, {}
    busy_ref = 0.0
    for kind in ("models", "update", "entail"):
        ref = loop.in_ref(loop.samples[kind])
        raw = [dt for _, _, dt in loop.samples[kind]]
        busy_ref += sum(ref)
        out[f"{kind}_p50_ref"] = median(ref)
        if kind != "entail":
            printed[f"{kind}_tail_ref"] = (tail(ref)[0], "ref")
            printed[f"{kind}_tail_s"] = (tail(raw)[0], "s")
        printed[f"{kind}_p50_s"] = (median(raw), "s")
    solves = len(loop.samples["models"]) + len(loop.samples["update"])
    out["solves_per_ref"] = solves / busy_ref
    out["setup_s"] = setup[0]
    out["peak_rss_mb"] = rss_mb
    out["max_n_models"] = wall["models"][0]
    out["max_n_update"] = wall["update"][0]
    printed["kernel_p50_s"] = (median([k for _, k in loop.kernels]), "s")
    printed["cli_import_s"] = (setup[1], "s")
    printed["numpy_import_s"] = (setup[2], "s")
    return out, printed


# The spans that enclose all others in a solve: load_sequence and
# dynamic_models.  Their self time is solve time no named layer accounts for.
_OUTER_SPANS = ("parser.load", "dynmknf")

# Layer spans each workload must enter during its traced cycles.  A span with
# no calls means the engine no longer reaches a wrapped function that way,
# so its time would go unseen into dynmknf.self_s.
_COMMON_SPANS = ("kbmodel.ground", "splitting.plan", "interp.newest_check", "interp.entail")
EXPECTED_SPANS = {
    "cargo": _COMMON_SPANS + (
        "splitting.slice", "splitting.reduce", "interp.reduce_query", "winslett.update",
    ),
    "programs": _COMMON_SPANS + ("rules.search", "interp.dedup"),
    "small": _COMMON_SPANS + (
        "splitting.slice", "splitting.reduce", "winslett.update", "oracle.mixed",
    ),
}

# Lowest trace.coverage a traced run accepts: about 0.04 below the lowest
# value measured over five seeds per workload (cargo 0.970, programs 0.992,
# small 0.911).
COVERAGE_FLOOR = {"cargo": 0.93, "programs": 0.95, "small": 0.87}

# Spans whose self time makes up each per-layer time metric.
_TIME_SPANS = {
    "parser.load_s": ["parser.load"],
    "kbmodel.ground_s": ["kbmodel.ground"],
    "splitting.plan_s": ["splitting.plan"],
    "splitting.slice_s": ["splitting.slice"],
    "splitting.reduce_s": ["splitting.reduce"],
    "interp.newest_check_s": ["interp.newest_check"],
    "interp.reduce_query_s": ["interp.reduce_query"],
    "interp.dedup_s": ["interp.dedup"],
    "winslett.update_s": ["winslett.update"],
    "rules.search_s": ["rules.search"],
    "oracle.mixed_s": ["oracle.mixed"],
    "dynmknf.self_s": ["dynmknf"],
}
_CALL_SPANS = {
    "splitting.reduce_calls": "splitting.reduce",
    "interp.newest_checks": "interp.newest_check",
    "interp.reduce_queries": "interp.reduce_query",
    "interp.dedup_calls": "interp.dedup",
    "rules.calls": "rules.search",
    "oracle.mixed_calls": "oracle.mixed",
}

# Counters the tracer reads from arguments and results.
_COUNTS = (
    "parser.ground_atoms", "kbmodel.rule_instances", "splitting.layers",
    "winslett.update_calls", "winslett.parts_in", "winslett.parts_out",
    "rules.candidate_atoms", "rules.candidates", "rules.stable_models",
    "dynmknf.branches",
)


def per_layer(loop: Loop, tracer) -> dict:
    """Per-solve means over traced solves, plus trace overhead and coverage."""
    solves = len(loop.traced["models"]) + len(loop.traced["update"])
    spans: dict[str, float] = {}
    for acc in loop.layer_self.values():
        for name, value in acc.items():
            spans[name] = spans.get(name, 0.0) + value
    out = {}
    for metric, names in _TIME_SPANS.items():
        out[metric] = sum(spans.get(n, 0.0) for n in names) / solves
    entails = len(loop.traced["entail"])
    out["interp.entail_s"] = tracer.self_s.get("interp.entail", 0.0) / max(entails, 1)
    for metric, name in _CALL_SPANS.items():
        out[metric] = tracer.calls.get(name, 0) / solves
    counts = tracer.counts
    for metric in _COUNTS:
        out[metric] = counts.get(metric, 0) / solves
    out["interp.largest_component_parts"] = counts.get("interp.largest_component_parts", 0)
    out["rules.stable_per_candidate"] = (
        counts["rules.stable_models"] / counts["rules.candidates"]
        if counts.get("rules.candidates") else 0.0
    )
    traced_p50 = median(loop.in_ref(loop.traced["models"]))
    out["trace.overhead"] = traced_p50 / median(loop.in_ref(loop.samples["models"]))
    solve_wall = sum(dt for kind in ("models", "update") for _, _, dt in loop.traced[kind])
    outer = sum(spans.get(name, 0.0) for name in _OUTER_SPANS)
    out["trace.coverage"] = 1.0 - outer / solve_wall
    return out


def trace_faults(workload: str, metrics: dict, tracer) -> list[str]:
    """Why the traced run cannot be trusted: an expected layer never ran,
    or too little solve time fell inside named layer spans."""
    faults = [
        f"span {name} has no calls on {workload}"
        for name in EXPECTED_SPANS[workload]
        if not tracer.calls.get(name)
    ]
    floor = COVERAGE_FLOOR[workload]
    if metrics["trace.coverage"] < floor:
        faults.append(f"trace coverage {metrics['trace.coverage']:.3f} is below {floor}")
    return faults


def top_layers(loop: Loop) -> dict:
    """Layer with the largest self time, and its share, per operation."""
    out = {}
    for kind, acc in loop.layer_self.items():
        by_layer: dict[str, float] = {}
        for name, value in acc.items():
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + value
        total = sum(by_layer.values())
        if total > 0:
            layer = max(by_layer, key=by_layer.get)
            out[kind] = (layer, by_layer[layer] / total)
    return out


# ---------------------------------------------------------------------------
# entry points


def run_workload(args, bench: dict) -> int:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import hybridmknf

    if not os.path.abspath(hybridmknf.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"hybridmknf imported from outside {SRC}")
    import ladder
    import workloads
    from tracer import Tracer

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        t0 = time.perf_counter()
        jobs = workloads.WORKLOADS[args.workload](random.Random(args.seed), work)
        build_s = time.perf_counter() - t0
        plain = (
            hybridmknf.load_sequence, hybridmknf.dynamic_models,
            hybridmknf.entails, hybridmknf.parse_query,
        )
        tracer = Tracer() if args.trace else None
        api = {False: plain}
        if tracer:
            api[True] = (*tracer.entry_points(), hybridmknf.parse_query)
        loop = Loop(jobs, api, tracer)
        loop.calibrate()
        busy = loop.run(args.seconds, bool(args.trace))
        rss_mb = ladder.peak_rss_mb()
        known = Loop(workloads.known_wrong(args.workload), {False: plain})
        for job in known.jobs:
            known.run_job(job, False)

        e2e = None
        if not args.trace:
            wall = {op: ladder.climb(op, work, child_env()) for op in ("models", "update")}
            setup = cli_setup(SETUP_SPAWNS)
            e2e, printed = end_to_end(loop, setup, rss_mb, wall)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    print("env " + json.dumps(environment(args.seed)))
    print(
        f"workload {args.workload}: seed {args.seed}, {len(jobs)} jobs per cycle, "
        f"inputs and references built in {build_s:.2f} s, loop {busy:.2f} s, "
        f"{len(loop.kernels)} kernel runs"
    )
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    samples = loop.traced if args.trace else loop.samples
    notes = {}
    for kind in ("models", "update", "entail"):
        n = len(samples[kind])
        notes[f"{kind}_p50"] = f"n={n}"
        if kind != "entail":
            pct = tail([dt for _, _, dt in samples[kind]])[1]
            beyond = 0 if pct == 100.0 else 10
            notes[f"{kind}_tail"] = f"p{pct:.1f}, {beyond} beyond, n={n}"
    fail_ratio = loop.failed / loop.attempted
    print(f"  {'fail_ratio':<16} {fail_ratio:>14.6g} ratio  {loop.failed} of {loop.attempted}")
    for (kind, label, what), count in sorted(loop.wrong.items()):
        print(f"  wrong: {args.workload} {kind} [{label}] {what} (x{count})")
    for (kind, label, what), _ in sorted(known.wrong.items()):
        print(f"  known wrong, asked once, not counted: {args.workload} {kind} [{label}] {what}")
    if known.jobs and not known.wrong:
        print(f"  known wrong queries of {args.workload} now answer correctly: "
              "move them back into the timed cycle (workloads.KNOWN_WRONG)")
    if e2e:
        spawns = f"median of {SETUP_SPAWNS} spawns"
        notes["setup"] = f"CLI over NumPy spawn, x {calib.REF_IMPORT_S} s"
        notes["cli_import"] = notes["numpy_import"] = spawns
        for name, value in e2e.items():
            note = notes.get(name.rsplit("_", 1)[0], "")
            print(f"  {name:<16} {value:>14.6g} {units[name]:<6} {note}")
        for name, (value, unit) in printed.items():
            note = notes.get(name.rsplit("_", 1)[0], "")
            print(f"  {name:<16} {value:>14.6g} {unit:<6} {note} (not gated)")
        for op, (best, rungs) in wall.items():
            steps = "; ".join(
                f"N={r['n']} {'ok' if r['ok'] else 'stop: ' + r['stop']} "
                f"{r['seconds']:.2f} s {r['peak_rss_mb']:.0f} MB"
                + "".join(f"; wrong: {q}" for q in r.get("wrong", []))
                for r in rungs
            )
            print(f"  ladder {op}: max N={best} ({steps})")

    metrics = e2e
    if args.trace:
        metrics = per_layer(loop, tracer)
        for name, value in metrics.items():
            print(f"  {name:<32} {value:>14.6g} {units.get(name, '(printed only)')}")
        for kind, (layer, share) in top_layers(loop).items():
            print(f"  largest self time on {kind}: {layer} ({share:.0%})")
        print("  span calls " + json.dumps(dict(sorted(tracer.calls.items()))))
        faults = trace_faults(args.workload, metrics, tracer)
        for fault in faults:
            print(fault, file=sys.stderr)
        if faults:
            return 3
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            print(f"workload {name} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode
        rows[name] = json.loads(done.stdout.strip().splitlines()[-1])
    metric_names = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':<34}" + "".join(f"{w:>14}" for w in rows))
    for m in metric_names:
        unit = rows[WORKLOAD_NAMES[0]]["metrics"][m]["unit"]
        cells = "".join(f"{rows[w]['metrics'][m]['value']:>14.6g}" for w in rows)
        print(f"{m + ' (' + unit + ')':<34}{cells}")
    print(f"{'failed / attempted':<34}"
          + "".join(f"{str(r['failed']) + '/' + str(r['attempted']):>14}" for r in rows.values()))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "hybridmknf")):
        print(f"no engine sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    bench = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
