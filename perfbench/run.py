"""The repository benchmark: https-wedge, kv-durable and conn-churn.

Run one workload (the form the benchmark contract uses)::

    python3 perfbench/run.py --workload https-wedge --seed 1 \
        --seconds 20 --trace 0

A run replays a fixed, seeded number of operations (about ``--seconds``
of work on the reference host), split over the workload's rounds.  Each
round is a fresh process that runs only that workload: its set-ups, then
its share of the operations on the last one.  The run pools the rounds'
samples, so its metrics span several host-speed windows.

``--trace 0`` reports the end-to-end metrics, untraced.  ``--trace 1``
wraps each layer's public functions (``perfbench/layers.py``) and reports
the per-layer metrics instead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it (``detail: {...}``) carries what is not
a gated metric: host speed before and after each round, every set-up
time, the failure reasons and, in a traced run, the determinism
fingerprint.

Run every workload, untraced and traced::

    python3 perfbench/run.py --workload all --seed 1

Check that two runs of one seed agree on every count::

    python3 perfbench/run.py --workload all --seed 1 --determinism

``perfbench/README.md`` describes the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Nominal measured seconds per run (BENCHMARK.json ``run_seconds``).
SECONDS = 20

#: End-to-end metrics and their units (the BENCHMARK.json list).
END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "model_cycles_per_op": "cycles",
}

#: A run must end within this many seconds; rounds share the budget.
RUN_BUDGET_S = 170.0

#: What JSON gets for a latency percentile that landed on a failed
#: (infinitely slow) operation.
INF_MS = sys.float_info.max


def _import_program():
    """Put ``src`` on the path; a checkout without it cannot run."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        sys.exit(2)
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


# ---------------------------------------------------------------------------
# host context and memory
# ---------------------------------------------------------------------------

def host_loop_ms(rounds=5, n=200_000):
    """Median time of a fixed pure-Python loop: the host-speed probe."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(n):
            acc += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def rss_bytes():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class GcMeter:
    """``gc.callbacks`` hook: total collection pause and gen-2 count."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2 = 0
        self._start = None

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.pause_s += time.perf_counter() - self._start
            self._start = None
            if info.get("generation") == 2:
                self.gen2 += 1


class LayerProbe:
    """Brackets the measured phase of a traced round.

    Reads the counters the program keeps itself (TLB, kv stats, reactor
    dispatches, live compartments) at both ends, meters GC and RSS, and
    switches the span recorder on and off.
    """

    def __init__(self, workload, recorder):
        self.workload = workload
        self.recorder = recorder
        self.gc = GcMeter()

    def _counters(self):
        hits = walks = dispatches = live = 0
        for kernel in self.workload.kernels():
            tlb = kernel.tlb_stats()
            hits += tlb["hits"]
            walks += tlb["walks"]
            live += len(kernel.sthreads)
            if kernel.scheduler == "reactor":
                dispatches += kernel.reactor.dispatch_count
        kv = (self.workload.kv_stats()
              if hasattr(self.workload, "kv_stats") else {})
        return {"tlb_hits": hits, "tlb_walks": walks,
                "dispatches": dispatches, "live_sthreads": live,
                "kv_hits": kv.get("hits", 0),
                "kv_misses": kv.get("misses", 0)}

    def start(self):
        self.before = self._counters()
        self.rss0 = rss_bytes()
        gc.callbacks.append(self.gc)
        self.recorder.recording = True

    def stop(self):
        self.recorder.recording = False
        self.stats = self.recorder.snapshot()
        gc.callbacks.remove(self.gc)
        rss1 = rss_bytes()
        after = self._counters()
        counters = {k: after[k] - self.before[k] for k in after}
        counters["live_sthreads"] = after["live_sthreads"]
        counters["rss_growth_bytes"] = rss1 - self.rss0
        counters["gc_pause_s"] = self.gc.pause_s
        counters["gc_gen2"] = self.gc.gen2
        self.counters = counters


# ---------------------------------------------------------------------------
# one round, in this process
# ---------------------------------------------------------------------------

def measure_round(name, *, seed, ops, trace):
    """Set *name* up, then replay *ops* operations; returns raw data.

    The workload is set up ``setups_per_round`` times; all but the last
    set-up are torn down again, and each set-up time is recorded.
    *seed* may be any string or int; every input of the round derives
    from it.  The result is JSON-ready (latencies of failed operations
    are ``None``).
    """
    from perfbench import layers
    from perfbench.workloads import WORKLOADS

    recorder = hooks = probe = None
    if trace:
        recorder = layers.SpanRecorder()
        hooks = layers.Hooks(recorder).install()
    workload = WORKLOADS[name](seed, ops)
    if trace and hasattr(workload, "trace_task"):
        def trace_task(gen):
            if not recorder.recording:
                return gen
            return layers.timed_generator(recorder, ("bench", "task"), gen)
        workload.trace_task = trace_task
    setup_s = []
    try:
        for k in range(workload.setups_per_round):
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
            if k + 1 < workload.setups_per_round:
                workload.teardown()
        gc.collect()
        if trace:
            probe = LayerProbe(workload, recorder)
            probe.start()
        start = time.perf_counter()
        samples = workload.measure()
        wall = time.perf_counter() - start
        if probe is not None:
            probe.stop()
        problems = workload.verify()
    finally:
        workload.teardown()
        if hooks is not None:
            hooks.remove()
    raw = {
        "ops": ops,
        "setup_s": setup_s,
        "wall_s": wall,
        "latencies": [None if math.isinf(lat) else lat
                      for lat in samples.latencies],
        "kinds": samples.kinds,
        "cycles_per_op": samples.cycles_per_op(),
        "failures": samples.failures[:5],
        "problems": problems[:5],
        "user_bytes": samples.user_bytes,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if probe is not None:
        raw["stats"] = {"|".join(key): row
                        for key, row in probe.stats.items()}
        raw["counters"] = probe.counters
    return raw


# ---------------------------------------------------------------------------
# a run: rounds in fresh processes, pooled
# ---------------------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile of an ascending list."""
    index = max(0, math.ceil(q * len(values)) - 1)
    return values[index]


def _ms(seconds):
    return INF_MS if math.isinf(seconds) else seconds * 1000.0


def _latencies(raw, kind=None):
    return sorted(math.inf if lat is None else lat
                  for lat, k in zip(raw["latencies"], raw["kinds"])
                  if kind is None or k == kind)


def split_ops(total, rounds):
    """Operations per round: *total* spread as evenly as possible."""
    base, extra = divmod(total, rounds)
    return [base + (1 if i < extra else 0) for i in range(rounds)]


def pool(rounds_raw):
    """Concatenate the rounds' per-operation data into one raw record."""
    pooled = {"latencies": [], "kinds": [], "cycles_per_op": [],
              "failures": [], "problems": [], "user_bytes": 0,
              "ops": 0, "wall_s": 0.0}
    for raw in rounds_raw:
        for key in ("latencies", "kinds", "cycles_per_op", "failures",
                    "problems"):
            pooled[key] += raw[key]
        for key in ("user_bytes", "ops", "wall_s"):
            pooled[key] += raw[key]
    return pooled


def summarize(name, rounds_raw, *, trace):
    """Pool the rounds into ``(result, detail)``."""
    from perfbench import layers

    pooled = pool(rounds_raw)
    ops = pooled["ops"]
    latencies = _latencies(pooled)
    latencies += [math.inf] * (ops - len(latencies))
    completed = sum(1 for lat in latencies if not math.isinf(lat))
    failed = ops - completed
    p99 = percentile(latencies, 0.99)
    cycles = (statistics.median(pooled["cycles_per_op"])
              if pooled["cycles_per_op"] else 0)
    throughput = completed / pooled["wall_s"] if pooled["wall_s"] else 0.0
    if trace:
        stats = {}
        counters = {}
        for raw in rounds_raw:
            for key, row in raw["stats"].items():
                acc = stats.setdefault(tuple(key.split("|")), [0, 0, 0, 0])
                for i, value in enumerate(row):
                    acc[i] += value
            for key, value in raw["counters"].items():
                counters[key] = counters.get(key, 0) + value
        counters["live_sthreads"] = statistics.median(
            raw["counters"]["live_sthreads"] for raw in rounds_raw)
        counters["user_bytes"] = pooled["user_bytes"]
        for kind in ("get", "set"):
            values = _latencies(pooled, kind)
            counters[f"{kind}_p50_ms"] = (_ms(percentile(values, 0.5))
                                          if values else 0.0)
        values = layers.layer_metrics(stats, ops, counters)
        values["trace.throughput_ops_s"] = throughput
        units = dict(layers.UNITS, **{"trace.throughput_ops_s": "ops/s"})
    else:
        values = {
            "throughput_ops_s": throughput,
            "latency_p50_ms": _ms(percentile(latencies, 0.5)),
            "latency_p99_ms": _ms(p99),
            "setup_s": statistics.median(t for r in rounds_raw
                                         for t in r["setup_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in rounds_raw),
            "model_cycles_per_op": cycles,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0 and not pooled["problems"],
        "attempted": ops,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in values.items()},
    }
    detail = {
        "workload": name, "trace": int(bool(trace)), "ops": ops,
        "rounds": len(rounds_raw),
        "measured_wall_s": pooled["wall_s"],
        "setup_s_samples": [r["setup_s"] for r in rounds_raw],
        "peak_rss_mb_samples": [r["peak_rss_mb"] for r in rounds_raw],
        "model_cycles_per_op": cycles,
        "samples_above_p99": sum(1 for lat in latencies if lat > p99),
        "failures": pooled["failures"][:5],
        "problems": pooled["problems"][:5],
    }
    if trace:
        detail["fingerprint"] = dict(
            {key: values[key] for key in layers.EXACT},
            model_cycles_per_op=cycles)
    return result, detail


def _round_child(name, seed, index, ops, trace, timeout):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--ops", str(ops), "--round", str(index)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} round {index} exited "
                           f"{proc.returncode}: {proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, *, seed, seconds, trace):
    """One benchmark run: fresh round processes, pooled.

    A run replays the workload's ``ops_per_second * seconds``
    operations over as many rounds as its ``round_ops`` needs.  A traced
    run keeps the round size but makes half as many rounds: its counts
    per operation are the same, and its times are for attribution, not
    for gating.
    """
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS[name]
    total = max(1, round(cls.ops_per_second * seconds))
    rounds = -(-total // cls.round_ops)
    if trace and rounds > 1:
        keep = rounds // 2
        total = total * keep // rounds
        rounds = keep
    deadline = time.monotonic() + RUN_BUDGET_S
    host_before = host_loop_ms()
    rounds_raw = []
    for index, round_ops in enumerate(split_ops(total, rounds)):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(f"{name}: run budget spent after "
                               f"{index} of {rounds} rounds")
        rounds_raw.append(_round_child(name, f"{seed}/{index}", index,
                                       round_ops, trace, remaining))
    result, detail = summarize(name, rounds_raw, trace=trace)
    detail.update(seed=seed, seconds=seconds,
                  host_loop_ms=[host_before, host_loop_ms()])
    return result, detail


# ---------------------------------------------------------------------------
# several workloads
# ---------------------------------------------------------------------------

def _workload_child(name, seed, seconds, trace):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_BUDGET_S + 30, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{name} (trace={trace}) exited "
                           f"{proc.returncode}: {proc.stderr[-3000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail: "):])


def compare_fingerprints(first, second):
    """Names whose deterministic values differ between two runs."""
    return sorted(key for key in set(first) | set(second)
                  if first.get(key) != second.get(key))


def run_determinism(names, seed, seconds):
    differences = {}
    for name in names:
        prints = [_workload_child(name, seed, seconds, True)[1]
                  ["fingerprint"] for _ in range(2)]
        diff = compare_fingerprints(*prints)
        for key in diff:
            print(f"  DIFFERENT {name} {key}: {prints[0].get(key)!r} vs "
                  f"{prints[1].get(key)!r}")
        print(f"{name}: {'DIFFERENT' if diff else 'identical'} over "
              f"{len(prints[0])} deterministic values (seed {seed})")
        differences[name] = diff
    print(json.dumps({"deterministic": not any(differences.values()),
                      "differences": differences}))
    return 1 if any(differences.values()) else 0


def run_all(names, seed, seconds):
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    layer_rows = {}
    for name in names:
        plain, detail = _workload_child(name, seed, seconds, False)
        traced, _ = _workload_child(name, seed, seconds, True)
        summary["correct"] = (summary["correct"] and plain["correct"]
                              and traced["correct"])
        summary["attempted"] += plain["attempted"]
        summary["failed"] += plain["failed"]
        before, after = detail["host_loop_ms"]
        print(f"{name}: {plain['attempted']} ops, {plain['failed']} "
              f"failed, {detail['rounds']} rounds, host loop "
              f"{before:.1f} ms before, {after:.1f} ms after")
        for key, metric in plain["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
            print(f"  {key:24s} {metric['value']:>16.6g} {metric['unit']}")
        traced_tput = traced["metrics"]["trace.throughput_ops_s"]["value"]
        plain_tput = plain["metrics"]["throughput_ops_s"]["value"]
        print(f"  {'traced throughput':24s} {traced_tput:>16.6g} ops/s "
              f"(tracing costs {plain_tput / traced_tput:.2f}x)")
        for key, metric in traced["metrics"].items():
            layer_rows.setdefault(key, {})[name] = metric
    print(f"\n{'per-layer metric (traced run)':42s}"
          + "".join(f"{n:>14s}" for n in names))
    for key, cols in layer_rows.items():
        unit = next(iter(cols.values()))["unit"]
        print(f"{key + ' [' + unit + ']':42s}"
              + "".join(f"{cols[n]['value']:>14.6g}" for n in names))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True,
                        help="https-wedge, kv-durable, conn-churn or all")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", type=float, default=SECONDS,
                        help="nominal measured seconds; sizes the fixed "
                             f"operation count (default {SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--determinism", action="store_true",
                        help="run traced twice and compare every count")
    # the round-child protocol: one round of --ops operations
    parser.add_argument("--round", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}")
    if args.round is not None:
        print(json.dumps(measure_round(args.workload, seed=args.seed,
                                       ops=args.ops, trace=args.trace)))
        return 0
    if args.determinism:
        return run_determinism(names, args.seed, args.seconds)
    if args.workload == "all":
        return run_all(names, args.seed, args.seconds)
    result, detail = run_workload(args.workload, seed=args.seed,
                                  seconds=args.seconds, trace=args.trace)
    print("detail: " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
