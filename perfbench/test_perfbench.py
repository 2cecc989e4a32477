"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They cover a tiny-scale pass of every workload through the command line,
the span self-time arithmetic, the "a slower layer is named" property of
the traced run, the hooks' fail-closed rule and the exit code of a
checkout without the program.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

from perfbench import layers, run
from perfbench.workloads import WORKLOADS

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _cli(*args, cwd=None):
    return subprocess.run([sys.executable, RUN_PY, *args],
                          capture_output=True, text=True, timeout=170,
                          cwd=cwd, check=False)


# ---------------------------------------------------------------------------
# tiny-scale pass of every workload, through the contract's command line
# ---------------------------------------------------------------------------

#: Nominal seconds of the tiny runs, and the rounds they make
TINY = {"https-wedge": (1.0, 2), "kv-durable": (0.05, 1),
        "conn-churn": (0.05, 1)}


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_pass(name, trace):
    seconds, rounds = TINY[name]
    proc = _cli("--workload", name, "--seed", "3", "--seconds",
                str(seconds), "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    ops = round(WORKLOADS[name].ops_per_second * seconds)
    if trace and rounds > 1:
        ops = ops * (rounds // 2) // rounds
    assert (result["attempted"], result["failed"]) == (ops, 0)
    expected = (dict(layers.UNITS, **{"trace.throughput_ops_s": "ops/s"})
                if trace else run.END_TO_END)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    detail = json.loads(lines[-2][len("detail: "):])
    assert detail["rounds"] == (max(1, rounds // 2) if trace else rounds)
    assert len(detail["host_loop_ms"]) == 2
    if not trace:
        for key in ("throughput_ops_s", "setup_s", "model_cycles_per_op"):
            assert result["metrics"][key]["value"] > 0


def test_bypassed_layers_show_zero_calls():
    """kv-durable builds no compartment per op and runs no TLS/crypto."""
    raw = run.measure_round("kv-durable", seed="z", ops=40, trace=True)
    stats = {tuple(k.split("|")): v for k, v in raw["stats"].items()}
    calls = {key: row[layers.CALLS] for key, row in stats.items()}
    for layer in ("tls", "crypto", "httpd", "reactor"):
        assert not any(n for (lay, _), n in calls.items() if lay == layer)
    assert calls.get(("core", "Kernel.sthread_create"), 0) == 0
    assert calls[("kv", "store_gate")] == 40


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    rec = layers.SpanRecorder(clock=clock)
    a = rec.begin(("x", "outer"))           # t=0
    clock.now = 1.0
    b = rec.begin(("y", "middle"))
    clock.now = 2.0
    c = rec.begin(("z", "inner"))
    clock.now = 5.0
    rec.end(*c)                              # inner: 3
    clock.now = 6.0
    rec.end(*b)                              # middle: 5, self 2
    clock.now = 7.0
    d = rec.begin(("y", "middle"))
    clock.now = 8.0
    rec.end(*d)                              # middle again: 1
    clock.now = 10.0
    rec.end(*a)                              # outer: 10, self 10-5-1
    stats = rec.snapshot()
    assert stats[("z", "inner")][:3] == [1, 3.0, 3.0]
    assert stats[("y", "middle")][:3] == [2, 6.0, 3.0]
    assert stats[("x", "outer")][:3] == [1, 10.0, 4.0]


def test_spans_on_other_threads_are_not_children():
    clock = FakeClock()
    rec = layers.SpanRecorder(clock=clock)
    opened = threading.Event()
    closed = threading.Event()

    def other():
        opened.wait(5)
        clock.now = 2.0
        span = rec.begin(("net", "other"))
        clock.now = 7.0
        rec.end(*span)
        closed.set()

    worker = threading.Thread(target=other)
    worker.start()
    span = rec.begin(("core", "main"))       # t=0
    opened.set()
    assert closed.wait(5)
    clock.now = 9.0
    rec.end(*span)
    worker.join(5)
    assert not worker.is_alive()
    stats = rec.snapshot()
    assert stats[("core", "main")][:3] == [1, 9.0, 9.0]
    assert stats[("net", "other")][:3] == [1, 5.0, 5.0]


def test_generator_span_excludes_parked_time():
    clock = FakeClock()
    rec = layers.SpanRecorder(clock=clock)

    def body():
        clock.now += 1.0
        got = yield "first"
        clock.now += 2.0
        yield got
        clock.now += 0.5
        return "done"

    gen = layers.timed_generator(rec, ("net", "co"), body())
    assert next(gen) == "first"
    clock.now += 100.0                       # parked: nobody's time
    assert gen.send("echo") == "echo"
    clock.now += 100.0
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    calls, total, self_s, _ = rec.snapshot()[("net", "co")]
    assert (calls, total, self_s) == (1, 3.5, 3.5)


def test_wait_span_classified_by_parent():
    clock = FakeClock()
    rec = layers.SpanRecorder(clock=clock)
    rec.recording = True

    def blocking_recv():
        clock.now += 4.0
        return b"x"

    wait = layers._wait_wrapper(rec, "ByteStream.recv", blocking_recv)
    server = rec.begin(("net", "Kernel.recv"))
    wait()
    clock.now += 1.0
    rec.end(*server)
    client = rec.begin(("tls", "read_frame"))
    wait()
    rec.end(*client)
    stats = rec.snapshot()
    assert stats[("net.wait", "ByteStream.recv")][:3] == [1, 4.0, 4.0]
    assert stats[("client.wait", "ByteStream.recv")][:3] == [1, 4.0, 4.0]
    assert stats[("net", "Kernel.recv")][2] == 1.0
    assert stats[("tls", "read_frame")][2] == 0.0


# ---------------------------------------------------------------------------
# hooks: fail closed, patch every reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("target", [
    "repro.core.kernel:Kernel.no_such_syscall",
    "repro.no_such_module:function",
    "repro.crypto.mac:NoSuchClass.method",
])
def test_missing_hook_target_fails(target):
    hooks = layers.Hooks(layers.SpanRecorder(),
                         table=[("core", target, "call", None)])
    with pytest.raises(layers.HookError):
        hooks.install()


def test_hooks_cover_direct_imports_and_aliases():
    import repro.crypto.mac as mac
    import repro.crypto.prf as prf
    import repro.crypto.stream as stream
    import repro.tls.records as records
    original = mac.hmac_sha256
    with layers.Hooks(layers.SpanRecorder()):
        assert prf.hmac_sha256 is mac.hmac_sha256 is not original
        assert records.hmac_sha256 is mac.hmac_sha256
        assert stream.StreamCipher.encrypt is stream.StreamCipher.process
    assert prf.hmac_sha256 is records.hmac_sha256 is original


def test_every_hook_target_exists():
    for _layer, target, _kind, _bytes in layers.HOOKS:
        assert callable(layers.resolve(target))


# ---------------------------------------------------------------------------
# a delay injected into one layer is attributed to that layer only
# ---------------------------------------------------------------------------

def _self_by_layer(raw):
    """Self time per layer, ms per operation, of one traced round."""
    out = dict.fromkeys(layers.LAYERS, 0.0)
    for key, row in raw["stats"].items():
        layer = key.split("|")[0]
        if layer in out:
            out[layer] += row[layers.SELF] * 1000.0 / raw["ops"]
    return out


def test_injected_delay_names_its_layer():
    import repro.apps.kv.store as store
    delay = 0.003
    ops = 60
    original = store.unpack_store

    def slow_unpack_store(blob):
        time.sleep(delay)
        return original(blob)

    base = _self_by_layer(run.measure_round(
        "kv-durable", seed="delay", ops=ops, trace=True))
    refs = layers.replace_everywhere(original, slow_unpack_store)
    assert refs, "unpack_store is reachable by name"
    try:
        slow = _self_by_layer(run.measure_round(
            "kv-durable", seed="delay", ops=ops, trace=True))
    finally:
        for owner, attr in refs:
            setattr(owner, attr, original)
    rise = {layer: slow[layer] - base[layer] for layer in base}
    injected_ms = delay * 1000.0     # one unpack_store per operation
    assert rise["kv"] >= 0.8 * injected_ms
    assert max(rise, key=rise.get) == "kv"
    for layer, value in rise.items():
        if layer != "kv":
            assert value < 0.25 * injected_ms, (layer, rise)


# ---------------------------------------------------------------------------
# determinism and the run's plumbing
# ---------------------------------------------------------------------------

def test_two_runs_of_one_seed_agree():
    proc = _cli("--workload", "conn-churn", "--seed", "4", "--seconds",
                "0.02", "--determinism")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {
        "deterministic": True, "differences": {"conn-churn": []}}


def test_compare_fingerprints_flags_differences():
    assert run.compare_fingerprints({"a": 1, "b": 2},
                                    {"a": 1, "b": 3, "c": 0}) == ["b", "c"]


def test_split_ops_and_percentile():
    assert run.split_ops(10, 3) == [4, 3, 3]
    values = list(range(1, 1001))
    assert run.percentile(values, 0.99) == 990      # ten samples above
    assert run.percentile(values, 0.5) == 500


def test_kv_reference_model_rejects_a_wrong_value():
    workload = WORKLOADS["kv-durable"]("m", 1)
    workload.model = {b"k": b"\x01\x02"}
    assert workload._check(("get", b"k", None), b"VALUE 0102")[0]
    assert not workload._check(("get", b"k", None), b"VALUE 0103")[0]
    assert not workload._check(("set", b"k", b"\x09"), b"SHED")[0]
    assert workload._check(("set", b"k", b"\x09"), b"STORED")[0]
    assert workload.model[b"k"] == b"\x09"


def test_checkout_without_program_fails(tmp_path):
    bench = os.path.dirname(RUN_PY)
    shutil.copytree(bench, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(bench), "BENCHMARK.json"),
                tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv-durable",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
        check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
