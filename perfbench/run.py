"""Benchmark entry point: end-to-end and per-layer metrics of ``repro``.

Run one workload (the last stdout line is the result as JSON)::

    python3 perfbench/run.py --workload analyst_local --seed 1 --seconds 15 --trace 0

or every workload, each in its own fresh process, with a table of all
metrics at the end::

    python3 perfbench/run.py --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` runs the same workload, untraced for the first half of the
timed phase and traced for the second, and reports the per-layer
metrics.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOAD_NAMES = ("analyst_local", "remote_fleet", "ingest_live")
SETUP_REPEATS = 3
#: A run keeps going past ``--seconds`` until this many answers, so the
#: p90 always has at least ten answers beyond it.
MIN_ANSWERS = 100


def _import_program():
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source at {src}/repro")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _percentile(values, q: float) -> float:
    """The ``q``-quantile by the inclusive method (``statistics.quantiles``)."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(round(q * 100)) - 1])


def _timed_phase(wl, seconds: float, min_answers: int) -> float:
    """Run whole rounds until *seconds* passed and *min_answers* answered."""
    start = time.perf_counter()
    while True:
        wl.round()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(wl.rec.latencies) >= min_answers:
            return elapsed


def _delta(after: dict, before: dict, key: str) -> float:
    return float(after.get(key, 0) - before.get(key, 0))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads

    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    rec = workloads.Recorder()
    wl = workloads.WORKLOADS[name](seed, workdir, rec)
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        spans.instrument(tracer)
    setup_times = []
    try:
        for i in range(SETUP_REPEATS):
            if i:
                wl.close()
            gc.collect()
            start = time.perf_counter()
            wl.setup(i)
            setup_times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.uninstall()
            setup_spans, _ = tracer.take()
            seconds /= 2.0
        gc.collect()
        if name == "ingest_live":
            # its timed-phase ingests are the measure; the other workloads
            # keep the rates of their set-up archive builds
            wl.ingest_rates.clear()
        before = wl.counters()
        cpu0 = _cpu_seconds()
        elapsed = _timed_phase(wl, seconds, 1 if trace else MIN_ANSWERS)
        cpu = _cpu_seconds() - cpu0
        after = wl.counters()
        answers = len(rec.latencies)
        if tracer is None:
            lat_ms = [x * 1000.0 for x in rec.latencies]
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "answers_per_s": (answers / elapsed, "1/s"),
                "answer_p50_ms": (statistics.median(lat_ms), "ms"),
                "answer_p90_ms": (_percentile(lat_ms, 0.9), "ms"),
                "bytes_per_answer": (
                    _delta(after, before, "store_bytes_read") / answers, "B"),
                "cpu_ms_per_answer": (cpu * 1000.0 / answers, "ms"),
                "stored_bytes_per_raw_byte": (wl.stored_bytes() / wl.raw_bytes, "B/B"),
                "ingest_mb_per_s": (statistics.median(wl.ingest_rates), "MB/s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        else:
            metrics = _traced_phase(wl, tracer, setup_spans, seconds)
        result = {
            "correct": not rec.wrong,
            "attempted": rec.attempted,
            "failed": rec.failed,
        }
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still works there
    for what in (rec.wrong + rec.errors)[:5]:
        print(f"[{name}] failed: {what}", file=sys.stderr)
    result["metrics"] = {
        k: {"value": float(v), "unit": unit} for k, (v, unit) in metrics.items()
    }
    result["samples"] = len(rec.latencies)
    return result


def _traced_phase(wl, tracer, setup_spans, seconds):
    """Run the traced half; derive the per-layer metrics."""
    import spans

    rec = wl.rec
    untraced_ms = 1000.0 * sum(rec.latencies) / len(rec.latencies)
    mark = len(rec.latencies)
    rounds0, consumed0 = rec.rounds, rec.consumed_bytes
    spans.instrument(tracer)
    wl.trace_answer = tracer.answer
    before = wl.counters()
    try:
        _timed_phase(wl, seconds, 1)
    finally:
        tracer.uninstall()
        del wl.trace_answer
    after = wl.counters()
    timed, roots = tracer.take()
    n = len(rec.latencies) - mark
    traced_ms = 1000.0 * sum(rec.latencies[mark:]) / n
    per = lambda x: x / n  # noqa: E731
    d = lambda key: _delta(after, before, key)  # noqa: E731

    self_s, wall_s = spans.answer_self_times(timed, roots)
    layer_ms = {}
    for layer, s in self_s.items():
        top = layer.split(".")[0]
        layer_ms[top] = layer_ms.get(top, 0.0) + 1000.0 * s / n
    print(f"[{wl.name}] traced answers: {n}, wall {1000.0 * wall_s / n:.3f} ms/answer; "
          "self time by layer (ms/answer):", file=sys.stderr)
    for layer in sorted(self_s):
        print(f"    {layer:28s} {1000.0 * self_s[layer] / n:9.3f}", file=sys.stderr)

    own = spans.self_busy(timed)
    every = setup_spans + timed
    refactor_s, refactor_b = spans.busy(every, "compressors.refactor")
    ingest_s, ingest_b = spans.busy(every, "service.ingest")
    commit_s, _ = spans.busy(every, "storage.wal")
    req = sorted(spans.durations(timed, "storage.remote"))
    get_s = spans.busy(timed, wl.backing_layer)[0]
    hits, misses = d("cache_hits"), d("cache_misses")
    plan_hits, plan_misses = d("plan_hits"), d("plan_misses")
    compactions = getattr(wl, "compactions", [])
    raw_live = wl.raw_bytes
    ms = lambda s: 1000.0 * s  # noqa: E731
    mb = lambda b: b / 1e6 if b else 0.0  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    metrics = {
        "core.rounds_per_answer": (per(rec.rounds - rounds0), "count"),
        "core.estimate_ms_per_answer": (per(ms(own.get("core.estimate", 0.0))), "ms"),
        "core.assign_ms_per_answer": (per(ms(own.get("core.assign", 0.0))), "ms"),
        "core.fetch_wait_ms_per_answer": (per(ms(spans.busy(timed, "core.fetch_wait")[0])), "ms"),
        "core.prefetch_waste_bytes_per_answer": (
            per(d("store_bytes_read") - (rec.consumed_bytes - consumed0)), "B"),
        "compressors.decode_ms_per_answer": (
            per(ms(own.get("compressors.decode", 0.0))), "ms"),
        "compressors.plan_ms_per_answer": (per(ms(own.get("compressors.plan", 0.0))), "ms"),
        "compressors.refactor_ms_per_mb": (ratio(ms(refactor_s), mb(refactor_b)), "ms/MB"),
        "storage.round_trips_per_answer": (per(d("store_round_trips")), "count"),
        "storage.get_many_ms_per_answer": (per(ms(get_s)), "ms"),
        "storage.remote.requests_per_answer": (per(len(req)), "count"),
        "storage.remote.request_p50_ms": (ms(statistics.median(req)) if req else 0.0, "ms"),
        "storage.cluster.shard_trips_per_answer": (per(d("shard_trips")), "count"),
        "storage.cache.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "storage.cache.evictions_per_answer": (per(d("cache_evictions")), "count"),
        "storage.resilience.retries_per_answer": (per(d("retries")), "count"),
        "storage.wal.commit_ms_per_mb": (ratio(ms(commit_s), mb(ingest_b)), "ms/MB"),
        "storage.wal.log_bytes_per_raw_byte": (ratio(after.get("log_bytes", 0), raw_live), "B/B"),
        "storage.compact_ms": (
            ms(statistics.mean(c[0] for c in compactions)) if compactions else 0.0, "ms"),
        "storage.reclaimed_bytes_per_raw_byte": (
            ratio(sum(c[1].reclaimed_bytes for c in compactions),
                  getattr(wl, "raw_ingested", 0)), "B/B"),
        "service.ingest_ms_per_mb": (ratio(ms(ingest_s), mb(ingest_b)), "ms/MB"),
        "service.planner.plan_hit_ratio": (ratio(plan_hits, plan_hits + plan_misses), "ratio"),
        "service.planner.merged_rounds_per_answer": (per(d("merged_rounds")), "count"),
        "service.planner.coalesce_wait_ms_per_answer": (
            per(ms(own.get("service.planner.coalesce", 0.0))), "ms"),
        "service.server.encode_ms_per_answer": (
            per(ms(own.get("service.server.encode", 0.0))), "ms"),
        "compressors.self_ms_per_answer": (layer_ms.get("compressors", 0.0), "ms"),
        "core.self_ms_per_answer": (layer_ms.get("core", 0.0), "ms"),
        "storage.self_ms_per_answer": (layer_ms.get("storage", 0.0), "ms"),
        "service.self_ms_per_answer": (layer_ms.get("service", 0.0), "ms"),
        "trace.unattributed_ms_per_answer": (layer_ms.get("trace", 0.0), "ms"),
        "trace.answer_ms": (traced_ms, "ms"),
        "trace.overhead_ms_per_answer": (traced_ms - untraced_ms, "ms"),
    }
    return metrics


def run_all(args) -> int:
    """Every workload in its own fresh process, then one table."""
    rows = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        rows[name] = json.loads(lines[-1])
    names = []
    for row in rows.values():
        for key in row["metrics"]:
            if key not in names:
                names.append(key)
    print(f"{'metric':44s}" + "".join(f"{n:>18s}" for n in rows))
    for key in ("correct", "attempted", "failed"):
        print(f"{key:44s}" + "".join(f"{str(r[key]):>18s}" for r in rows.values()))
    for key in names:
        unit = next(r["metrics"][key]["unit"] for r in rows.values() if key in r["metrics"])
        cells = "".join(
            f"{r['metrics'][key]['value']:18.4f}" if key in r["metrics"] else f"{'-':>18s}"
            for r in rows.values()
        )
        print(f"{key + ' [' + unit + ']':44s}{cells}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    samples = result.pop("samples")
    for key, m in result["metrics"].items():
        print(f"{key:44s} {m['value']:14.4f} {m['unit']}")
    print(f"answers measured: {samples}; attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
