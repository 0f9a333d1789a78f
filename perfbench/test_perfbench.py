"""Tests of the benchmark's own machinery: the QoI oracle and the span tracer."""

import json
import os
import sys
import threading
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracle as orc  # noqa: E402
import spans  # noqa: E402


def _ge_fields(n=2000, seed=3):
    from repro.data import generators

    return generators.ge_cfd(num_nodes=n, seed=seed)


GE_SPECS = [
    orc.QoISpec("VTOT", "vtot", ("velocity_x", "velocity_y", "velocity_z")),
    orc.QoISpec("T", "temperature", ("pressure", "density")),
    orc.QoISpec("Mach", "mach", ("velocity_x", "velocity_y", "velocity_z", "pressure", "density")),
    orc.QoISpec("mu", "viscosity", ("pressure", "density")),
]


def test_oracle_formulas_match_the_program_on_exact_data():
    from repro.core import qois

    fields = _ge_fields()
    env = {k: (v, 0.0) for k, v in fields.items()}
    program = {"VTOT": qois.total_velocity(), "T": qois.temperature(),
               "Mach": qois.mach_number(), "mu": qois.viscosity()}
    for spec in GE_SPECS:
        np.testing.assert_allclose(spec.value(fields), program[spec.name].value(env), rtol=1e-12)


def test_oracle_accepts_an_answer_within_its_bound_and_rejects_one_past_it():
    fields = _ge_fields()
    oracle = orc.Oracle(fields, GE_SPECS)
    tol = 1e-3
    assert oracle.check("VTOT", fields, 0.0, tol) is None
    # perturb one velocity component: the true VTOT error is about delta
    delta = 0.5 * tol * oracle.ranges["VTOT"]
    perturbed = dict(fields)
    perturbed["velocity_x"] = fields["velocity_x"] + delta * np.sign(fields["velocity_x"])
    actual = float(np.max(np.abs(
        oracle.specs["VTOT"].value(perturbed) - oracle.specs["VTOT"].value(fields))))
    assert actual > 0.0
    # a report that covers the true error and meets the tolerance passes
    assert oracle.check("VTOT", perturbed, actual * 1.01, tol) is None
    # an estimate below the true error is caught
    assert "actual error" in oracle.check("VTOT", perturbed, actual * 0.5, tol)
    # a reconstruction perturbed past the tolerance cannot be reported within it
    far = dict(fields)
    far["pressure"] = fields["pressure"] * (1.0 + 50 * tol)
    bound = tol * oracle.ranges["T"]
    assert oracle.check("T", far, bound, tol) is not None
    # a reported estimate above tol * range fails even if it covers the error
    assert "tol*range" in oracle.check("T", fields, 2 * bound, tol)


def test_oracle_catches_a_wrong_shape():
    fields = _ge_fields()
    oracle = orc.Oracle(fields, GE_SPECS[:1])
    short = {k: v[:-1] for k, v in fields.items()}
    assert "shape" in oracle.check("VTOT", short, 1.0, 1.0)


def _sum_check(spans_list, roots):
    self_s, wall = spans.answer_self_times(spans_list, roots)
    assert wall > 0.0
    assert sum(self_s.values()) == pytest.approx(wall, rel=1e-9, abs=1e-12)
    return self_s, wall


def test_self_times_sum_to_wall_with_a_cross_thread_child():
    tracer = spans.Tracer()

    def served(parent_id):
        span = tracer.begin("service.server", "dispatch", parent=parent_id)
        with_child = tracer.begin("core.estimate", "evaluate")
        time.sleep(0.002)
        tracer.end(with_child)
        time.sleep(0.001)
        tracer.end(span)

    with tracer.answer():
        call = tracer.begin("service.server", "_send_recv")
        worker = threading.Thread(target=served, args=(call.sid,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        tracer.end(call)
        decode = tracer.begin("compressors.decode", "request")
        time.sleep(0.001)
        tracer.end(decode)
    spans_list, roots = tracer.take()
    self_s, wall = _sum_check(spans_list, roots)
    assert self_s["core.estimate"] >= 0.0015
    assert set(self_s) == {"trace.answer", "service.server", "core.estimate", "compressors.decode"}


def test_traced_retrieval_attributes_every_layer_and_sums_to_wall():
    from repro.core.qois import total_velocity
    from repro.core.retrieval import QoIRequest, QoIRetriever
    from repro.service import RetrievalService
    from repro.storage import Archive
    from repro.storage.store import FragmentStore

    fields = _ge_fields(n=3000)
    store = FragmentStore()
    RetrievalService(store).ingest(fields)
    oracle = orc.Oracle(fields, GE_SPECS[:1])
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        archive = Archive(store)
        names = ("velocity_x", "velocity_y", "velocity_z")
        lazy = {v: archive.load(v, lazy=True) for v in names}
        ranges = {v: float(np.ptp(fields[v])) for v in names}
        session = QoIRetriever(lazy, ranges).session()
        for tol in (1e-2, 1e-4):
            req = QoIRequest("VTOT", total_velocity(), tol, oracle.ranges["VTOT"])
            with tracer.answer():
                result = session.retrieve([req])
            assert oracle.check("VTOT", result.data, result.estimated_errors["VTOT"], tol) is None
    finally:
        tracer.uninstall()
    spans_list, roots = tracer.take()
    assert len(roots) == 2
    self_s, _ = _sum_check(spans_list, roots)
    for layer in ("core.retrieval", "core.estimate", "compressors.decode", "compressors.plan"):
        assert self_s.get(layer, 0.0) > 0.0, layer
    # uninstall restored the program: no wrapper is left behind
    from repro.core.retrieval import RetrievalSession

    assert not hasattr(RetrievalSession.retrieve, "__wrapped__")


def test_benchmark_json_names_the_workloads_and_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import run

    names = [w["name"] for w in spec["workloads"]]
    assert names and set(names) <= set(run.WORKLOAD_NAMES)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert spec["paths"] == ["perfbench"]
