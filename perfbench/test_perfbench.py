"""Fast checks of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

They run shrunken workloads, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def tiny_sweep():
    return workloads.SweepWorkload(("x^2+1", "x^3-2"), 1 << 7, warm_norm=8)


def tiny_cli():
    return workloads.CliWorkload(
        cap_norm=1 << 8, per_kind=1, classify_mix=((3, "x^6+x+7", ("3^1", "3")),),
        extra_verify=(), error_requests=workloads.ERROR_REQUESTS[:2])


@pytest.fixture
def pkg():
    return run.load_package()


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """The benchmark's workloads swapped for shrunken ones."""
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setitem(workloads.WORKLOADS, "sweep-large", tiny_sweep)
    monkeypatch.setitem(workloads.WORKLOADS, "cli-requests", tiny_cli)


@pytest.mark.parametrize("name", ["sweep-small", "cli-requests"])
def test_inputs_are_deterministic_per_seed(pkg, name):
    def inputs(seed):
        wl = workloads.WORKLOADS[name]()
        wl.setup(pkg, seed)
        return wl.inputs()

    first = inputs(5)
    assert inputs(5) == first
    other = inputs(6)
    assert other != first
    if name.startswith("sweep"):  # the seed only permutes the orders
        assert sorted(other) == sorted(first)


def _names(section):
    with open(BENCHMARK) as fh:
        return [m["name"] for m in json.load(fh)[section]]


@pytest.mark.parametrize("name", ["sweep-large", "cli-requests"])
def test_every_metric_is_emitted(tiny, name):
    plain = run.run(name, 1, 0, trace=False)["result"]
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"]
    assert list(plain["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.run(name, 1, 0, trace=True)["result"]
    assert traced["correct"]
    assert sorted(traced["metrics"]) == sorted(_names("per_layer"))


def test_traced_run_writes_nested_spans(tiny, tmp_path):
    run.run("sweep-large", 2, 0, trace=True)
    with open(tmp_path / "trace-sweep-large.json") as fh:
        doc = json.load(fh)
    rows = doc["spans"]
    assert rows and doc["layers"]["residue.elements"] > 0
    for name, start, end, parent, _ in rows:
        assert start <= end
        if parent >= 0:
            assert rows[parent][1] <= start and end <= rows[parent][2]


def test_tracer_restores_the_package(pkg):
    def patched():
        return (pkg.wilson.verify_ideal, pkg.cli.make_order,
                pkg.residue.ResidueRing.unit_product,
                pkg.order.NumberFieldOrder.mul)

    before = patched()
    with spans.Tracer(spans.SpanRecorder()) as tr:
        assert pkg.wilson.verify_ideal is not before[0]
        assert pkg.cli.make_order is not before[1]
    assert tr.missing == []
    assert patched() == before


def _wrong_witness(o, a, kind, prime, ring, **kwargs):
    return ring.one  # right only when the product is 1


def test_injected_wrong_answer_in_a_sweep_is_failed(pkg, monkeypatch):
    wl = tiny_sweep()
    wl.setup(pkg, 1)
    monkeypatch.setattr(pkg.wilson, "witness_element", _wrong_witness)
    res = wl.run_pass()
    assert sum(op.failed for op in res.ops) > 0
    assert all("mismatches" in op.detail for op in res.ops if op.failed)


def test_injected_wrong_answer_in_cli_requests_is_failed(pkg, monkeypatch):
    wl = tiny_cli()
    wl.setup(pkg, 1)
    monkeypatch.setattr(pkg.wilson, "witness_element", _wrong_witness)
    res = wl.run_pass()
    wl.cross_check([res])
    failed = [op for op in res.ops if op.failed]
    assert any(op.request.argv[0] == "verify" for op in failed)
    assert len(res.verify_work) + sum(op.kind == "verify" for op in failed) \
        == wl.verify_per_pass


def test_a_metric_without_samples_fails_the_run(tiny):
    out = run.run("known-defects", 1, 0, trace=False)
    res = out["result"]
    assert not res["correct"] and res["failed"] == res["attempted"] == 5
    assert "verify_ms_p50" not in res["metrics"]
    assert "elems_per_s" not in res["metrics"]
    assert any(line.startswith("NO SAMPLES for verify_ms_p50")
               for line in out["lines"])


def test_checks_reject_tampered_answers():
    req = workloads.Request("verify", ("verify", "--poly", "x^2+1",
                                       "--ideal", "5^1"))
    good = {"verdict": "MATCH", "match": True, "product": [4, 0],
            "predicted": {"witness": [4, 0]}}
    assert workloads.check_response(req, 0, good) == ""
    assert workloads.check_response(req, 0, dict(good, product=[1, 0]))
    assert workloads.check_response(req, 1, good)
    assert workloads.check_response(req, None, "OverflowError()")
    err = workloads.Request("error", ("classify",), expect="reducible")
    typed = {"error": {"type": "reducible", "message": ""}}
    assert workloads.check_response(err, 2, typed) == ""
    assert workloads.check_response(
        err, 2, {"error": {"type": "parse_error", "message": ""}})
    fac = workloads.Request("classify", ("factor", "--poly", "x^2+1",
                                         "--prime", "5"), coeffs=(1, 0, 1))
    split = {"maximal": True, "factors": [
        {"gen": [2, 1], "e": 1, "f": 1}, {"gen": [3, 1], "e": 1, "f": 1}]}
    assert workloads.check_response(fac, 0, split) == ""
    split["factors"][1]["gen"] = [1, 1]
    assert workloads.check_response(fac, 0, split)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(41) == 75.0
    assert run.tail_percentile(2390) == 99.0
    assert run.tail_percentile(12) == 50.0


def test_without_the_package_the_run_fails(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCHMARK, tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
