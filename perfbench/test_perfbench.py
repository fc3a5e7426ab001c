"""Smoke tests of the benchmark itself, at tiny sizes (about 15 s).

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import layers, run, workloads  # noqa: E402
from perfbench.tracer import SpanTotals, Tracer  # noqa: E402
from tinytraj import data as dt  # noqa: E402
from tinytraj import model as tm  # noqa: E402
from tinytraj import training as tr  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def results():
    return {
        (name, trace): run.run_workload(name, 0, 1, trace, sizes=workloads.TINY)
        for name in run.WORKLOAD_NAMES
        for trace in (False, True)
    }


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
    assert BENCH["run_seconds"] == run.RUN_SECONDS
    for w in BENCH["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["end_to_end"]] == list(
        run.END_TO_END
    )
    per_layer = [(n, u, b) for n, u, b, _, _ in layers.PER_LAYER] + [layers.OVERHEAD[:3]]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == per_layer


def test_every_metric_is_emitted_with_its_unit(results):
    for (name, trace), res in results.items():
        table = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        assert res["metrics"] == {
            m["name"]: {"value": res["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in table
        }, name
        if not trace:
            assert all(v["value"] > 0 for v in res["metrics"].values()), name


def test_every_per_layer_metric_is_measured_on_some_workload(results):
    assert not any(res["not_traced"] for res in results.values())
    for metric, *_ in layers.PER_LAYER:
        samples = [
            n for (_, trace), res in results.items() if trace
            for m, _, _, n, _ in res["report"] if m == metric
        ]
        assert max(samples) > 0, metric


def test_runs_are_correct_and_tracing_moves_no_bit(results):
    for (name, trace), res in results.items():
        assert res["correct"] and res["failed"] == 0, (name, res["problems"])
        if trace:
            assert res["traced_rounds"] >= 1
            assert res["digests"] == results[(name, False)]["digests"], name


def test_stamped_loader_leaves_train_losses_unchanged(tmp_path):
    sz = workloads.TINY
    st = workloads.train_setup(sz, 0, tmp_path)
    stamped = workloads.train_round(st, Tracer())

    params = tm.init_params(st.model_cfg, np.random.default_rng(st.train_cfg.seed))
    loader = dt.BatchLoader(dt.stream_jsonl(st.corpus), sz.batch_size, sz.max_seq, st.norm)
    plain = tr.train(params, st.model_cfg, st.train_cfg, loader, norm_params=st.norm)
    losses = np.asarray(plain.step_losses, dtype=np.float64)
    assert stamped.digests["losses_sha256"] == hashlib.sha256(losses.tobytes()).hexdigest()
    assert len(stamped.op_ms) == workloads.train_steps(st)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.active = True
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    totals = SpanTotals(tracer)
    span = tracer._end[outer] - tracer._start[outer]
    child = tracer._end[inner] - tracer._start[inner]
    assert totals.incl(("setup",), "outer") == span
    assert totals.own(("setup",), "outer") == pytest.approx(span - child, abs=1e-12)
