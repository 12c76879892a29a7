"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import sweep  # noqa: E402
from workloads import WORKLOADS, Invocation, check_report, load_refs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def synthetic_trace():
    names = ["cli.main", "network.global_generators", "hilbert.embed_local", "hilbert.PureState"]
    spans_ = [
        [0, 0.0, 10.0, -1],  # cli.main
        [1, 1.0, 6.0, 0],  # network.global_generators
        [2, 2.0, 3.0, 1],  # hilbert.embed_local
        [2, 4.0, 5.5, 1],  # hilbert.embed_local
        [3, 4.5, 5.0, 3],  # hilbert.PureState inside embed_local: same layer
    ]
    counters = {"embed_bytes": 64, "dense_bytes": 32, "bytes_written": 7, "max_dim": 4}
    return {"names": names, "spans": spans_, "counters": counters}


def test_self_time_arithmetic():
    trace = synthetic_trace()
    self_times, outermost = spans.span_times(trace["names"], trace["spans"])
    assert self_times == [5.0, 2.5, 1.0, 1.0, 0.5]
    assert outermost == [True, True, True, True, True]
    m = spans.layer_metrics(trace, wall_s=12.0)
    assert m["cli.self_s"] == 5.0
    assert m["network.self_s"] == 2.5
    assert m["hilbert.self_s"] == 2.5
    assert m["other.self_s"] == 2.0
    assert (m["cli.calls"], m["network.calls"], m["hilbert.calls"]) == (1, 1, 2)
    assert m["hilbert.embed_local.calls"] == 2
    assert m["hilbert.embed_local.self_s"] == 2.0
    assert m["network.global_generators.total_s"] == 5.0
    assert m["hilbert.embed_bytes"] == 64


def test_recursive_span_total_counts_outermost_only():
    names = ["states.purify"]
    trace = [[0, 0.0, 4.0, -1], [0, 1.0, 2.0, 0]]
    _, outermost = spans.span_times(names, trace)
    assert outermost == [True, False]


def _snapshot():
    state = {}
    for name, mod in list(sys.modules.items()):
        if name == "qsnet" or name.startswith("qsnet."):
            for attr, value in vars(mod).items():
                state[(name, attr)] = value
                if isinstance(value, dict):
                    state[(name, attr, "items")] = list(value.items())
                if isinstance(value, type):
                    state[(name, attr, "__post_init__")] = vars(value).get("__post_init__")
    return state


def test_traced_run_restores_every_attribute(tmp_path):
    import qsnet.cli

    before = _snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = tracer.call("cli.main", qsnet.cli.main, ["audit", "t1", "--trials", "3", "--out", str(tmp_path)])
    finally:
        tracer.restore()
    after = _snapshot()
    assert code == 0
    assert "scenarios.audit_separable_surrogate" in tracer.names
    assert "hilbert.embed_local" in tracer.names
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key] and before[key] != after[key]]
    assert changed == []


def test_metric_names_are_well_formed_and_match_the_manifest():
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    report = json.dumps({"trials": 1, "regenerated": 0}).encode()
    sample = run.Sample(1.0, 0.1, 10.0, 0.9, 1, report)
    traced, _ = run.traced_metrics(WORKLOADS["audit_t1"], synthetic_trace(), sample, [sample], "", "0" * 64)
    emitted_layer = set(traced) | set(sweep.metric_names())
    assert {w["name"] for w in manifest["workloads"]} <= set(WORKLOADS)
    assert set(declared_e2e) == set(run.END_TO_END_UNITS)
    assert set(declared_layer) == emitted_layer
    for name, unit in {**declared_e2e, **declared_layer}.items():
        assert NAME.fullmatch(name), name
        assert run.unit_of(name) == unit, name


def test_check_report_flags_drift_beyond_tolerance():
    audit = WORKLOADS["audit_t1"]
    ref = {"trials": 2, "regenerated": 1, "records": {"bound_original": [1.0, 2.0]}}
    doc = {"passed": True, "trials": 2, "regenerated": 1, "tol": 1e-9, "records": [{"bound_original": 1.0}, {"bound_original": 2.0 + 5e-10}]}
    assert check_report(audit, json.dumps(doc).encode(), ref) == []
    doc["records"][1]["bound_original"] = 2.0 + 5e-9
    assert check_report(audit, json.dumps(doc).encode(), ref)

    qfim = WORKLOADS["qfim_mixed_mid"]
    ref = {"qfim": [[2.0, 0.5], [0.5, 1.0]], "bound": 1.5}
    doc = {"qfim": [[2.0, 0.5], [0.5, 1.0 + 1e-12]], "bound": 1.5 * (1 + 1e-12)}
    assert check_report(qfim, json.dumps(doc).encode(), ref) == []
    doc["bound"] = 1.5 * (1 + 1e-8)
    assert check_report(qfim, json.dumps(doc).encode(), ref)


def test_wrong_reference_counts_as_failed_invocation(tmp_path):
    workload = WORKLOADS["audit_t1"]
    refs = load_refs(workload)
    refs[0] = {**refs[0], "regenerated": refs[0]["regenerated"] + 1}
    (tmp_path / "out").mkdir()
    runner = run.Runner(workload, refs, tmp_path)
    inv = Invocation(0, ("audit", "t1", "--seed", "0", "--trials", str(workload.trials), "--out", str(tmp_path / "out")), tmp_path / "out" / "audit_t1.json")
    assert runner.invoke(inv) is None
    assert len(runner.failures) / runner.attempted > 0


def test_failed_sweep_is_left_out_not_raised(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "BENCH", tmp_path)  # no sweep.py here: the child fails
    monkeypatch.setattr(run, "mem_available_mb", lambda: 0.0)
    assert run.sweep() == {}
    err = capsys.readouterr().err
    assert "sweep small: failed" in err and "sweep large: not run" in err
