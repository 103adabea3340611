"""Tests of the scripts under tools/ that can run in process."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return load_tool("bench")


def in_process(bench):
    """What ``bench.fresh`` measures, run in this process."""
    return lambda task, src: bench.child(task)


def test_bench_quick_layer_table_has_the_documented_keys(bench):
    quick = bench.QUICK
    [table] = bench.fresh_layers(quick["ms"], quick["timing"], [bench.SRC], in_process(bench))
    cases = {"sample_counts": {"bernoulli", "poisson", "poisson_pcr", "custom"},
             "apply_noise": {"0.01", "0.05"}, "rs_encode": {"1", "64"}}
    ms = {"sample_counts": {"256", "1024"}, "apply_noise": {"256", "1024"}, "rs_encode": {"256"}}
    assert {layer: set(by_case) for layer, by_case in table.items()} == cases
    for layer, by_case in table.items():
        for by_m in by_case.values():
            assert set(by_m) == ms[layer]
            for t in by_m.values():
                assert set(t) == {"min_ms", "median_ms", "iqr_ms", "medians_ms"}
                assert len(t["medians_ms"]) == bench.PROCESSES
                assert 0 < t["min_ms"] <= t["median_ms"] <= max(t["medians_ms"])
                assert 0 <= t["iqr_ms"] <= max(t["medians_ms"]) - t["min_ms"]
    ratio = bench.ratios(table, table)
    assert ratio == {layer: {case: dict.fromkeys(ms[layer], 1.0) for case in by_case}
                     for layer, by_case in cases.items()}


def test_bench_layer_cell_statistics(bench):
    cell = bench.layer_cell([{"median_ms": t} for t in (3.0, 1.0, 2.0)])
    assert cell == {"min_ms": 1.0, "median_ms": 2.0, "iqr_ms": 1.0,
                    "medians_ms": [1.0, 2.0, 3.0]}


def test_bench_quick_fault_loops_have_the_documented_keys(bench, monkeypatch):
    monkeypatch.syspath_prepend(bench.BENCH)
    names = ("archive-m4096", "deep-pcr-m256", "short-l4-m64")
    faults = bench.fault_loops(names, bench.QUICK["faults"], in_process(bench))
    assert set(faults) == set(names)
    for loops in faults.values():
        assert set(loops) == {"A", "B"}
        for loop, counts in loops.items():
            assert set(counts) == {"faults_per_batch", "batches", "peak_rss_mb"}
            assert counts["faults_per_batch"] >= 0 and counts["peak_rss_mb"] > 0
        assert loops["A"]["batches"] == bench.QUICK["faults"]["batches"]
        assert loops["B"]["batches"] >= 1


def run_stdout(gates):
    """Canned ``benchmark/run.py`` output: these gate lines, then a last line
    that says correct."""
    lines = ["env {}", "trials_per_s = 300 1/s"]
    lines += [f"{name} = {str(ok).lower()}" for name, ok in gates.items()]
    lines.append(json.dumps({"correct": True, "attempted": 9, "failed": 0,
                             "metrics": {"trials_per_s": {"value": 300.0, "unit": "1/s"}}}))
    return "\n".join(lines) + "\n"


ALL_TRUE = dict.fromkeys(("verdicts_pass", "trials_failed_zero", "output_digest_match",
                          "reference_run_pass", "roundtrip_messages_match",
                          "trace_preserves_output"), True)


@pytest.mark.parametrize("gates,correct", [
    (ALL_TRUE, True),
    ({}, False),
    ({**ALL_TRUE, "output_digest_match": False}, False),
    ({"verdicts_pass": True, "output_digest_match": True}, False),
    ({k: v for k, v in ALL_TRUE.items() if k != "trace_preserves_output"}, False),
    ({**{k: v for k, v in ALL_TRUE.items() if k != "output_digest_match"},
      "output_digests_match": True}, False),
], ids=["all gates true", "no gate lines", "a gate false", "two gates", "a gate missing",
        "a gate renamed"])
def test_bench_workload_is_correct_only_as_its_gates(bench, gates, correct):
    out = bench.workload_outcome(run_stdout(gates))
    assert out == {"correct": correct, "metrics": {"trials_per_s": 300.0}, "gates": gates}


@pytest.mark.parametrize("stdout", ["", "Traceback (most recent call last):\n"])
def test_bench_workload_without_a_json_line_is_not_correct(bench, stdout):
    assert bench.workload_outcome(stdout) == {"correct": False, "metrics": {}, "gates": {}}
