"""Tests of the scripts under tools/ that can run in process."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_quick_layer_table_has_the_documented_keys():
    bench = load_tool("bench")
    table = bench.layer_table(bench.QUICK_M, bench.QUICK_TIMING)
    assert set(table) == {"bernoulli", "poisson", "poisson_pcr", "custom"}
    for by_m in table.values():
        assert set(by_m) == {"256", "1024"}
        for t in by_m.values():
            assert set(t) == {"min_ms", "median_ms", "number"}
            assert 0 < t["min_ms"] <= t["median_ms"] and t["number"] >= 1
