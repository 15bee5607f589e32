"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import ast
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from hallforge import oracles  # noqa: E402
from perfbench import gen, run, spans, workloads  # noqa: E402

TINY = {
    "arith": ((2, 2), (2, 3)),
    "symbolic": ((2, 2), (2, 3)),
    "collect": ((2, 3),),
    "lie": ((2, 2), (2, 3)),
}
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run_checks_every_op(name):
    res = run.measure_run(name, TINY[name], seed=3, seconds=0, trace=False)
    assert res["blocks"] == 1 and res["attempted"] > 0
    assert res["failed"] == 0
    assert set(res["e2e"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(v > 0 for v, _unit in res["e2e"].values())


def test_tiny_traced_run_reports_every_layer_metric_and_restores_library():
    res = run.measure_run("arith", TINY["arith"], seed=3, seconds=0, trace=True)
    assert res["trace_ok"] and res["failed"] == 0
    assert set(res["layer"]) == {m["name"] for m in BENCH["per_layer"]}
    assert res["layer"]["group.mul.calls"][0] == 4  # two chained products per config
    assert res["layer"]["group.to_series.hit_ratio"][0] == 0.5
    # the wrappers are gone again: lru wrappers and plain methods are back
    assert hasattr(sys.modules["hallforge.basis"].hall_basis, "__wrapped__")
    mul = sys.modules["hallforge.group"].FreeNilpotentGroup.mul
    assert mul.__qualname__ == "FreeNilpotentGroup.mul"


def test_self_time_on_hand_built_tree():
    # 0: [0, 100) root; 1: [10, 40) and 2: [30, 60) overlap; 3: [50, 70) is
    # inside 2; 4: [90, 120) sticks out of the root and is clipped to 90..100
    parent = [-1, 0, 0, 2, 0]
    start = [0, 10, 30, 50, 90]
    end = [100, 40, 60, 70, 120]
    # root covered: [10, 60) union [90, 100) = 60; span 2 covered: [50, 60)
    # after clipping to itself = 10 (3 ends at 70, past 2's end)
    assert spans.self_times(parent, start, end) == [40, 30, 20, 20, 30]


def test_layer_totals_count_recursion_once():
    rec = spans.SpanRecorder()
    f, g = rec.name_id("f"), rec.name_id("g")
    # f [0,100) > f [10,50) > g [20,30)
    for nid, p, s, e in ((f, -1, 0, 100), (f, 0, 10, 50), (g, 1, 20, 30)):
        rec.name_of.append(nid)
        rec.parent.append(p)
        rec.start.append(s)
        rec.end.append(e)
    totals = spans.layer_totals(rec)
    assert totals["f"]["calls"] == 2
    assert totals["f"]["total_ns"] == 100
    assert totals["f"]["self_ns"] == 60 + 30
    assert totals["g"]["self_ns"] == totals["g"]["total_ns"] == 10


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([7], 90) == 7
    assert run.percentile([3, 1, 2], 90) == 3


def test_p90_needs_ten_samples_beyond_it():
    assert run.tail_defined(100, 90)
    assert not run.tail_defined(99, 90)
    assert not run.tail_defined(54, 90)
    assert run.tail_defined(1000, 90)


def test_generator_is_seeded_and_library_free():
    configs = gen.DEFAULT_CONFIGS["arith"]
    assert gen.block("arith", 5, 2, configs) == gen.block("arith", 5, 2, configs)
    assert gen.block("arith", 5, 2, configs) != gen.block("arith", 6, 2, configs)
    assert gen.block("arith", 5, 2, configs) != gen.block("arith", 5, 3, configs)
    for r, c in ((2, 5), (3, 4), (4, 3)):
        assert gen.weight_counts(r, c) == tuple(oracles.witt_dimension(r, w) for w in range(1, c + 1))
    tree = ast.parse((ROOT / "perfbench" / "gen.py").read_text())
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not any(m.startswith("hallforge") for m in imported)


def test_digest_separates_types_and_values():
    assert gen.digest([1, 2]) == gen.digest((1, 2))
    assert gen.digest([Fraction(3)]) != gen.digest([3])
    assert gen.digest([Fraction(1, 2)]) != gen.digest([Fraction(2, 1)])


@pytest.mark.parametrize("name", sorted(TINY))
def test_default_seed_block_matches_stored_digest(name):
    stored = json.loads(run.EXPECTED_DIGESTS.read_text())[name]
    wl = workloads.WORKLOADS[name](gen.DEFAULT_CONFIGS[name])
    workloads.reset_caches()
    ops = []
    wl.run_block(wl.build(), gen.block(name, run.DEFAULT_SEED, 0, wl.configs), workloads.Timer(ops))
    assert gen.digest([wl.output(op) for op in ops]) == stored


def test_cli_last_line_is_the_result_object():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "arith", "--seed", "0",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}


def test_cli_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "arith", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
