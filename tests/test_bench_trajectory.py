"""Tests for the pure helpers of tools/bench_trajectory.py.

The tool is loaded from its path, as it is not part of the package. No
test starts a process or runs a benchmark: subprocess is blocked for
every test here.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load()


@pytest.fixture(autouse=True)
def no_processes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"a helper started a process: {args}")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)


def test_summary_of_one_value_is_that_value():
    assert bench.summary([0.25]) == {"median": 0.25, "q1": 0.25, "q3": 0.25, "runs": [0.25]}


@pytest.mark.parametrize(
    "values, q1, median, q3",
    [([1, 2, 3, 4, 5], 2, 3, 4), ([4, 1, 3, 2], 1.75, 2.5, 3.25), ([7, 9], 7.5, 8, 8.5)],
)
def test_summary_uses_inclusive_quartiles(values, q1, median, q3):
    # inclusive: the quartiles of n values interpolate between the order
    # statistics at positions 1 + (n - 1) / 4 and 1 + 3 (n - 1) / 4
    got = bench.summary(iter(values))
    assert (got["q1"], got["median"], got["q3"]) == (q1, median, q3)
    assert got["runs"] == values


def test_better_pairs_reads_the_direction_from_the_benchmark():
    assert bench.BETTER == {"setup_s": "lower", "ops_per_s": "higher",
                            "op_p50_ms": "lower", "peak_rss_mb": "lower"}


@pytest.mark.parametrize(
    "metric, wins",
    [("setup_s", 2), ("op_p50_ms", 2), ("peak_rss_mb", 2), ("ops_per_s", 0)],
)
def test_better_pairs_follows_the_metric_direction(metric, wins):
    base, head = [1.0, 2.0, 3.0], [0.5, 2.0, 2.5]
    # the middle pair is a tie and counts for neither side
    assert bench.better_pairs(metric, base, head) == wins
    assert bench.better_pairs(metric, head, base) == 2 - wins
    assert bench.better_pairs(metric, base, base) == 0


def _tree(root: Path) -> Path:
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "a.py").write_bytes(b"x = 1\n")
    (root / "src" / "pkg" / "b.py").write_bytes(b"y = 2\n")
    (root / "README.md").write_text("outside src\n")
    return root


def test_src_digest_skips_caches_and_changes_with_one_byte(tmp_path):
    tree = _tree(tmp_path)
    before = bench.src_digest(tree)
    assert len(before) == 64 and before == bench.src_digest(tree)

    (tree / "src" / "pkg" / "__pycache__").mkdir()
    (tree / "src" / "pkg" / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\0cache")
    (tree / "src" / "pkg.egg-info").mkdir()
    (tree / "src" / "pkg.egg-info" / "PKG-INFO").write_text("Name: pkg\n")
    (tree / "README.md").write_text("changed outside src\n")
    assert bench.src_digest(tree) == before

    (tree / "src" / "pkg" / "a.py").write_bytes(b"x = 2\n")
    assert bench.src_digest(tree) != before


def test_src_digest_names_the_paths(tmp_path):
    # the same bytes under another name are other code
    tree = _tree(tmp_path)
    before = bench.src_digest(tree)
    (tree / "src" / "pkg" / "b.py").rename(tree / "src" / "pkg" / "c.py")
    assert bench.src_digest(tree) != before
