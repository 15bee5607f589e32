"""Tests for the pure helpers of tools/bench_trajectory.py.

The tool is loaded from its path, as it is not part of the package. No
test starts a process or runs a benchmark: subprocess is blocked for
every test here.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from hallforge.cli import build_parser

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


def test_verify_is_timed_at_fixed_configurations():
    assert bench.VERIFY_CONFIGS == ((2, 5), (3, 4), (4, 3))


@pytest.mark.parametrize("rank, nclass", [(2, 5), (3, 4), (4, 3)])
def test_verify_command_is_the_quick_json_verify(rank, nclass):
    argv = bench.verify_command(rank, nclass)
    assert argv[0] == sys.executable
    assert argv[1:] == ["-m", "hallforge.cli", "verify", "--rank", str(rank),
                        "--class", str(nclass), "--samples", "1", "--seed", "0", "--json"]
    # the library's own parser reads it as that command, without running it
    args = build_parser().parse_args(argv[3:])
    assert (args.command, args.rank, args.nclass) == ("verify", rank, nclass)
    assert (args.samples, args.seed, args.json, args.ring) == (1, 0, True, "z")


def test_one_verify_runs_at_its_default_samples():
    assert [run[0] for run in bench.VERIFY_RUNS] == ["2,5", "3,4", "4,3", "2,3 default samples"]
    assert [run[1:] for run in bench.VERIFY_RUNS] == [(2, 5, 1), (3, 4, 1), (4, 3, 1), (2, 3, None)]


def test_default_samples_verify_command_has_no_cap():
    argv = bench.verify_command(2, 3, None)
    assert argv[1:] == ["-m", "hallforge.cli", "verify", "--rank", "2", "--class", "3",
                        "--seed", "0", "--json"]
    args = build_parser().parse_args(argv[3:])
    assert (args.command, args.rank, args.nclass) == ("verify", 2, 3)
    assert (args.samples, args.seed, args.json, args.ring) == (None, 0, True, "z")


def test_time_verify_runs_the_command_on_the_tree(monkeypatch, tmp_path):
    seen = {}

    class Done:
        returncode, stdout = 0, "{}\n"

    def fake_run(argv, cwd, env, capture_output, text):
        seen.update(argv=argv, cwd=cwd, path=env["PYTHONPATH"])
        return Done()

    monkeypatch.setattr(subprocess, "run", fake_run)
    seconds, code, stdout = bench.time_verify(tmp_path, 2, 3, None)
    assert seconds >= 0 and (code, stdout) == (0, "{}\n")
    assert seen == {"argv": bench.verify_command(2, 3, None), "cwd": tmp_path,
                    "path": str(tmp_path / "src")}
