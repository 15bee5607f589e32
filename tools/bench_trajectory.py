"""Paired benchmark runs of two source trees, summarized into one BENCH file.

    python3 tools/bench_trajectory.py --base HEAD~1 --pairs 5 --out BENCH_<n>.json

Each pair runs `perfbench/run.py --workload W --seed 0 --seconds 20` once in
the base tree and once in the head tree, one process at a time, for every
workload that BENCHMARK.json lists. The run length is its `run_seconds`
and the seed is 0, whose output digests the workloads check; neither can
be changed, so every file this tool writes compares with the benchmark.
The order inside a pair alternates (base first in even pairs, head first
in odd ones), so a drift of the host's speed falls on both sides alike.
The pairs of all workloads are interleaved: pair 0 of every workload, then
pair 1, and so on. Before every run a library-free calibration loop is
timed, which shows how fast the host itself was at that moment.

Each pair then times the whole pipeline the same way: one process of
`hallforge verify --samples 1 --seed 0 --json` per side at each of the
fixed configurations VERIFY_CONFIGS, and one of `hallforge verify --seed 0
--json` at its default samples at (2, 3), where the engine-bound suites
(`group`, `deformation`) run every sample. Each wall
time includes the interpreter's start. Both sides must print the same
bytes on stdout; the file records whether they did, and every exit code.

The base tree is `git archive` of the --base revision, unpacked into a
temporary directory; the head tree is this checkout as it is on disk, or
--head REV unpacked the same way. Both trees are byte-compiled before the
first pair, so neither side pays for compiling in its first run.

The output file holds, per workload and side, every run's end-to-end
metrics with their median and quartiles, the head/base ratio of the
medians, the number of pairs in which the head was better, and whether
every run printed `correct: true`; per verify configuration the same for
the wall time; beside them the calibration times, the
Python version, both commits, a host note and, for each side, a SHA-256
over the paths and bytes of the files under src/ (byte-code caches aside),
which names the library code measured even for an uncommitted working tree;
a revision side also gets the git tree hash of its src/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
SECONDS = BENCHMARK["run_seconds"]
SEED = 0  # the seed whose output digests the workloads store
# direction of each end-to-end metric
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
# the (rank, class) configurations at which `verify` is timed: rank + class = 7, the
# desk-scale limit, so every suite runs, the symbolic ones included
VERIFY_CONFIGS = ((2, 5), (3, 4), (4, 3))
# every timed verify: (key in the file, rank, class, --samples or None for the default);
# the default-sample run takes about 6 s
VERIFY_RUNS = tuple((f"{r},{c}", r, c, 1) for r, c in VERIFY_CONFIGS) + (
    ("2,3 default samples", 2, 3, None),
)


def calibrate(n: int = 300_000) -> float:
    """Seconds for a fixed pure-Python integer loop that imports nothing."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def summary(values) -> dict:
    """Median and quartiles (inclusive method) of a list of numbers, with the values."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def better_pairs(metric: str, base: list, head: list) -> int:
    """In how many pairs the head's value beats the base's, in the metric's direction."""
    lower = BETTER[metric] == "lower"
    return sum((h < b) if lower else (h > b) for b, h in zip(base, head))


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def src_digest(tree: Path) -> str:
    """SHA-256 over the relative path, size and bytes of every file under tree/src."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*")):
        rel = path.relative_to(tree)
        if path.is_file() and not any(p == "__pycache__" or p.endswith(".egg-info")
                                      for p in rel.parts):
            data = path.read_bytes()
            h.update(f"{rel.as_posix()}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


def unpack(rev: str, dest: Path) -> Path:
    """The files of revision rev, unpacked from `git archive` into dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest


def run_once(tree: Path, workload: str) -> dict:
    """One benchmark process in tree; returns its result object (the last stdout line)."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS)],
        cwd=tree, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def verify_command(rank: int, nclass: int, samples: int | None = 1) -> list:
    """The argv of one `hallforge verify` process at (rank, class); samples None is the default."""
    cap = [] if samples is None else ["--samples", str(samples)]
    return [sys.executable, "-m", "hallforge.cli", "verify", "--rank", str(rank),
            "--class", str(nclass), *cap, "--seed", str(SEED), "--json"]


def time_verify(tree: Path, rank: int, nclass: int, samples: int | None) -> tuple:
    """Wall seconds, exit code and stdout of one verify process on tree's src/."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    done = subprocess.run(verify_command(rank, nclass, samples), cwd=tree, env=env,
                          capture_output=True, text=True)
    return time.perf_counter() - t0, done.returncode, done.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base tree")
    parser.add_argument("--head", help="git revision of the head tree (default: this checkout)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--note", default="", help="free text about the host, kept in the file")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    runs = {w: {"base": [], "head": []} for w in WORKLOADS}
    verify = {run: {"base": [], "head": [], "exit": [], "same_stdout": []} for run in VERIFY_RUNS}
    calib = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        tmp = Path(tmp)
        trees = {"base": unpack(args.base, tmp / "base"),
                 "head": unpack(args.head, tmp / "head") if args.head else ROOT}
        digests = {side: src_digest(tree) for side, tree in trees.items()}
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                           cwd=tree, check=True)
        for k in range(args.pairs):
            order = ("base", "head") if k % 2 == 0 else ("head", "base")
            for w in WORKLOADS:
                for side in order:
                    calib[side].append(calibrate())
                    res = run_once(trees[side], w)
                    runs[w][side].append(res)
                    print(f"pair {k} {w} {side}: correct {res['correct']} "
                          + " ".join(f"{m} {v['value']:.4g}" for m, v in res["metrics"].items()),
                          file=sys.stderr, flush=True)
            for run in VERIFY_RUNS:
                stdout = {}
                for side in order:
                    calib[side].append(calibrate())
                    seconds, code, stdout[side] = time_verify(trees[side], *run[1:])
                    verify[run][side].append(seconds)
                    verify[run]["exit"].append(code)
                    print(f"pair {k} verify {run[0]} {side}: {seconds:.3f} s, exit {code}",
                          file=sys.stderr, flush=True)
                verify[run]["same_stdout"].append(stdout["base"] == stdout["head"])

    workloads = {}
    for w, sides in runs.items():
        entry = {}
        for side, results in sides.items():
            entry[side] = {m: summary([r["metrics"][m]["value"] for r in results]) for m in BETTER}
            entry[side]["all_correct"] = all(r["correct"] for r in results)
        entry["head_over_base_median"] = {
            m: entry["head"][m]["median"] / entry["base"][m]["median"] for m in BETTER}
        entry["pairs_head_better"] = {
            m: better_pairs(m, entry["base"][m]["runs"], entry["head"][m]["runs"]) for m in BETTER}
        workloads[w] = entry

    verify_doc = {}
    for (key, *run), times in verify.items():
        base, head = times["base"], times["head"]
        verify_doc[key] = {
            "argv": verify_command(*run)[1:],
            "wall_s": {"base": summary(base), "head": summary(head)},
            "head_over_base_median": statistics.median(head) / statistics.median(base),
            "pairs_head_faster": sum(h < b for b, h in zip(base, head)),
            "all_exit_zero": not any(times["exit"]),
            "stdout_identical": all(times["same_stdout"]),
        }

    if args.head:
        head = {"rev": args.head, "commit": git("rev-parse", args.head),
                "src_tree": git("rev-parse", f"{args.head}:src")}
    else:
        head = {"rev": "working tree", "commit": git("rev-parse", "HEAD"),
                "uncommitted_changes": bool(git("status", "--porcelain"))}
    head["src_sha256"] = digests["head"]
    doc = {
        "python": platform.python_version(),
        "base": {"rev": args.base, "commit": git("rev-parse", args.base),
                 "src_tree": git("rev-parse", f"{args.base}:src"),
                 "src_sha256": digests["base"]},
        "head": head,
        "host": {"platform": platform.platform(), "cpus": os.cpu_count(), "note": args.note},
        "seed": SEED,
        "seconds": SECONDS,
        "pairs": args.pairs,
        "order": "base first in even pairs, head first in odd pairs; workloads interleaved",
        "calibration_s": {side: summary(v) for side, v in calib.items()},
        "workloads": workloads,
        "verify": verify_doc,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
