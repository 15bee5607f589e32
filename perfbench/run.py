"""Benchmark entry point for hallforge.

    python3 perfbench/run.py --workload arith --seed 0 --seconds 20 --trace 0

One process runs one workload as a closed loop: one caller, one thread,
each operation started when the previous one returned. Set-up (importing
hallforge afresh, then building what the workload needs) is repeated
SETUP_REPS times, and more while less than SETUP_MIN_S has been spent, and
reported as a median. Blocks of operations (gen.py) run until
--seconds of timed wall time have passed, always completing the block in
progress. Every result is checked after the timed region. With --trace 1
the first blocks are replayed under the span recorder (spans.py) and the
per-layer metrics are printed instead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3  # at least this many cold set-ups per run,
SETUP_MIN_S = 1.0  # and more, up to SETUP_MAX_REPS, until this much time is spent
SETUP_MAX_REPS = 15
DEFAULT_SEED = 0
# blocks replayed under tracing; fixed so that span counts repeat exactly per seed
TRACE_BLOCKS = {"arith": 10, "symbolic": 1, "collect": 20, "lie": 1}
EXPECTED_DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"


def percentile(values, pct: int):
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


def tail_defined(n: int, pct: int, beyond: int = 10) -> bool:
    """Whether at least `beyond` of n samples lie past the pct-th percentile."""
    return n - -(-pct * n // 100) >= beyond


# perfbench modules are imported inside functions: main() puts the checkout
# on sys.path first, and every set-up imports perfbench.workloads (and with
# it hallforge) afresh.


def _replay(wl, blocks, rec=None):
    """Cold set-up, then the given blocks; returns (ops, timed seconds)."""
    from perfbench import spans, workloads

    workloads.reset_caches()
    ops: list = []
    timer = workloads.Timer(ops, rec)
    state = wl.build() if rec is None else rec.call(spans.ROOT_SETUP, wl.build)
    t0 = time.perf_counter()
    for specs in blocks:
        wl.run_block(state, specs, timer)
    return ops, time.perf_counter() - t0


def _cold_setup(name: str, configs):
    """Import hallforge afresh and build the workload; returns (seconds, workload, state)."""
    for mod in [m for m in sys.modules
                if m in ("hallforge", "perfbench.workloads") or m.startswith("hallforge.")]:
        del sys.modules[mod]
    gc.collect()  # drop the previous set-up before timing the next
    t0 = time.perf_counter()
    workloads = importlib.import_module("perfbench.workloads")  # imports hallforge
    wl = workloads.WORKLOADS[name](configs)
    state = wl.build()
    return time.perf_counter() - t0, wl, state


def measure_run(name: str, configs, seed: int, seconds: float, trace: bool,
                spans_dir: Path | None = None) -> dict:
    """Run one workload: set-up, timed loop, optional traced replay, checks."""
    from perfbench import gen, spans

    setups = []
    while len(setups) < SETUP_REPS or (sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPS):
        wl = state = None
        took, wl, state = _cold_setup(name, configs)
        setups.append(took)
    workloads = sys.modules["perfbench.workloads"]

    ops: list = []
    timer = workloads.Timer(ops)
    block_walls, block_ends = [], []
    while not block_walls or sum(block_walls) < seconds:
        specs = gen.block(wl.name, seed, len(block_walls), wl.configs)
        t0 = time.perf_counter()
        wl.run_block(state, specs, timer)
        block_walls.append(time.perf_counter() - t0)
        block_ends.append(len(ops))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed_s = sum(block_walls)

    result = {
        "blocks": len(block_walls),
        "timed_s": timed_s,
        "setups_s": setups,
        "inputs_sha256": gen.digest(gen.block(wl.name, seed, 0, wl.configs)),
        "outputs_sha256": gen.digest([wl.output(op) for op in ops[: block_ends[0]]]),
    }
    latencies = [op.seconds for op in ops]
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(ops) / timed_s, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if tail_defined(len(ops), 90):
        result["op_p90_ms"] = percentile(latencies, 90) * 1e3

    layer = None
    trace_ok = True
    if trace:
        # the first m blocks again, untraced and then traced, each after a
        # cold set-up, so the overhead compares like with like
        m = min(len(block_walls), TRACE_BLOCKS[wl.name])
        replay = [gen.block(wl.name, seed, b, wl.configs) for b in range(m)]
        _base_ops, base_s = _replay(wl, replay)
        rec = spans.SpanRecorder()
        rec.install()
        try:
            traced_ops, traced_s = _replay(wl, replay, rec)
            caches = {name: getattr(sys.modules[mod], attr).cache_info()
                      for name, mod, attr in spans.CACHED}
        finally:
            rec.uninstall()
        trace_ok = gen.digest([wl.output(op) for op in traced_ops]) == gen.digest(
            [wl.output(op) for op in ops[: block_ends[m - 1]]])
        layer = spans.layer_metrics(rec, caches)
        layer["trace_overhead_frac"] = (traced_s / base_s - 1, "ratio")
        result["traced_ops"] = len(traced_ops)
        if spans_dir is not None:
            spans_dir.mkdir(parents=True, exist_ok=True)
            path = spans_dir / f"spans-{wl.name}-seed{seed}.csv"
            rec.write(path)
            result["spans_file"] = str(path)

    t0 = time.perf_counter()
    ref = wl.references(state)
    failed = 0
    for op in ops:
        if op.error is not None:
            failed += 1
            continue
        try:
            ok = wl.check(state, ref, op)
        except Exception:  # a check that raises is a mismatch
            ok = False
        failed += not ok
    result.update(attempted=len(ops), failed=failed, trace_ok=trace_ok,
                  e2e=e2e, layer=layer, check_s=time.perf_counter() - t0)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("arith", "symbolic", "collect", "lie"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hallforge" / "__init__.py").is_file():
        print(f"perfbench: no hallforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import gen

    configs = gen.DEFAULT_CONFIGS[args.workload]
    res = measure_run(args.workload, configs, args.seed, args.seconds, bool(args.trace),
                      spans_dir=ROOT / "perfbench" / "out")

    digest_ok = True
    note = "no stored value for this seed"
    if args.seed == DEFAULT_SEED:
        want = json.loads(EXPECTED_DIGESTS.read_text())[args.workload]
        digest_ok = res["outputs_sha256"] == want
        note = "matches stored value" if digest_ok else f"MISMATCH, stored {want}"
    n = res["attempted"]
    e2e = res["e2e"]
    print(f"workload {args.workload} seed {args.seed} configs {list(configs)} "
          f"blocks {res['blocks']} ops {n} timed_s {res['timed_s']:.3f}")
    print(f"inputs_sha256 {res['inputs_sha256']} (block 0)")
    print(f"outputs_sha256 {res['outputs_sha256']} (block 0, {note})")
    print(f"setup_s {e2e['setup_s'][0]:.4f} s (median of {len(res['setups_s'])} import + build: "
          + ", ".join(f"{t:.4f}" for t in res["setups_s"]) + ")")
    print(f"ops_per_s {e2e['ops_per_s'][0]:.3f} 1/s (n={n})")
    print(f"op_p50_ms {e2e['op_p50_ms'][0]:.4f} ms (n={n})")
    if "op_p90_ms" in res:
        print(f"op_p90_ms {res['op_p90_ms']:.4f} ms (n={n})")
    else:
        print(f"op_p90_ms undefined (n={n} < 100, fewer than 10 samples beyond it)")
    print(f"fail_frac {res['failed'] / n:.6f} ({res['failed']}/{n}); checks took {res['check_s']:.1f} s")
    print(f"peak_rss_mb {e2e['peak_rss_mb'][0]:.1f} MB")
    if args.trace:
        print(f"traced replay of {res['traced_ops']} ops; spans written to {res['spans_file']}; traced outputs "
              + ("match" if res["trace_ok"] else "DIFFER FROM") + " the untraced run")
    metrics = res["layer"] if args.trace else e2e
    print(json.dumps({
        "correct": res["failed"] == 0 and digest_ok and res["trace_ok"],
        "attempted": n,
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
