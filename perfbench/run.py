"""Benchmark the cwlab evaluators on one seeded workload.

    python3 perfbench/run.py --workload residual_fit --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is loaded from its src/ tree.
The untraced run (--trace 0) reports the end-to-end metrics; the traced run
(--trace 1) reports the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  Result files go to .perfbench/ under the checkout.

The end-to-end times are corrected for host speed.  On a shared host the speed
of one vCPU can halve for seconds to minutes at a time, longer than a run, so
no median over rounds removes it.  A fixed pure-Python reference chunk is
therefore timed between operations, at least every REF_GAP_S, and each
operation's latency is scaled by REF_NOMINAL_S over the median of the chunks
around it.  The set-up probes are scaled the same way by chunks timed just
before and after each.  Raw times are kept in the metadata.
"""

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import library
import spans
import workloads
from workloads import Ref

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"
MIN_ROUNDS = 3
SETUP_PROBES = 9
PROBE_CHUNKS = 10
REF_ITERS = 2_000
# the reference chunk's time at full speed on a 2-vCPU x86-64 host, Python 3.11;
# scaled times read as seconds on that host at full speed
REF_NOMINAL_S = 1.3e-4
REF_GAP_S = 0.01
PROBE_TIMEOUT_S = 60
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 50.0)
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def setup(name: str, seed: int, tracer=None):
    """Load the library, draw the inputs, build specs and models, warm up."""
    if tracer is not None:
        timer = spans.ImportTimer(tracer)
        sys.meta_path.insert(0, timer)
    try:
        import_path, modules = library.load()
    finally:
        if tracer is not None:
            sys.meta_path.remove(timer)
    api = library.api(modules)
    workload = workloads.WORKLOADS[name](spans.traced_api(tracer, api) if tracer else api, seed)
    workload.warm_up(api)
    return import_path, modules, api, workload


def reference_chunk() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


def host_scaled(latencies, segments, chunks) -> list[float]:
    """Each latency times REF_NOMINAL_S over the median of the four chunks
    around its segment (the ops between chunk k and chunk k + 1)."""
    factors = [
        REF_NOMINAL_S / statistics.median(chunks[max(0, k - 1):k + 3])
        for k in range(len(chunks) - 1)
    ]
    return [t * factors[k] for t, k in zip(latencies, segments)]


def run_round(ops, api) -> dict:
    """One closed-loop pass over the round's operations; checks come later.

    A reference chunk runs before the first operation, whenever REF_GAP_S has
    passed since the last chunk, and after the last operation.  No chunk is
    inside an operation's latency.
    """
    calls = [(op, getattr(api, op.fn)) for op in ops]
    outs, latencies, segments, chunks = {}, [], [], []
    clock = time.perf_counter
    gc.collect()
    last = -math.inf
    for op, fn in calls:
        if clock() - last > REF_GAP_S:
            chunks.append(reference_chunk())
            last = clock()
        args = [outs[a.key] if isinstance(a, Ref) else a for a in op.args]
        t0 = clock()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        latencies.append(clock() - t0)
        segments.append(len(chunks) - 1)
        outs[op.key] = out
    chunks.append(reference_chunk())
    scaled = host_scaled(latencies, segments, chunks)
    return {"latencies": latencies, "scaled": scaled, "raw_wall": sum(latencies),
            "wall": sum(scaled), "chunks": chunks, "outs": outs}


def check_round(ops, outs, refs) -> int:
    """Number of operations that raised or failed their check."""
    failed = 0
    for op in ops:
        out = outs[op.key]
        try:
            ok = not isinstance(out, Exception) and op.check(op.key, out, outs, refs)
        except Exception as exc:  # a check that cannot run is a failed check
            ok, out = False, exc
        if not ok:
            if failed < 5:
                print(f"check failed: {op.key}: {out!r}"[:300], file=sys.stderr)
            failed += 1
    return failed


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh process to its end of set-up, raw and
    scaled by the reference chunks timed just before and after it."""
    before = [reference_chunk() for _ in range(PROBE_CHUNKS)]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    after = [reference_chunk() for _ in range(PROBE_CHUNKS)]
    return elapsed, elapsed * REF_NOMINAL_S / statistics.median(before + after)


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics.  Unlike one order statistic it does
    not jump when two neighbouring values trade places."""
    # imported here, not at the top, so that the library's own imports load
    # numpy during set-up, where the traced run times them
    import numpy as np

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20_001)
    inner = grid[1:-1]
    pdf = np.exp((a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
                 - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    pdf = np.concatenate(([0.0], pdf, [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ ordered)


def tail_percentile(n: int) -> tuple[float, int]:
    """Highest listed percentile of n samples with at least ten samples beyond
    it (nearest rank), and how many are beyond it."""
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, n - rank
    return 100.0, 0


def measure(workload, api, seconds: float, tracer=None, modules=None, probe=None):
    """Run rounds until `seconds` have passed; with a tracer, every other round is traced.

    With `probe`, SETUP_PROBES set-up probes run too, one after each round and
    the rest at the end, so they sample the host over the whole run.  Their
    time does not count against `seconds`.
    """
    targets = spans.cross_layer_targets(modules) if tracer else None
    traced_api = spans.traced_api(tracer, api) if tracer else None
    min_rounds = 2 * MIN_ROUNDS - 1 if tracer else MIN_ROUNDS
    rounds, refs, probes = [], None, []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        if probe and rounds and len(probes) < SETUP_PROBES:
            t0 = time.perf_counter()
            probes.append(probe())
            deadline += time.perf_counter() - t0
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.take()
            with tracer.patched(targets):
                result = run_round(workload.ops, traced_api)
            result["spans"] = tracer.take()
        else:
            result = run_round(workload.ops, api)
        if refs is None:
            refs = workload.references(api)
        result["failed"] = check_round(workload.ops, result.pop("outs"), refs)
        result["traced"] = traced
        rounds.append(result)
    while probe and len(probes) < SETUP_PROBES:
        probes.append(probe())
    return rounds, probes


def end_to_end(rounds, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, all from host-scaled latencies.

    Every round does the same operations, so each operation's latency is taken
    as its median over the rounds, and the median and tail are over those.
    The tail percentile then depends only on the workload, not on how many
    rounds fit.
    """
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_op = [statistics.median(ts) for ts in zip(*(r["scaled"] for r in rounds))]
    attempted = len(rounds) * len(per_op)
    failed = sum(r["failed"] for r in rounds)
    percentile, beyond = tail_percentile(len(per_op))
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "ops_per_s": (attempted - failed) / sum(r["wall"] for r in rounds),
        "op_p50_ms": hd_quantile(per_op, 0.5) * 1e3,
        "op_tail_ms": hd_quantile(per_op, percentile / 100) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"samples": attempted, "samples_per_round": len(per_op),
            "op_tail_percentile": percentile, "op_tail_operations_beyond": beyond,
            "fail_frac": failed / attempted}
    return values, info


def per_layer(workload, rounds, setup_spans) -> tuple[dict, dict]:
    traced = [r for r in rounds if r["traced"]]
    counts = [spans.span_counts(r["spans"]) for r in traced]
    if any(c != counts[0] for c in counts):
        raise RuntimeError(f"span counts differ between traced rounds: {counts}")
    missing = [name for name in workload.expects if counts[0][name] == 0]
    if missing:
        raise RuntimeError(f"{workload.name}: no spans recorded for {missing}")
    per_round = [spans.round_metrics(r["spans"]) for r in traced]
    # the low median keeps counts, equal in every traced round, whole numbers
    values = {k: statistics.median_low(m[k] for m in per_round) for k in per_round[0]}
    values.update(spans.setup_metrics(setup_spans))
    plain = statistics.median(r["wall"] for r in rounds if not r["traced"])
    values["trace.overhead_frac"] = statistics.median(r["wall"] for r in traced) / plain - 1
    return values, {"span_counts": dict(sorted(counts[0].items()))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    tracer = spans.Tracer() if args.trace else None
    try:
        import_path, modules, api, workload = setup(args.workload, args.seed, tracer)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot load the library: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print("ready", flush=True)
        return 0
    setup_spans = tracer.take() if tracer else None

    meta = library.metadata(import_path, args.seed)
    meta.update(workload=args.workload, trace=args.trace, seconds=args.seconds)
    probe = None if tracer else (lambda: probe_setup(args.workload, args.seed))
    rounds, probes = measure(workload, api, args.seconds, tracer, modules, probe)
    if probes:
        meta["setup_probes_raw_s"] = [raw for raw, _ in probes]
        meta["setup_probes_s"] = [scaled for _, scaled in probes]
    chunks = [c for r in rounds for c in r["chunks"]]
    meta["reference_chunk_ms"] = {
        "nominal": REF_NOMINAL_S * 1e3,
        "min": min(chunks) * 1e3,
        "median": statistics.median(chunks) * 1e3,
        "max": max(chunks) * 1e3,
    }
    meta["round_wall_s"] = [r["wall"] for r in rounds]
    meta["round_raw_wall_s"] = [r["raw_wall"] for r in rounds]

    attempted = sum(len(r["latencies"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if tracer:
        values, info = per_layer(workload, rounds, setup_spans)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        values, info = end_to_end(rounds, statistics.median(meta["setup_probes_s"]))
        units = dict(END_TO_END)
    meta.update(info)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        records = [rec for i, r in enumerate(rounds) if r["traced"]
                   for rec in spans.to_records(r["spans"], i)]
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(records))
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"meta": meta, **result}, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"import_path={import_path} rounds={len(rounds)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':40s} {failed / attempted:>14.6g} 1")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
