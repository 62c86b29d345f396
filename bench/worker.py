"""Child process of the benchmark: one workload, or one set-up probe.

run.py starts it with PYTHONPATH set to the checkout's src/, so every
workload gets a fresh interpreter and its own peak-memory mark:

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --size full|tiny --tmp DIR
    python3 bench/worker.py --setup-probe

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def warm_up() -> None:
    """One tiny call into each layer, so lazy set-up is done before timing."""
    from demjanenko import arith, cyclotomic, matrix, search, singular

    ctx = arith.make_context(19)
    arith.index_table(ctx)
    singular.k_set(ctx)
    search.k_set_is_empty(19)
    matrix.exact_rank(matrix.build_matrix(ctx, 2))
    cyclotomic.l_set(2, 1, 1, 1)


def setup_probe() -> dict:
    t0 = time.perf_counter()
    import demjanenko  # noqa: F401
    import demjanenko.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    warm_up()
    return {"import_s": import_s}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has at
    least 10 samples beyond it; the maximum when there are 10 or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def lru_counts(module) -> tuple[int, int]:
    """(hits, misses) of the cyclotomic polynomial cache, (0, 0) if absent."""
    cached = getattr(module, "_cyclotomic_coeffs", None)
    if not hasattr(cached, "cache_info"):
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.misses


def run(args) -> dict:
    import numpy
    import demjanenko
    from demjanenko import cyclotomic

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(demjanenko.__file__).startswith(src + os.sep):
        raise SystemExit(f"demjanenko imported from {demjanenko.__file__}, not from {src}")

    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    warm_up()
    workload = WORKLOADS[args.workload]
    inp = workload.inputs(args.seed, args.size)
    tracer = Tracer() if args.trace else None
    hits0, misses0 = lru_counts(cyclotomic)

    walls, throughputs, p50s, tails, firsts = [], [], [], [], []
    attempted = failed = checks = 0
    messages: list[str] = []
    peak_rss_mb = None
    while True:
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            result = workload.run_pass(inp, args.tmp)
            wall = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.restore()
        if peak_rss_mb is None:  # before any gate runs; ru_maxrss is in KiB
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gate = workload.gate(inp, result.outputs)
        walls.append(wall)
        throughputs.append(result.units / wall)
        if result.latencies:
            p50s.append(statistics.median(result.latencies))
            tails.append(tail(result.latencies))
        firsts.append(result.first_result_s)
        attempted += result.units
        failed += min(result.units, result.failed_units + gate.failed_units)
        checks += gate.checks
        messages += result.errors + gate.messages
        if sum(walls) + statistics.median(walls) > args.seconds:
            break

    out = {
        "workload": args.workload,
        "unit": workload.unit,
        "passes": len(walls),
        "units_per_pass": attempted // len(walls),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "messages": messages[:10],
        "wall_s": statistics.median(walls),
        "throughput_per_s": statistics.median(throughputs),
        "unit_p50_ms": 1000 * statistics.median(p50s) if p50s else 0.0,
        "unit_tail_ms": 1000 * statistics.median(v for v, _ in tails) if tails else 0.0,
        "unit_tail_percentile": tails[0][1] if tails else 0.0,
        "first_result_s": statistics.median(firsts),
        "peak_rss_mb": peak_rss_mb,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer:
        hits, misses = lru_counts(cyclotomic)
        hits, misses = hits - hits0, misses - misses0
        layers = layer_metrics(tracer.spans, len(walls))
        layers["trace.layer_self_share"] = layers.pop("trace.layer_self_s") * len(walls) / sum(walls)
        layers["cyclotomic.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["layers"] = layers
        out["binding_sites"] = tracer.sites
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--tmp", default=".")
    args = parser.parse_args(argv)
    out = setup_probe() if args.setup_probe else run(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
