"""Benchmark of the demjanenko library, run from the root of a checkout.

    python3 bench/run.py --workload census|kset_large|search|rank \
        --seed N --seconds S --trace 0|1 [--size tiny]

Workloads (inputs come from --seed; see workloads.py):
  census      search.census up to X ~ 30000, thousands of small k_set calls
  kset_large  singular.k_set on three primes between 2^22 and 2^22.8
  search      find_ls for Table 1, k_set_is_empty on both routes, lbm_scan, l_set
  rank        build_matrix + exact_rank, singular and full-rank k, ell in [200, 300]

Each workload runs in a fresh child process (bench/worker.py) with
workers=1. It repeats a fixed pass of library calls while the time spent
in passes stays within --seconds (at least one pass), checks every
pass's outputs outside the timed region, and reports:

  --trace 0  end-to-end metrics from an untraced child:
    setup_s           median wall time of 7 fresh interpreters that import
                      demjanenko and demjanenko.cli and make one tiny call
                      per layer
    wall_s            median wall time of one pass
    throughput_per_s  units per second of pass time (median over passes);
                      units are primes, primes, emptiness decisions and
                      resultant records, matrices
    unit_p50_ms       median unit latency in a pass (median over passes); a
                      unit's latency runs from the start of the public call
                      that produces it until that call hands it back
    unit_tail_ms      the highest latency percentile of a pass with at least
                      10 samples beyond it (the maximum with 10 or fewer),
                      median over passes; the percentile and the samples per
                      pass (units_per_pass) are in the record line
    first_result_s    time from the start of a pass to its first result
    peak_rss_mb       peak RSS of the child, read after its first pass and
                      before any check runs
  --trace 1  per-layer metrics: one untraced and one traced child, each
             given half of --seconds; spans wrap the library's public
             functions (tracing.py); trace.overhead_s is traced minus
             untraced wall_s, two processes apart, so machine noise of a
             few percent sits on it; trace.spans counts the spans a pass
             records.

A line {"record": ...} with the seed, commit, machine and unit counts
precedes the result. The last line is the result: {"correct", "attempted",
"failed", "metrics"}. The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("census", "kset_large", "search", "rank")
SETUP_PROBES = 7
RUN_LIMIT_S = 170  # every child is killed once the run reaches this age

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "unit_p50_ms": "ms",
    "unit_tail_ms": "ms",
    "first_result_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "arith.make_context.calls": "count",
    "arith.make_context.s": "s",
    "arith.primitive_root.s": "s",
    "arith.index_table.calls": "count",
    "arith.index_table.s": "s",
    "arith.index_table.bytes_computed": "B",
    "arith.factorize.calls": "count",
    "arith.factorize.s": "s",
    "singular.k_set.calls": "count",
    "singular.k_set.self_s": "s",
    "singular.k_set.residues": "count",
    "singular.k_set.members": "count",
    "singular.k_set.member_ratio": "ratio",
    "search.census.self_s": "s",
    "search.census.first_yield_s": "s",
    "search.append_checkpoint.calls": "count",
    "search.append_checkpoint.s": "s",
    "search.append_checkpoint.bytes": "B",
    "search.find_ls.self_s": "s",
    "search.find_ls.candidates": "count",
    "search.k_set_is_empty.calls": "count",
    "search.k_set_is_empty.vector_route": "count",
    "search.k_set_is_empty.walk_route": "count",
    "search.k_set_is_empty.empty_ratio": "ratio",
    "search.k_witness.calls": "count",
    "search.k_witness.s": "s",
    "search.lbm_scan.s": "s",
    "matrix.build_matrix.calls": "count",
    "matrix.build_matrix.self_s": "s",
    "matrix.stabilizer.s": "s",
    "matrix.exact_rank.calls": "count",
    "matrix.exact_rank.self_s": "s",
    "matrix.rank_mod.calls": "count",
    "matrix.rank_mod.s": "s",
    "matrix.rank_mod.ops_computed": "ops",
    "matrix.rank_mod.calls_per_singular": "count",
    "matrix.rank_mod.calls_per_full": "count",
    "cyclotomic.l_set.calls": "count",
    "cyclotomic.l_set.self_s": "s",
    "cyclotomic.cyclotomic_poly.s": "s",
    "cyclotomic.resultant.s": "s",
    "cyclotomic.cache_hit_ratio": "ratio",
    "cli.import_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_self_share": "ratio",
    "trace.spans": "count",
    "gate.failed_frac": "ratio",
}


class BenchError(Exception):
    pass


def _commit(root: str) -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.machine()


def _child(cmd: list[str], env: dict, deadline: float) -> tuple[dict, float]:
    """Run one child to completion; (its JSON result, its wall time)."""
    t0 = time.perf_counter()
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        raise BenchError(f"child exceeded the {RUN_LIMIT_S} s run limit: {cmd[2:]}")
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {cmd[2:]} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), wall


def _measure(args, root: str) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "demjanenko", "__init__.py")):
        raise BenchError(f"no library source at {src}/demjanenko: run from a checkout root")
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    probes, walls = [], []
    for _ in range(SETUP_PROBES):
        probe, wall = _child([sys.executable, WORKER, "--setup-probe"], env, deadline)
        probes.append(probe)
        walls.append(wall)

    tmp = os.path.join(root, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        def worker(trace: int, seconds: float) -> dict:
            cmd = [sys.executable, WORKER, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--size", args.size, "--tmp", tmp]
            return _child(cmd, env, deadline)[0]

        if args.trace:
            runs = [worker(0, args.seconds / 2), worker(1, args.seconds / 2)]
        else:
            runs = [worker(0, args.seconds)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    base = runs[0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if args.trace:
        traced = runs[1]
        layers = dict(traced["layers"])
        layers.update({
            "cli.import_s": statistics.median(p["import_s"] for p in probes),
            "trace.untraced_wall_s": base["wall_s"],
            "trace.traced_wall_s": traced["wall_s"],
            "trace.overhead_s": traced["wall_s"] - base["wall_s"],
            "gate.failed_frac": failed / attempted,
        })
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = dict(base, setup_s=statistics.median(walls))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": _commit(root),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": base["python"],
        "numpy": base["numpy"],
        "workers": 1,
        "unit": base["unit"],
        "passes": [r["passes"] for r in runs],
        "units_per_pass": base["units_per_pass"],
        "unit_tail_percentile": base["unit_tail_percentile"],
        "checks": sum(r["checks"] for r in runs),
        "failed_frac": f"{failed}/{attempted}",
        "failures": [m for r in runs for m in r["messages"]][:10],
        "setup_probe_s": walls,
    }
    if args.trace:
        record["binding_sites"] = runs[1]["binding_sites"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        record, result = _measure(args, os.getcwd())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
