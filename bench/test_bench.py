"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench/test_bench.py -q

Run from the root of a checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_is_correct(name):
    res = result_of(bench("--workload", name, "--seed", "3", "--size", "tiny"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "search", "--seed", "4", "--size", "tiny", "--trace", "1")
    res = result_of(proc)
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    assert set(res["metrics"]) == set(run.PER_LAYER)
    layers = {k: v["value"] for k, v in res["metrics"].items()}
    assert layers["search.k_set_is_empty.vector_route"] > 0
    assert layers["search.k_set_is_empty.walk_route"] > 0
    assert layers["search.find_ls.candidates"] > 0
    assert layers["trace.layer_self_share"] > 0.5
    assert len(record["binding_sites"]) > len(TRACED)


def test_tracer_wraps_every_binding_and_restores():
    import demjanenko
    from demjanenko import arith, singular

    originals = {id(getattr(sys.modules[f"demjanenko.{m}"], f)) for m, f, _ in TRACED}
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "demjanenko"]
    sites = {(m, a): v for m in modules for a, v in vars(m).items() if id(v) in originals}
    assert len(sites) > len(TRACED)  # re-exports and `from .x import` bindings
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(m, a) is not v for (m, a), v in sites.items())
        singular.k_set(arith.make_context(13))
    finally:
        tracer.restore()
    assert all(getattr(m, a) is v for (m, a), v in sites.items())
    assert demjanenko.k_set is singular.k_set
    names = [s.name for s in tracer.spans]
    assert names[0] == "arith.make_context" and "singular.k_set" in names


def _corrupt(name, outputs):
    """Turn one answer of a tiny pass wrong, as a faulty library would."""
    if name == "census":
        rows, checkpoint = outputs
        ell, count, members = rows[-1]
        return [rows[:-1] + [(ell, count + 10**6, members)], checkpoint]
    if name == "kset_large":
        ell, count, inside, outside = outputs[0]
        return [(ell, count, inside, outside[:-1] + inside[:1])] + outputs[1:]
    if name == "search":
        rec = outputs["find_ls"][3]
        outputs["find_ls"][3] = type(rec)(s=3, ell=37, limit=rec.limit, factorization=((2, 2), (3, 2)))
        return outputs
    ell, k, dim, rank = outputs[0]
    return [(ell, k, dim, rank + 1)] + outputs[1:]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_wrong_answer_is_counted(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inp = wl.inputs(5, "tiny")
    result = wl.run_pass(inp, str(tmp_path))
    assert wl.gate(inp, result.outputs).failed_units == 0
    gate = wl.gate(inp, _corrupt(name, result.outputs))
    assert gate.failed_units >= 1 and gate.messages


def test_faulty_library_raises_failed_frac(monkeypatch, tmp_path):
    import worker
    from demjanenko import matrix

    real = matrix.exact_rank
    monkeypatch.setattr(matrix, "exact_rank", lambda dm, cap=None: real(dm, cap) + 1)
    args = worker.argparse.Namespace(workload="rank", seed=6, seconds=0.01, trace=0,
                                     size="tiny", tmp=str(tmp_path))
    monkeypatch.chdir(ROOT)
    out = worker.run(args)
    assert out["failed"] == out["attempted"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
