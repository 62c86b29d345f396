"""The names the benchmark looks up in the library still exist.

`bench/tracing.py` finds each traced function with `getattr` on
`demjanenko.<module>`, the other bench files read `<module>.<name>`
attributes, the bench tests call `exact_rank(dm, cap)` positionally, and
the workloads call into `search` with fixed argument shapes; a rename,
deletion or change of signature would otherwise surface only in a
benchmark run. The tracer must also see the walk inside the emptiness
decision, or the bench's `walk_route` metric reads 0.

Four names stay in the library only for the bench: `exact_rank`, which
the bench's `rank` workload times and traces and which now only hands
the matrix's context and k to `hodge_rank` (the CLI calls `hodge_rank`
itself); its `cap` parameter and the `DimensionTooLarge` it raises (the
bench calls `exact_rank(dm, cap)`); and `matrix.rank_mod` (a `TRACED`
entry and five bench metrics). No library or CLI code calls them; they
go when the bench stops binding them.
"""

import ast
import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

from demjanenko import search, singular
from demjanenko.arith import make_context
from demjanenko.errors import DimensionTooLarge
from demjanenko.matrix import build_matrix, exact_rank

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_TRACING = _BENCH / "tracing.py"
_LAYERS = {"arith", "singular", "search", "matrix", "cyclotomic"}


def _load_tracing(monkeypatch):
    # compiled from the source text, so nothing is written next to it;
    # registered while it runs, because its dataclasses look it up
    tracing = types.ModuleType("bench_tracing")
    monkeypatch.setitem(sys.modules, tracing.__name__, tracing)
    exec(compile(_TRACING.read_text(), str(_TRACING), "exec"), tracing.__dict__)
    return tracing


def test_every_traced_function_exists(monkeypatch):
    traced = _load_tracing(monkeypatch).TRACED
    assert traced
    for mod_name, fn_name, _ in traced:
        module = importlib.import_module(f"demjanenko.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_traced_find_ls_walks_inside_k_set_is_empty(monkeypatch):
    # the walk_route metric counts the k_set_is_empty spans with a
    # k_witness child: the decision must call k_witness by its global name
    tracer = _load_tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        assert search.find_ls(5, 200_000).ell == 127681
    finally:
        tracer.restore()
    spans = tracer.spans
    assert any(
        spans[i].name == "search.k_witness"
        for span in spans if span.name == "search.k_set_is_empty"
        for i in span.children
    )


def _bench_reads():
    """(file, module, name) for every `<layer>.<name>` the bench reads."""
    reads = set()
    for path in sorted(_BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in _LAYERS
            ):
                reads.add((path.name, node.value.id, node.attr))
    return reads


def test_every_bench_attribute_exists():
    reads = _bench_reads()
    assert {m for _, m, _ in reads} == _LAYERS  # the parse sees every layer
    for file, mod_name, name in sorted(reads):
        module = importlib.import_module(f"demjanenko.{mod_name}")
        assert hasattr(module, name), f"{file}: {mod_name}.{name}"


def test_exact_rank_takes_cap_positionally():
    dm = build_matrix(make_context(67), 6)
    assert exact_rank(dm, dm.dimension) == 31
    with pytest.raises(DimensionTooLarge):
        exact_rank(dm, dm.dimension - 1)


# the shapes of the bench's calls into search, in bench/workloads.py and
# bench/worker.py: name -> (positional, keyword) arguments
_BENCH_CALLS = {
    "find_ls": ((5, 200_000), {}),
    "lbm_scan": ((1, 1, 40, 1 << 40), {}),
    "k_set_is_empty": ((19,), {}),
    "k_witness": ((19,), {}),
    "SearchConfig": ((), {"max_ell": 30_000, "workers": 1, "checkpoint_path": None}),
}


@pytest.mark.parametrize("name", list(_BENCH_CALLS))
def test_bench_call_shapes_bind(name):
    args, kwargs = _BENCH_CALLS[name]
    inspect.signature(getattr(search, name)).bind(*args, **kwargs)


@pytest.mark.parametrize("name", ["k_set_is_empty", "k_witness"])
def test_search_walk_names_are_the_singular_functions(name):
    # the tracer patches by identity, and _empty_primes looks
    # k_set_is_empty up on search
    assert getattr(search, name) is getattr(singular, name)
