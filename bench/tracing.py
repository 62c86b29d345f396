"""Spans around the library's public functions, recorded from outside.

`Tracer.install()` replaces each traced function in every `demjanenko`
module that binds it, so calls made through `from .arith import ...`
are seen too; `Tracer.restore()` puts the originals back. Spans are kept
in memory and summarised into per-layer metrics after the traced pass.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


def _no_info(args, result):
    return None


def _index_table_bytes(args, result):
    return result.nbytes


def _k_set_counts(args, result):
    # (residues scanned, members found); beta = 0 returns without a scan
    ctx = args[0]
    return (ctx.ell - 2 if ctx.beta else 0, result.count)


def _checkpoint_bytes(args, result):
    return len(f"done {args[1]} {args[2]}\n")


def _is_empty(args, result):
    return bool(result)


def _rank_mod_ops(args, result):
    rows, cols = args[0].shape
    return rows * cols * min(rows, cols)


def _is_singular(args, result):
    return result < args[0].dimension


# Traced functions: (module, function, info). The span name is
# "<module>.<function>", after the module that defines the function;
# info(args, result) keeps the few numbers the summary needs, so spans
# hold no reference to the (possibly large) arguments.
TRACED = (
    ("arith", "make_context", _no_info),
    ("arith", "primitive_root", _no_info),
    ("arith", "index_table", _index_table_bytes),
    ("arith", "factorize", _no_info),
    ("singular", "k_set", _k_set_counts),
    ("search", "census", _no_info),
    ("search", "append_checkpoint", _checkpoint_bytes),
    ("search", "find_ls", _no_info),
    ("search", "k_set_is_empty", _is_empty),
    ("search", "k_witness", _no_info),
    ("search", "lbm_scan", _no_info),
    ("matrix", "build_matrix", _no_info),
    ("matrix", "stabilizer", _no_info),
    ("matrix", "exact_rank", _is_singular),
    ("matrix", "rank_mod", _rank_mod_ops),
    ("cyclotomic", "l_set", _no_info),
    ("cyclotomic", "cyclotomic_poly", _no_info),
    ("cyclotomic", "resultant", _no_info),
)

GENERATORS = {"search.census"}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    info: object = None
    child_s: float = 0.0
    children: list[int] = field(default_factory=list)
    first_yield: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records one span per call of a traced function (single thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.sites: list[str] = []  # "module.attr" of every patched binding

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, parent, time.perf_counter()))
        if parent is not None:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def _wrap(self, name: str, fn, info):
        if name in GENERATORS:
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.spans[idx].info = info(args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        # The span covers the time spent inside the generator, from its
        # creation to exhaustion; time the consumer spends between items
        # is excluded. first_yield is measured from the call.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                gen = fn(*args, **kwargs)
            finally:
                self._stack.pop()
            return self._drive(idx, gen)

        return traced

    def _drive(self, idx: int, gen):
        span = self.spans[idx]
        busy, count = 0.0, 0
        try:
            while True:
                self._stack.append(idx)
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    break
                finally:
                    now = time.perf_counter()
                    busy += now - t0
                    self._stack.pop()
                if span.first_yield is None:
                    span.first_yield = now - span.start
                count += 1
                yield item
        finally:
            span.end = span.start + busy
            span.info = count
            if span.parent is not None:
                self.spans[span.parent].child_s += span.duration

    def install(self) -> None:
        """Wrap every traced function wherever a demjanenko module binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        import demjanenko  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "demjanenko" or n.startswith("demjanenko."))]
        for mod_name, fn_name, info in TRACED:
            original = getattr(sys.modules[f"demjanenko.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, info)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        self.sites = sorted(f"{m.__name__}.{a}" for m, a, _ in self._patched)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer numbers per traced pass (counts and times are divided by
    the number of passes; ratios are taken over all of them)."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def calls(name):
        return len(named(name)) / passes

    def total(name):
        return sum(s.duration for s in named(name)) / passes

    def self_total(name):
        return sum(s.self_s for s in named(name)) / passes

    def info_sum(name, pick=lambda info: info):
        return sum(pick(s.info) for s in named(name) if s.info is not None) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    def children(span, name):
        return [spans[i] for i in span.children if spans[i].name == name]

    out = {
        "arith.make_context.calls": calls("arith.make_context"),
        "arith.make_context.s": total("arith.make_context"),
        "arith.primitive_root.s": total("arith.primitive_root"),
        "arith.index_table.calls": calls("arith.index_table"),
        "arith.index_table.s": total("arith.index_table"),
        "arith.index_table.bytes_computed": info_sum("arith.index_table"),
        "arith.factorize.calls": calls("arith.factorize"),
        "arith.factorize.s": total("arith.factorize"),
    }

    residues = info_sum("singular.k_set", lambda i: i[0])
    members = info_sum("singular.k_set", lambda i: i[1])
    out.update({
        "singular.k_set.calls": calls("singular.k_set"),
        "singular.k_set.self_s": self_total("singular.k_set"),
        "singular.k_set.residues": residues,
        "singular.k_set.members": members,
        "singular.k_set.member_ratio": ratio(members, residues),
    })

    census = named("search.census")
    empty = named("search.k_set_is_empty")
    out.update({
        "search.census.self_s": self_total("search.census"),
        "search.census.first_yield_s": ratio(
            sum(s.first_yield or 0.0 for s in census), len(census)),
        "search.append_checkpoint.calls": calls("search.append_checkpoint"),
        "search.append_checkpoint.s": total("search.append_checkpoint"),
        "search.append_checkpoint.bytes": info_sum("search.append_checkpoint"),
        "search.find_ls.self_s": self_total("search.find_ls"),
        "search.find_ls.candidates": sum(
            len(children(s, "search.k_set_is_empty")) for s in named("search.find_ls")) / passes,
        "search.k_set_is_empty.calls": calls("search.k_set_is_empty"),
        "search.k_set_is_empty.vector_route": sum(
            1 for s in empty if children(s, "singular.k_set")) / passes,
        "search.k_set_is_empty.walk_route": sum(
            1 for s in empty if children(s, "search.k_witness")) / passes,
        "search.k_set_is_empty.empty_ratio": ratio(sum(1 for s in empty if s.info), len(empty)),
        "search.k_witness.calls": calls("search.k_witness"),
        "search.k_witness.s": total("search.k_witness"),
        "search.lbm_scan.s": total("search.lbm_scan"),
    })

    ranks = named("matrix.exact_rank")
    singular_ranks = [s for s in ranks if s.info]
    full_ranks = [s for s in ranks if s.info is False]
    out.update({
        "matrix.build_matrix.calls": calls("matrix.build_matrix"),
        "matrix.build_matrix.self_s": self_total("matrix.build_matrix"),
        "matrix.stabilizer.s": total("matrix.stabilizer"),
        "matrix.exact_rank.calls": calls("matrix.exact_rank"),
        "matrix.exact_rank.self_s": self_total("matrix.exact_rank"),
        "matrix.rank_mod.calls": calls("matrix.rank_mod"),
        "matrix.rank_mod.s": total("matrix.rank_mod"),
        "matrix.rank_mod.ops_computed": info_sum("matrix.rank_mod"),
        "matrix.rank_mod.calls_per_singular": ratio(
            sum(len(children(s, "matrix.rank_mod")) for s in singular_ranks), len(singular_ranks)),
        "matrix.rank_mod.calls_per_full": ratio(
            sum(len(children(s, "matrix.rank_mod")) for s in full_ranks), len(full_ranks)),
    })

    out.update({
        "cyclotomic.l_set.calls": calls("cyclotomic.l_set"),
        "cyclotomic.l_set.self_s": self_total("cyclotomic.l_set"),
        "cyclotomic.cyclotomic_poly.s": total("cyclotomic.cyclotomic_poly"),
        "cyclotomic.resultant.s": total("cyclotomic.resultant"),
    })
    # every span's self time, summed: the share of the pass inside the layers
    out["trace.layer_self_s"] = sum(s.self_s for s in spans) / passes
    out["trace.spans"] = len(spans) / passes
    return out
