"""Spans around calls into the package, recorded from outside it.

A span is (name, start, end, parent, request id).  Spans are kept in memory
and turned into per-layer numbers when the run ends: a layer's self time is
its spans' durations minus the time their child spans cover.  Wrappers are
installed where each caller looks a name up, so the package itself is not
edited: module attributes for ``linalg.*`` and names that ``quotient`` and
``singular`` imported, and methods on the ``VermaModule`` class.

Computing matrix statistics costs time inside the caller's span; it is
recorded as a ``trace.stats`` child span so that it does not count towards
any layer's self time.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from math import lcm
from time import perf_counter

NAME, START, END, PARENT, REQUEST, STATS = range(6)

# per-layer metric -> unit; the order is the order of the report
LAYER_UNITS = {
    "linalg.nullspace_s": "s",
    "linalg.rank_s": "s",
    "linalg.calls": "count",
    "linalg.rows_sum": "count",
    "linalg.cols_sum": "count",
    "linalg.nnz_sum": "count",
    "linalg.cells_sum": "count",
    "linalg.density": "ratio",
    "linalg.max_cells": "count",
    "linalg.max_entry_bits": "bits",
    "verma.straighten_s": "s",
    "verma.act_calls": "count",
    "verma.cache_entries": "count",
    "verma.engines": "count",
    "verma.enumerate_s": "s",
    "verma.basis_dim_sum": "count",
    "verma.oracle_s": "s",
    "singular.assemble_s": "s",
    "singular.kernel_dim_sum": "count",
    "quotient.assemble_s": "s",
    "quotient.span_rows": "count",
    "quotient.span_rank": "count",
    "quotient.span_useful_ratio": "ratio",
    "quotient.oracle_s": "s",
    "reducibility.decide_s": "s",
    "reducibility.witnesses_sum": "count",
    "roots.dot_action_s": "s",
    "roots.dot_action_calls": "count",
    "cli.serialize_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# span name -> the self-time metric it feeds
_SELF_TIME = {
    "linalg.nullspace": "linalg.nullspace_s",
    "linalg.rank": "linalg.rank_s",
    "verma.act": "verma.straighten_s",
    "verma.apply_word": "verma.straighten_s",
    "verma.weight_space_basis": "verma.enumerate_s",
    "verma.dim_oracle": "verma.oracle_s",
    "singular.find_singular": "singular.assemble_s",
    "quotient.w_multiplicity": "quotient.assemble_s",
    "quotient.lchar_oracle": "quotient.oracle_s",
    "reducibility.is_reducible": "reducibility.decide_s",
    "roots.dot_action": "roots.dot_action_s",
    "cli.serialize": "cli.serialize_s",
}


def matrix_stats(rows, ncols: int) -> dict:
    """Shape, nonzeros and the largest bit size after clearing denominators
    row by row, as ``linalg`` does before eliminating."""
    nnz = bits = 0
    for row in rows:
        denom = lcm(*(c.denominator for c in row)) if row else 1
        for c in row:
            if c:
                nnz += 1
                bits = max(bits, abs(c.numerator * (denom // c.denominator)).bit_length())
    return {"rows": len(rows), "cols": ncols, "nnz": nnz, "bits": bits}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self) -> None:
        self.spans[self._stack.pop()][END] = perf_counter()

    def wrap(self, owner, attr: str, name: str, stats=None) -> None:
        """Replace ``owner.attr`` by a function that records a span.

        ``stats(result, *args)`` returns what to keep of the call.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if stats is not None:
                rec[STATS] = stats(result, *args)
            return result

        setattr(owner, attr, traced)

    def wrap_matrix(self, owner, attr: str, name: str) -> None:
        """Like ``wrap``, for ``linalg`` calls taking rows (and ncols)."""
        def stats(result, rows, ncols=None):
            with self.span("trace.stats"):
                out = matrix_stats(rows, ncols if ncols is not None else
                                   (len(rows[0]) if rows else 0))
                if isinstance(result, int):
                    out["rank"] = result
            return out
        self.wrap(owner, attr, name, stats)

    def layers(self) -> dict:
        """Per-layer self times and counters of everything recorded."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[END] - rec[START]
        out = {name: 0.0 if unit == "s" else 0 for name, unit in LAYER_UNITS.items()}
        counts: dict[str, int] = defaultdict(int)
        for i, rec in enumerate(self.spans):
            name = rec[NAME]
            counts[name] += 1
            metric = _SELF_TIME.get(name)
            if metric is not None:
                out[metric] += rec[END] - rec[START] - covered[i]
            st = rec[STATS]
            if st is None:
                continue
            if name.startswith("linalg."):
                out["linalg.rows_sum"] += st["rows"]
                out["linalg.cols_sum"] += st["cols"]
                out["linalg.nnz_sum"] += st["nnz"]
                cells = st["rows"] * st["cols"]
                out["linalg.cells_sum"] += cells
                out["linalg.max_cells"] = max(out["linalg.max_cells"], cells)
                out["linalg.max_entry_bits"] = max(out["linalg.max_entry_bits"], st["bits"])
                if name == "linalg.rank":
                    out["quotient.span_rows"] += st["rows"]
                    out["quotient.span_rank"] += st["rank"]
            elif name == "verma.weight_space_basis":
                out["verma.basis_dim_sum"] += st
            elif name == "singular.find_singular":
                out["singular.kernel_dim_sum"] += st
            elif name == "reducibility.is_reducible":
                out["reducibility.witnesses_sum"] += st
        out["linalg.calls"] = counts["linalg.nullspace"] + counts["linalg.rank"]
        out["linalg.density"] = (out["linalg.nnz_sum"] / out["linalg.cells_sum"]
                                 if out["linalg.cells_sum"] else 0.0)
        out["quotient.span_useful_ratio"] = (out["quotient.span_rank"] / out["quotient.span_rows"]
                                             if out["quotient.span_rows"] else 0.0)
        out["verma.act_calls"] = counts["verma.act"]
        out["roots.dot_action_calls"] = counts["roots.dot_action"]
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path) -> None:
        """Write the spans as tab-separated lines: name, start, end, parent, request."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(f"{rec[NAME]}\t{rec[START]!r}\t{rec[END]!r}\t{rec[PARENT]}\t{rec[REQUEST]}\n")


def install(tracer: Tracer, pkg) -> None:
    """Wrap the public entry points of each layer where their callers look them up."""
    linalg, verma, singular, quotient, reducibility = (
        pkg.linalg, pkg.verma, pkg.singular, pkg.quotient, pkg.reducibility)
    tracer.wrap_matrix(linalg, "nullspace", "linalg.nullspace")
    tracer.wrap_matrix(linalg, "rank", "linalg.rank")
    tracer.wrap(verma.VermaModule, "act", "verma.act")
    tracer.wrap(verma.VermaModule, "apply_word", "verma.apply_word")
    tracer.wrap(verma.VermaModule, "weight_space_basis", "verma.weight_space_basis",
                lambda result, *args: len(result))
    for owner in (verma, quotient):
        tracer.wrap(owner, "dim_oracle", "verma.dim_oracle")
    for owner in (singular, quotient):
        tracer.wrap(owner, "dot_action", "roots.dot_action")
    tracer.wrap(singular, "find_singular", "singular.find_singular",
                lambda cert, *args: cert.kernel_dim)
    tracer.wrap(quotient, "w_multiplicity", "quotient.w_multiplicity")
    tracer.wrap(quotient, "lchar_oracle", "quotient.lchar_oracle")
    tracer.wrap(reducibility, "is_reducible", "reducibility.is_reducible",
                lambda report, *args: len(report.witnesses))
