"""Span recorder installed around the public functions of each carpenter layer.

The program is not edited: ``Tracer.install`` replaces every binding of a
traced function inside the loaded ``carpenter`` modules, so the name a caller
looks up (``carpenter.builder.check_projection``, ``carpenter.cli.build``, the
``TetrisStream.next_row`` method) leads to a wrapper that records a span and
then calls the original. Spans stay in memory and are reduced to per-layer
figures when the run ends. A layer's self time is its span minus the spans
nested directly inside it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Span name -> (module, attribute path). The span name is "<module>.<function>".
TARGETS = {
    "diagonal.classify": ("carpenter.diagonal", "classify"),
    "diagonal.tail_sums": ("carpenter.diagonal", "tail_sums"),
    "horn.horn_build": ("carpenter.horn", "horn_build"),
    "moves.ops_shift": ("carpenter.moves", "ops_shift"),
    "moves.ops_restore": ("carpenter.moves", "ops_restore"),
    "builder.build": ("carpenter.builder", "build"),
    "builder.build_case1": ("carpenter.builder", "build_case1"),
    "builder.build_case2": ("carpenter.builder", "build_case2"),
    "tetris.next_row": ("carpenter.tetris", "TetrisStream.next_row"),
    "tetris.projection_prefix": ("carpenter.tetris", "projection_prefix"),
    "tetris.completed_columns": ("carpenter.tetris", "completed_columns"),
    "verify.check_projection": ("carpenter.verify", "check_projection"),
    "verify.check_rows": ("carpenter.verify", "check_rows"),
    "verify.necessity_oracle": ("carpenter.verify", "necessity_oracle"),
    "cli.main": ("carpenter.cli", "main"),
}


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs.get(name)


def _count_horn(tracer, args, kwargs, result):
    inp = _first_arg(args, kwargs, "inp")
    tracer.count("horn.horn_build.n_rank", len(inp.diag) * len(inp.lambdas))


def _count_check_projection(tracer, args, kwargs, result):
    n = len(_first_arg(args, kwargs, "P"))
    tracer.count("verify.check_projection.flops_computed", 2 * n**3)


def _count_check_rows(tracer, args, kwargs, result):
    rows = _first_arg(args, kwargs, "rows")
    if isinstance(rows, (list, tuple)) and rows:
        width = max(r.start + len(r.values) for r in rows)
        tracer.count("verify.check_rows.bytes_computed", len(rows) * width * 8)


def _count_build(tracer, args, kwargs, result):
    tracer.count("builder.notices", len(result.notices))


def _count_restore(tracer, args, kwargs, result):
    tracer.count("moves.plan_moves", len(result[1]))


# Counters read from a call's arguments or result; NOTES.md says which
# end-to-end metric each should move.
HOOKS = {
    "horn.horn_build": _count_horn,
    "verify.check_projection": _count_check_projection,
    "verify.check_rows": _count_check_rows,
    "builder.build": _count_build,
    "moves.ops_restore": _count_restore,
}


class Tracer:
    """Spans as (name, start, end, parent index, task id), in call order."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        # One record per TetrisStream: next_row durations and the last m_n,
        # the number of source terms the stream has consumed.
        self.streams: list[dict] = []
        self._live: dict[int, dict] = {}
        self.task = 0
        self.missing: list[str] = []
        self.hook_errors = 0
        self._stack: list[int] = []
        self._undo: list = []

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def _note_row(self, stream, seconds: float) -> None:
        # A stream that has emitted one row was just started; ids of dead
        # streams are reused, so the first row always opens a new record.
        key = id(stream)
        rec = self._live.get(key)
        if rec is None or getattr(stream, "rows_emitted", 0) == 1:
            rec = self._live[key] = {"times": [], "m": 0}
            self.streams.append(rec)
        rec["times"].append(seconds)
        try:
            rec["m"] = stream.m[-1]
        except (AttributeError, IndexError, TypeError):
            self.hook_errors += 1

    def _wrap(self, name: str, fn, is_method: bool):
        spans, stack = self.spans, self._stack
        hook = HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.task)
            if is_method:
                tracer._note_row(args[0], t1 - t0)
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except Exception:
                    tracer.hook_errors += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target that the loaded carpenter modules define."""
        modules = [m for k, m in sys.modules.items() if k == "carpenter" or k.startswith("carpenter.")]
        for name, (modname, attr) in TARGETS.items():
            mod = sys.modules.get(modname)
            owner_name, _, fname = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, fname, None) if owner is not None else None
            if orig is None:
                self.missing.append(name)
                continue
            if owner_name:
                self._undo.append((owner, fname, orig))
                setattr(owner, fname, self._wrap(name, orig, is_method=True))
                continue
            wrapper = self._wrap(name, orig, is_method=False)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, task in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - child[i] for i, (name, t0, t1, parent, task) in enumerate(spans)]


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        name, t0, t1 = span[0], span[1], span[2]
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += own
    return table


def row_cost_ratio(streams) -> float:
    """Mean next_row time over the last tenth of each stream divided by the
    mean over its first tenth, pooled over streams of at least 20 rows.
    1.0 means the cost per row does not grow along a stream; 0.0 means no
    stream was long enough to tell."""
    first: list[float] = []
    last: list[float] = []
    for rec in streams:
        times = rec["times"]
        tenth = len(times) // 10
        if tenth >= 2:
            first.extend(times[:tenth])
            last.extend(times[-tenth:])
    if not first:
        return 0.0
    return (sum(last) / len(last)) / (sum(first) / len(first))
