"""Command-line surface: classify, build, stream, verify, and oracle.

File conventions: diagonal specs read as JSON (a spec object or a bare list)
or CSV (flat list of numbers); matrices write as CSV with one row per line,
comma-separated, each entry as ``"%.17g" % x``, which round-trips doubles
exactly: +0.0 is ``0``, -0.0 is ``-0``, and NaN and infinities are ``nan``,
``inf`` and ``-inf``. Only the entries other than +0.0 are formatted, so a
built projection, which is mostly zeros, is written from its nonzeros with
no n x n array besides the text itself.
Exit codes: 0 success or feasible, 2 provably infeasible (report still
emitted), failed verification, or a failed internal check (an invariant
break or a stream that runs out of terms, reported as ``error: ...``),
1 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .builder import BuildOptions, InfeasibleDiagonalError, build, build_case2
from .diagonal import DiagonalSpec, Verdict, classify
from .tetris import NeedsMoreTermsError, completed_columns, sparse_rows
from .verify import SparseMatrix, check_projection, necessity_oracle


class CliInputError(ValueError):
    """Bad arguments or file contents; reported to stderr with exit code 1."""


def _check_paths(ns: argparse.Namespace) -> None:
    """Input files must exist and the output directory too, before any work."""
    for path in (getattr(ns, "input", None), getattr(ns, "diagonal", None)):
        if path is not None and not os.path.isfile(path):
            raise CliInputError(f"input file not found: {path}")
    if ns.output is not None:
        parent = os.path.dirname(ns.output) or "."
        if not os.path.isdir(parent):
            raise CliInputError(f"output directory not found: {parent}")


# -- input parsing ---------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliInputError(f"cannot read {path}: {e}") from e


def _detect_format(path: str, override: str | None) -> str:
    if override is not None:
        return override
    return "json" if path.lower().endswith(".json") else "csv"


def _load_json(text: str, path: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CliInputError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from e


def _parse_number_rows(text: str, path: str) -> list[tuple[int, list[float]]]:
    rows = []
    for ln, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        cells = line.split(",")
        try:
            rows.append((ln, list(map(float, cells))))
        except ValueError:
            # name the first cell that float() rejects; it strips what str.strip() does
            for col, cell in enumerate(cells, 1):
                tok = cell.strip()
                try:
                    float(tok)
                except ValueError:
                    raise CliInputError(
                        f"{path}: row {ln}, column {col}: not a number: {tok!r}"
                    ) from None
            raise
    return rows


def _load_spec(path: str, fmt: str | None) -> DiagonalSpec:
    text = _read_text(path)
    try:
        if _detect_format(path, fmt) == "json":
            obj = _load_json(text, path)
            if isinstance(obj, list):
                return DiagonalSpec(obj)
            if isinstance(obj, dict):
                return DiagonalSpec.from_json_dict(obj)
            raise CliInputError(f"{path}: expected a JSON list or a spec object")
        flat = [x for _, row in _parse_number_rows(text, path) for x in row]
        return DiagonalSpec(flat)
    except CliInputError:
        raise
    except (ValueError, TypeError, KeyError) as e:
        raise CliInputError(f"{path}: {e}") from e


def _load_matrix(path: str, fmt: str | None) -> np.ndarray:
    text = _read_text(path)
    if _detect_format(path, fmt) == "json":
        obj = _load_json(text, path)
        try:
            P = np.asarray(obj, dtype=float)
        except (ValueError, TypeError) as e:
            raise CliInputError(f"{path}: not a rectangular numeric array: {e}") from e
        if P.ndim != 2:
            raise CliInputError(f"{path}: expected a 2-d array, got shape {P.shape}")
        return P
    rows = _parse_number_rows(text, path)
    if not rows:
        raise CliInputError(f"{path}: empty matrix")
    width = len(rows[0][1])
    for ln, row in rows:
        if len(row) != width:
            raise CliInputError(f"{path}: row {ln} has {len(row)} entries, expected {width}")
    return np.array([row for _, row in rows])


def _matrix_to_csv(P) -> str:
    """``P``, a ``SparseMatrix`` or a square dense array, as CSV text, every
    entry ``"%.17g" % x``. Only the entries other than +0.0 (nonzeros, and
    on a dense array -0.0, NaN and infinities) are formatted, and each row
    is one reused list of cells with them put in; every +0.0 cell is the
    shared string ``"0"``, which is what the format gives."""
    if not isinstance(P, SparseMatrix):
        P = SparseMatrix.from_dense(P, keep_negative_zeros=True)
    rows, cols = P.coords()
    ends = rows.searchsorted(np.arange(1, P.n + 1)).tolist()
    cols = cols.tolist()
    text = list(map("%.17g".__mod__, P.values.tolist()))
    cells = ["0"] * P.n
    lines = []
    a = 0
    for b in ends:
        for c, t in zip(cols[a:b], text[a:b]):
            cells[c] = t
        lines.append(",".join(cells))
        for c in cols[a:b]:
            cells[c] = "0"
        a = b
    return "\n".join(lines) + "\n"


def _write_output(payload: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


# -- commands --------------------------------------------------------------


def _cmd_classify(ns: argparse.Namespace) -> int:
    report = classify(_load_spec(ns.input, ns.format))
    _write_output(json.dumps(report.to_json_dict(), indent=2) + "\n", ns.output)
    return 2 if report.verdict is Verdict.INFEASIBLE else 0


def _cmd_build(ns: argparse.Namespace) -> int:
    spec = _load_spec(ns.input, ns.format)
    options = BuildOptions(mode=ns.mode, epsilon=ns.epsilon, truncation_rows=ns.rows)
    try:
        result = build(spec, options)
    except InfeasibleDiagonalError as e:
        _write_output(json.dumps(e.report.to_json_dict(), indent=2) + "\n", ns.output)
        return 2
    if result.entries is None:
        raise CliInputError("--rows 0 leaves nothing to materialize; use the stream command")
    sidecar: dict = {
        "kadison": result.kadison.to_json_dict(),
        "approximation_error": result.approximation_error,
    }
    if result.report is not None:
        sidecar["verification"] = result.report.to_json_dict()
    if result.completed_indices is not None:
        sidecar["completed_indices"] = result.completed_indices
        sidecar["complemented"] = result.complemented
        sidecar["block_heads"] = result.block_heads
        sidecar["block_stride"] = result.block_stride
    if result.notices:
        sidecar["notices"] = result.notices
    _write_output(_matrix_to_csv(result.entries), ns.output)
    if ns.output is not None:
        _write_output(json.dumps(sidecar, indent=2) + "\n", ns.output + ".report.json")
    else:
        print(json.dumps(sidecar, indent=2), file=sys.stderr)
    return 0


def _cmd_stream(ns: argparse.Namespace) -> int:
    if ns.rows < 0:
        raise CliInputError(f"rows must be nonnegative, got {ns.rows}")
    spec = _load_spec(ns.input, ns.format)
    report = classify(spec)
    if report.verdict is Verdict.INFEASIBLE:
        _write_output(json.dumps(report.to_json_dict(), indent=2) + "\n", ns.output)
        return 2
    if report.verdict is not Verdict.CASE_II:
        raise CliInputError("both defect sums are finite; use the build command")
    plan = build_case2(spec)
    if plan.complemented or plan.stride > 1:
        raise CliInputError(
            "this diagonal needs complementation or multiple blocks; "
            "use the build command for an assembled corner"
        )
    stream = plan.streams[0]
    start, lens, _, values = stream.take(ns.rows)
    lines = [row.to_json_line() for row in sparse_rows(1, start, lens, values)]
    count, masses = completed_columns(stream)
    targets = stream.permuted_values(count)
    summary = {
        "completed": count,
        "norms_squared": list(masses),
        "max_deviation": max((abs(m - t) for m, t in zip(masses, targets)), default=0.0),
        "trivial_ones": plan.trivial_ones,
        "trivial_zeros": plan.trivial_zeros,
    }
    _write_output("\n".join(lines + [json.dumps(summary)]) + "\n", ns.output)
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    P = _load_matrix(ns.input, ns.format)
    spec = _load_spec(ns.diagonal, None)
    if not spec.is_finite:
        raise CliInputError(f"{ns.diagonal}: verify needs a finite diagonal")
    try:
        rep = check_projection(P, list(spec.prefix))
    except ValueError as e:
        raise CliInputError(str(e)) from e
    _write_output(rep.to_json() + "\n", ns.output)
    return 0 if rep.all_pass else 2


def _cmd_oracle(ns: argparse.Namespace) -> int:
    if not 0 < ns.rank < ns.dim:
        raise CliInputError(f"need 0 < rank < dim, got rank={ns.rank}, dim={ns.dim}")
    ok = necessity_oracle(ns.dim, ns.rank, ns.trials, ns.seed)
    out = {
        "dim": ns.dim,
        "rank": ns.rank,
        "trials": ns.trials,
        "seed": ns.seed,
        "all_integral": ok,
    }
    _write_output(json.dumps(out, indent=2) + "\n", ns.output)
    return 0 if ok else 2


_DISPATCH = {
    "classify": _cmd_classify,
    "build": _cmd_build,
    "stream": _cmd_stream,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


# -- wiring ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, made on the first ``main`` call and reused: it
    holds no per-call state, since ``parse_args`` returns a new namespace."""
    p = _Parser(
        prog="carpenter",
        description="Decide whether a sequence is the diagonal of a projection and build one.",
    )
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_io(sp, with_format=True):
        sp.add_argument("--input", required=True, help="path to the diagonal spec or matrix")
        sp.add_argument("--output", default=None, help="output path (default: stdout)")
        if with_format:
            sp.add_argument(
                "--format",
                choices=("csv", "json"),
                default=None,
                help="input format (default: by file extension)",
            )

    sp = sub.add_parser("classify", help="feasibility verdict and defect sums")
    add_io(sp)

    sp = sub.add_parser("build", help="construct a projection matrix")
    add_io(sp)
    sp.add_argument("--mode", choices=("exact", "approximate"), default="exact")
    sp.add_argument("--epsilon", type=float, default=1e-6, help="approximate-mode tolerance")
    sp.add_argument("--rows", type=int, default=50, help="rows/coordinates for infinite tails")
    sp.add_argument(
        "--pipeline",
        choices=("shortcut", "full"),
        default="shortcut",
        help="selects nothing: every finite build takes one route; kept for scripts that pass it",
    )

    sp = sub.add_parser("stream", help="emit sparse rows for a divergent diagonal")
    add_io(sp)
    sp.add_argument("--rows", type=int, default=50, help="number of rows to emit")

    sp = sub.add_parser("verify", help="check a matrix against a diagonal")
    add_io(sp)
    sp.add_argument("--diagonal", required=True, help="path to the expected diagonal")

    sp = sub.add_parser("oracle", help="sample random projections, test integrality")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", default=None)
    return p


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        _check_paths(ns)
        return _DISPATCH[ns.command](ns)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (AssertionError, NeedsMoreTermsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
