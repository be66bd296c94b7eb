"""Spectral-tetris streaming construction for divergent diagonals.

Given a sequence with first entry in [0, 1), remaining entries in [0, 1/2],
and divergent sum, the stream emits finitely supported unit row vectors whose
consecutive overlaps are engineered to be orthogonal. The squared column
norms of the emitted rows then realize the prescribed diagonal values, column
by column, so the infinite projection P = sum of v v^T is produced lazily.

Column indexing is 0-based throughout; row numbers start at 1 (they are
counts). Thresholds m_n and k_n are counts of terms, matching the usual
"smallest k whose partial sum reaches n" definitions, so a row's 0-based
support is [k_{n-1}-2, k_n-1].

Partial-sum boundaries compare the correctly rounded prefix sum with the
target, the value math.fsum gives, so an exact hit such as 0.5 + 0.5 = 1
lands on the minimal count deterministically; a sum that only rounds up to
the target may fall short of it by at most 2**-41 (``_row_need``). Sums are
exact integers in units of 2**-1074 (Shewchuk's exact summation, done with a
Python int). Each pulled term is converted once, and the source-order prefix
sums are extended a chunk at a time; m_n is found by bisection over them.
The row's block, sorted, extends them in permuted order from m_{n-1}, where
both orders agree, and k_n is found the same way; sigma_n reads the sum at
k_n - 2. No later search reads a term before m_n, so the exact terms and
sums are kept only from there on: about one pull's worth.

Once the source-order sums have used every term held, a pull takes as many
new terms as are held, 1 to ``_CHUNK``: a short stream holds at most about
twice the terms it uses, and a long one pulls ``_CHUNK`` at a time.

A stream keeps no row it has emitted. Per row it keeps m_n, k_n, sigma_n,
a_n and, per term, its label, its value in both orders, its permuted
position and its column mass. ``row_products`` therefore drives a fresh
stream itself and returns its rows' pair products in source labels, leaving
the stream at the next row; ``projection_prefix`` sums them on label ranks.
"""

from __future__ import annotations

import json
import math
import operator
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from typing import Iterable, Iterator

import numpy as np

from .diagonal import DiagonalSpec
from .moves import pair_products, pair_sum

ROW_NORM_TOL = 1e-12
SOLVE_A_TOL = 1e-12
_CHUNK = 1024

# Boundary radicands (d1 - a, d2 - sigma + a, and the trailing pair) vanish
# exactly whenever a column block ends flush with a row, e.g. for a constant
# diagonal 0.1 where sigma = d1 + d2 in real arithmetic. Cancellation leaves
# ~1e-16 residue that sqrt amplifies to ~1e-8 spurious entries, which ruins
# orthogonality between adjacent rows. Anything this small is taken as zero,
# which moves a column or row norm by at most this much.
_SNAP_TOL = 1e-13

# A radicand this small is mostly rounding residue (~1e-17), which sqrt
# amplifies: on a 1e-13 radicand it moves the root by ~1e-11. Below this
# bound a row's opening pair is tied to the previous row by the balance
# equation instead (see TetrisStream._opening_pair).
_BALANCE_TOL = 1e-9

_SCALE = 1 << 1074  # every double is an integer multiple of 2**-1074


def _exact(x: float) -> int:
    """``x`` as an exact integer number of units 2**-1074."""
    num, den = x.as_integer_ratio()
    return num << (1075 - den.bit_length())


def _row_need(target: float) -> int:
    """Least exact prefix sum, in units of 2**-1074, that reaches row
    ``target``, a positive integer: one whose correctly rounded value is
    >= ``target`` and which falls short of it by at most 2**-41.

    sigma = target - S(k - 2) exceeds d1 + d2 = S(k) - S(k - 2) by the
    deficit target - S(k). Rounding alone would let that deficit reach half
    an ulp of ``target``, 1.8e-12 near 18,000, past ``SOLVE_A_TOL``. The
    cap, about 4.5e-13, is no tighter than half an ulp up to 4096, so every
    target up to there keeps the rounded rule: 0.7 + 3 * 0.1 lies just
    below 1 but rounds to 1.0, so it reaches 1.

    With 2**e <= n < 2**(e + 1), the double below n lies 2**(e - 52) under
    it, or 2**(e - 53) when n is a power of two. The sum halfway between
    rounds to n, whose significand is even (ties to even; past 2**52 the
    cap binds), so the least sum that reaches n is n less half that gap.
    """
    n = int(target)
    e = n.bit_length() - 1
    half_gap = 1021 + e - (n & (n - 1) == 0)  # log2 of half the gap, in units
    return (n << 1074) - (1 << min(half_gap, 1033))  # the cap is 2**1033 units


class NeedsMoreTermsError(RuntimeError):
    """The available source terms cannot reach the requested partial sum."""


def _reject(chunk: list, held: int) -> None:
    """Raise the error of the first bad entry of a pulled ``chunk`` whose
    first term is at position ``held``, as a term-by-term pull would."""
    for pos, (label, value) in enumerate(chunk, held):
        v = float(value)
        if pos == 0:
            if not 0.0 <= v < 1.0:
                raise ValueError(f"first entry {v} outside [0, 1)")
        elif not -SOLVE_A_TOL <= v <= 0.5 + SOLVE_A_TOL:
            raise ValueError(f"entry {v} at position {pos} outside [0, 1/2]")
        int(label)


@dataclass(frozen=True)
class SparseRow:
    """One emitted row: ``values`` occupy contiguous permuted columns
    ``start .. start + len(values) - 1``."""

    n: int
    start: int
    values: tuple[float, ...]

    @property
    def support(self) -> tuple[int, int]:
        return (self.start, self.start + len(self.values) - 1)

    def to_json_line(self) -> str:
        lo, hi = self.support
        return json.dumps({"n": self.n, "support": [lo, hi], "values": list(self.values)})

    @classmethod
    def from_json_line(cls, line: str) -> "SparseRow":
        obj = json.loads(line)
        return cls(int(obj["n"]), int(obj["support"][0]), tuple(float(x) for x in obj["values"]))


def _solve_a(sigma: float, d1: float, d2: float) -> float:
    """Split value for the 2x2 overlap table with row sums (a, sigma-a) and
    column constraints (d1, d2).

    Solves a*(d1-a) = (sigma-a)*(d2-sigma+a), which makes consecutive rows
    orthogonal. Requires max(d1, d2) <= sigma <= d1+d2 and all three in
    [0, 1]. In the degenerate case d1 = d2 = sigma any split works; a = sigma
    is returned, which zeroes two of the four table entries.
    """
    hi_d = max(d1, d2)
    if min(d1, d2) < -SOLVE_A_TOL:
        raise ValueError(f"negative column value: d1={d1}, d2={d2}")
    if max(hi_d, sigma) > 1.0 + SOLVE_A_TOL:
        raise ValueError(f"values above 1: sigma={sigma}, d1={d1}, d2={d2}")
    if sigma < hi_d - SOLVE_A_TOL:
        raise ValueError(f"sigma={sigma} < max(d1,d2)={hi_d}")
    if sigma > d1 + d2 + SOLVE_A_TOL:
        raise ValueError(f"sigma={sigma} > d1+d2={d1 + d2}")
    den = 2.0 * sigma - d1 - d2
    if den > 0.0:
        a = sigma * (sigma - d2) / den
    else:
        a = sigma
    lo = max(0.0, sigma - d2)
    hi = max(lo, min(sigma, d1))
    return min(max(a, lo), hi)


class TetrisStream:
    """Single-owner state machine emitting the rows of the construction.

    ``source`` may be a DiagonalSpec or an iterable of (label, value) pairs;
    labels identify positions of the original input (a spec source gets
    labels 0, 1, 2, ...). Terms are pulled from it by ``_pull`` when the
    source-order sum has used every held term, and validated as they come:
    the first must lie in [0, 1), the rest in [0, 1/2].

    Public state, all read-only for callers:
      pi            permutation as source positions, extended blockwise;
      m, k          threshold counts m_n, k_n (entry n-1 holds the value for n);
      sigma, a      per-row split parameters;
      rows_emitted  number of rows produced so far.
    """

    def __init__(self, source, max_terms: int = 10_000_000):
        if isinstance(source, DiagonalSpec):
            pairs: Iterable[tuple[int, float]] = enumerate(source.values())
        else:
            pairs = source
        self._source: Iterator[tuple[int, float]] = iter(pairs)
        self.max_terms = max_terms
        self._labels: list[int] = []
        self._vals: list[float] = []
        self.pi: list[int] = []
        self._perm_vals: list[float] = []
        # the window of held source positions from the last m_n on (0 before
        # row 1): _exact of each term, and the exact prefix sums of the
        # source order from count m_n to count held
        self._exacts: list[int] = []
        self._sums: list[int] = [0]
        self.m: list[int] = []
        self.k: list[int] = []
        self.sigma: list[float] = []
        self.a: list[float] = []
        self.rows_emitted = 0
        self._col_mass = array("d")  # squared column norms, 8 B each

    # -- source terms -----------------------------------------------------

    def _pull(self, target: float) -> None:
        """Take and validate as many new source terms as are held: at least
        one, at most ``_CHUNK``, never past ``max_terms``; append their exact
        values and extend the source-order prefix sums by them.

        The chunk is checked with its min and max; an entry out of range,
        a NaN (which ``_exact`` refuses) or a bad pair is named by
        ``_reject``, as a term-by-term check would name it."""
        held = len(self._vals)
        if held >= self.max_terms:
            raise NeedsMoreTermsError(
                f"needs {held + 1} source terms (cap max_terms={self.max_terms}) "
                f"while accumulating toward {target}; is the sum divergent?"
            )
        chunk = list(islice(self._source, min(max(held, 1), _CHUNK, self.max_terms - held)))
        if not chunk:
            raise NeedsMoreTermsError(f"source exhausted after {held} terms; partial sum cannot reach {target}")
        try:
            labels, values = zip(*chunk, strict=True)
            vals = list(map(float, values))
            lo, hi = min(vals), max(vals)
            # only the first pull holds position 0, and it takes one term
            if held == 0:
                in_range = 0.0 <= lo and hi < 1.0
            else:
                in_range = -SOLVE_A_TOL <= lo and hi <= 0.5 + SOLVE_A_TOL
            if not in_range:
                raise ValueError
            if lo < 0.0:
                vals = [max(v, 0.0) for v in vals]
            exacts = list(map(_exact, vals))  # raises on a NaN that min and max let through
            labels = list(map(int, labels))
        except (TypeError, ValueError, OverflowError):
            _reject(chunk, held)
            raise
        self._labels.extend(labels)
        self._vals.extend(vals)
        self._exacts.extend(exacts)
        self._sums.extend(islice(accumulate(exacts, initial=self._sums[-1]), 1, None))

    # -- thresholds and permutation ---------------------------------------

    def _ensure_rows(self, n: int) -> None:
        """Thresholds m, k, the permutation and sigma, a for rows 1..n.

        The terms are nonnegative, so prefix sums never decrease: m_n is the
        first count from m_{n-1} + 2 on whose source-order sum reaches
        ``_row_need(n)``, and k_n the same in permuted order. Both come from
        bisection over exact prefix sums. Terms of at most 1/2 need two per
        row; a sum that only rounds up to n could reach it with one (1/2 -
        2**-54 twice, 1/2 twice, 2**-53: the ulp below 2 is twice that below 1).
        """
        while len(self.k) < n:
            nn = len(self.k) + 1
            prev = self.m[-1] if self.m else 0
            target = float(nn)
            need = _row_need(target)
            sums = self._sums
            i = bisect_left(sums, need, 2)
            while i >= len(sums):
                self._pull(target)
                i = bisect_left(sums, need, i)
            mn = prev + i
            self.m.append(mn)
            # a stable descending sort of the block prev .. mn - 1, as offsets
            # into the block
            block_vals = self._vals[prev:mn]
            order = sorted(range(i), key=block_vals.__getitem__, reverse=True)
            self.pi.extend(map(prev.__add__, order))
            self._perm_vals.extend(map(block_vals.__getitem__, order))
            # permuted-order sums from m_{n-1}, where they equal the source
            # order's: the blocks before hold the same terms
            exacts = self._exacts
            perm_sums = list(accumulate(map(exacts.__getitem__, order), initial=sums[0]))
            # no later search reads a term before m_n
            del exacts[:i], sums[:i]
            kn = prev + bisect_left(perm_sums, need, 2)
            if not prev + 2 <= kn <= mn:
                raise AssertionError(
                    f"threshold sandwich violated at n={nn}: "
                    f"m_prev+2={prev + 2}, k={kn}, m={mn}"
                )
            d1 = self._perm_vals[kn - 2]
            d2 = self._perm_vals[kn - 1]
            if d1 < d2:
                raise AssertionError(f"reorder postcondition failed at n={nn}")
            self.k.append(kn)
            # correctly rounded nn - (sum of the first kn - 2 permuted terms)
            s = (nn * _SCALE - perm_sums[kn - 2 - prev]) / _SCALE
            if not max(d1, d2) - SOLVE_A_TOL <= s <= d1 + d2 + SOLVE_A_TOL:
                raise AssertionError(
                    f"sigma bounds violated at n={nn}: sigma={s}, d1={d1}, d2={d2}"
                )
            self.sigma.append(s)
            self.a.append(_solve_a(s, d1, d2))

    def permuted_labels(self, count: int) -> list[int]:
        """Source labels of the first ``count`` columns in working order."""
        self._check_count(count)
        return [self._labels[p] for p in self.pi[:count]]

    def permuted_values(self, count: int) -> list[float]:
        """Diagonal values of the first ``count`` columns in working order."""
        self._check_count(count)
        return self._perm_vals[:count]

    def _check_count(self, count: int) -> None:
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        if count > len(self.pi):
            raise ValueError(f"only {len(self.pi)} columns ordered so far, asked for {count}")

    # -- row emission ------------------------------------------------------

    @staticmethod
    def _root(x: float, snap: bool = False) -> float:
        if x < -1e-12:
            raise AssertionError(f"negative radicand {x}")
        if snap and x <= _SNAP_TOL:
            return 0.0
        return math.sqrt(max(x, 0.0))

    def _opening_pair(self, kp: int, ap: float, sp: float) -> list[float]:
        """The two entries a row shares with the previous row, whose closing
        pair is (u, -w) = (sqrt(ap), -sqrt(sp - ap)) on columns kp-2, kp-1.

        In exact arithmetic x = sqrt(d1 - ap) and y = sqrt(d2 - sp + ap) meet
        the balance equation u*x = w*y of _solve_a, so the rows are orthogonal.
        When one radicand is below _BALANCE_TOL, the smaller entry is derived
        from the other through that equation instead, which keeps the rows
        orthogonal whatever rounding residue the radicands carry; the column
        norms then move by about that residue. Residues that drift with the
        row count (constant 0.1, where float 0.1 != 1/10) eventually straddle
        _SNAP_TOL, and snapping only one entry of the pair to 0 would leave an
        overlap of ~1e-7.
        """
        d1, d2 = self._perm_vals[kp - 2], self._perm_vals[kp - 1]
        rx, ry = d1 - ap, d2 - sp + ap
        x, y = self._root(rx, snap=True), self._root(ry, snap=True)
        if min(rx, ry) <= _BALANCE_TOL:
            u, w = self._root(ap, snap=True), self._root(sp - ap, snap=True)
            if rx <= ry and u > 0.0:
                x = y * w / u
            elif ry < rx and w > 0.0:
                y = x * u / w
        return [x, y]

    def next_row(self) -> SparseRow:
        n = self.rows_emitted + 1
        self._ensure_rows(n)
        kn = self.k[n - 1]
        sig, a = self.sigma[n - 1], self.a[n - 1]
        # permuted values are clamped nonnegative, so the middle entries
        # need no radicand check
        if n == 1:
            start = 0
            vals = list(map(math.sqrt, self._perm_vals[: kn - 2]))
        else:
            kp = self.k[n - 2]
            start = kp - 2
            vals = self._opening_pair(kp, self.a[n - 2], self.sigma[n - 2])
            vals.extend(map(math.sqrt, self._perm_vals[kp : kn - 2]))
        vals.append(self._root(a, snap=True))
        vals.append(-self._root(sig - a, snap=True))
        squares = list(map(operator.mul, vals, vals))
        norm2 = math.fsum(squares)
        if abs(norm2 - 1.0) > ROW_NORM_TOL:
            raise AssertionError(f"row {n} norm^2 = {norm2}")
        row = SparseRow(n, start, tuple(vals))
        # the opening pair lands on the previous row's closing columns, and
        # every later entry opens a column
        mass = self._col_mass
        if n > 1:
            mass[start] += squares[0]
            mass[start + 1] += squares[1]
            del squares[:2]
        mass.extend(squares)
        self.rows_emitted = n
        return row


def completed_columns(stream: TetrisStream):
    """Count and squared norms of columns no future row will touch.

    After R emitted rows these are the permuted columns 0 .. k_R - 3; each
    squared norm equals the corresponding permuted diagonal value (that is
    the theorem being checked, so the accumulated value is returned rather
    than the target).
    """
    if stream.rows_emitted == 0:
        return 0, np.zeros(0)
    count = max(stream.k[stream.rows_emitted - 1] - 2, 0)
    return count, np.array(stream._col_mass[:count])


def row_products(stream: TetrisStream, rows: int):
    """``moves.pair_products`` of the first ``rows`` rows, in order, in
    source labels. ``stream`` must be fresh: its rows 1 .. ``rows`` are
    emitted here, and the next ``next_row`` gives row ``rows + 1``."""
    if stream.rows_emitted:
        raise ValueError(f"projection_prefix needs a fresh stream; {stream.rows_emitted} rows already emitted")
    if rows < 0:
        raise ValueError(f"rows must be nonnegative, got {rows}")
    emitted = [stream.next_row() for _ in range(rows)]
    labels = stream.permuted_labels(len(stream.pi))
    cols = chain.from_iterable(labels[row.start : row.start + len(row.values)] for row in emitted)
    vals = chain.from_iterable(row.values for row in emitted)
    return pair_products([len(row.values) for row in emitted], list(cols), list(vals))


def projection_prefix(stream: TetrisStream, rows: int) -> np.ndarray:
    """Sum of v v^T over the first ``rows`` rows, as a dense k_R x k_R block.

    ``stream`` must be fresh, as for ``row_products``, whose pair products
    are summed on the ranks of their labels: the axes go in ascending label,
    so the diagonal follows the input order on the touched positions.
    """
    i, j, w = row_products(stream, rows)
    labels = np.unique(i)
    return pair_sum(labels.size, labels.searchsorted(i), labels.searchsorted(j), w)
