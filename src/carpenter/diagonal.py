"""Diagonal sequences and the integer feasibility test for projection diagonals.

A candidate diagonal is a finite prefix of values in [0, 1], optionally
followed by an infinite tail in closed form (constant, or a capped power law).
Feasibility is decided by Kadison's criterion: with

    a = sum of the entries strictly below 1/2,
    b = sum of (1 - entry) over entries at or above 1/2,

a projection with that diagonal exists iff both sums are finite and a - b is
an integer, or at least one of the sums is infinite.

Infinite sums are detected symbolically (a divergent series is reported as
``math.inf`` without ever being accumulated) and serialized as the string
``"inf"``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

# Tolerance for the a - b integrality decision.
INTEGRALITY_TOL = 1e-9
# Accuracy contract for convergent tail sums, relative to max(1, |sum|).
TAIL_SUM_TOL = 1e-12

# Largest index boundary we are willing to scan when a power tail spends a long
# time at or above 1/2 before decaying. Beyond this the direct band summation
# would dominate the runtime, so the input is rejected as out of range.
_MAX_BAND = 50_000_000


@dataclass(frozen=True)
class ConstantTail:
    """Tail with every entry equal to ``c``."""

    c: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"constant tail value {self.c!r} outside [0, 1]")

    def value(self, i: int) -> float:
        return self.c

    def to_json_dict(self) -> dict:
        return {"kind": "constant", "c": self.c}


@dataclass(frozen=True)
class PowerTail:
    """Tail with entries min(c * i**-p, 1) for tail positions i = 1, 2, ..."""

    c: float
    p: float

    def __post_init__(self) -> None:
        if not self.c > 0.0:
            raise ValueError(f"power tail needs c > 0, got {self.c!r}")
        if not self.p > 0.0:
            raise ValueError(f"power tail needs p > 0, got {self.p!r}")

    def value(self, i: int) -> float:
        return min(self.c * float(i) ** (-self.p), 1.0)

    def to_json_dict(self) -> dict:
        return {"kind": "power", "c": self.c, "p": self.p}


Tail = ConstantTail | PowerTail


@dataclass(frozen=True)
class DiagonalSpec:
    """A finite prefix plus an optional closed-form infinite tail."""

    prefix: tuple[float, ...]
    tail: Tail | None = None

    def __init__(self, prefix, tail: Tail | None = None):
        entries = tuple(float(x) for x in prefix)
        for pos, x in enumerate(entries):
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"diagonal entry {x!r} at position {pos} outside [0, 1]")
        object.__setattr__(self, "prefix", entries)
        object.__setattr__(self, "tail", tail)

    @property
    def is_finite(self) -> bool:
        return self.tail is None

    def values(self) -> Iterator[float]:
        """Yield entries in order; never terminates when a tail is present."""
        yield from self.prefix
        if self.tail is not None:
            i = 1
            while True:
                yield self.tail.value(i)
                i += 1

    def materialize(self, n: int) -> np.ndarray:
        """First ``n`` entries as an array. Raises if the spec is shorter."""
        if self.tail is None and n > len(self.prefix):
            raise ValueError(f"spec has {len(self.prefix)} entries, asked for {n}")
        out = np.empty(n)
        out[: min(n, len(self.prefix))] = self.prefix[:n]
        for j in range(len(self.prefix), n):
            out[j] = self.tail.value(j - len(self.prefix) + 1)
        return out

    def to_json_dict(self) -> dict:
        return {
            "prefix": list(self.prefix),
            "tail": None if self.tail is None else self.tail.to_json_dict(),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "DiagonalSpec":
        if not isinstance(data, dict) or "prefix" not in data:
            raise ValueError("diagonal spec must be an object with a 'prefix' list")
        raw_tail = data.get("tail")
        tail: Tail | None
        if raw_tail is None:
            tail = None
        elif isinstance(raw_tail, dict) and raw_tail.get("kind") == "constant":
            tail = ConstantTail(float(raw_tail["c"]))
        elif isinstance(raw_tail, dict) and raw_tail.get("kind") == "power":
            tail = PowerTail(float(raw_tail["c"]), float(raw_tail["p"]))
        else:
            raise ValueError(f"unrecognized tail descriptor: {raw_tail!r}")
        return DiagonalSpec(data["prefix"], tail)


class Verdict(str, enum.Enum):
    CASE_I = "case_i"
    CASE_II = "case_ii"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class KadisonReport:
    """Outcome of the feasibility test, with the witness sums."""

    a: float
    b: float
    num_zeros: float
    num_ones: float
    verdict: Verdict

    @property
    def a_minus_b(self) -> float | None:
        if math.isinf(self.a) or math.isinf(self.b):
            return None
        return self.a - self.b

    def to_json_dict(self) -> dict:
        def enc(x):
            return "inf" if math.isinf(x) else x

        return {
            "a": enc(self.a),
            "b": enc(self.b),
            "num_zeros": enc(self.num_zeros),
            "num_ones": enc(self.num_ones),
            "a_minus_b": self.a_minus_b,
            "verdict": self.verdict.value,
        }


class TailSums(NamedTuple):
    sum_below_half: float
    sum_one_minus_above_half: float


def power_boundary(tail: PowerTail, threshold: float) -> int:
    """Largest tail index i with tail.value(i) >= threshold, 0 if none.

    Uses the same floating-point expression as ``value`` so the count is
    consistent with what a generator would materialize.
    """
    if tail.value(1) < threshold:
        return 0
    approx = (tail.c / threshold) ** (1.0 / tail.p)
    if approx > _MAX_BAND:
        raise ValueError(
            f"power tail stays above {threshold} past index {_MAX_BAND}; "
            "parameters out of supported range"
        )
    k = max(1, int(approx))
    while k > 1 and tail.value(k) < threshold:
        k -= 1
    while tail.value(k + 1) >= threshold:
        k += 1
    return k


def _power_band_sum(tail: PowerTail, lo: int, hi: int) -> float:
    """Sum of (1 - value(i)) for lo <= i <= hi, by direct chunked summation."""
    total = 0.0
    chunk = 1 << 16
    i = lo
    while i <= hi:
        j = min(hi, i + chunk - 1)
        idx = np.arange(i, j + 1, dtype=float)
        vals = np.minimum(tail.c * idx ** (-tail.p), 1.0)
        total += float(np.sum(1.0 - vals))
        i = j + 1
    return total


def tail_sums(spec: DiagonalSpec) -> TailSums:
    """Contribution of the tail to the two Kadison sums.

    Returns (sum of tail entries < 1/2, sum of 1 - entry over tail entries
    >= 1/2). Divergent sums come back as ``math.inf``; a convergent one is
    within ``TAIL_SUM_TOL * max(1, |sum|)`` of the true sum. The bound is
    relative because these sums reach 1e5 and more (c = 5e5, p = 1.2 gives
    a = 2.5e5), where a few ulps already exceed 1e-12.
    """
    tail = spec.tail
    if tail is None:
        return TailSums(0.0, 0.0)
    if isinstance(tail, ConstantTail):
        c = tail.c
        if c == 0.0 or c == 1.0:
            return TailSums(0.0, 0.0)
        if c < 0.5:
            return TailSums(math.inf, 0.0)
        return TailSums(0.0, math.inf)
    # Power tail: finitely many entries sit at or above 1/2, so the b side is
    # always a finite band sum. The a side converges exactly when p > 1, where
    # it equals c times a Hurwitz zeta value.
    i_half = power_boundary(tail, 0.5)
    i_one = power_boundary(tail, 1.0)
    b_part = _power_band_sum(tail, i_one + 1, i_half) if i_half > i_one else 0.0
    if tail.p <= 1.0:
        return TailSums(math.inf, b_part)
    from scipy.special import zeta  # costs ~0.3 s, so only power tails pay it

    a_part = tail.c * float(zeta(tail.p, i_half + 1))
    return TailSums(a_part, b_part)


def classify(spec: DiagonalSpec) -> KadisonReport:
    """Evaluate Kadison's criterion for the spec."""
    below = [x for x in spec.prefix if x < 0.5]
    above = [1.0 - x for x in spec.prefix if x >= 0.5]
    t = tail_sums(spec)
    a = math.inf if math.isinf(t.sum_below_half) else math.fsum(below) + t.sum_below_half
    b = math.inf if math.isinf(t.sum_one_minus_above_half) else math.fsum(above) + t.sum_one_minus_above_half

    num_zeros: float = sum(1 for x in spec.prefix if x == 0.0)
    num_ones: float = sum(1 for x in spec.prefix if x == 1.0)
    if isinstance(spec.tail, ConstantTail):
        if spec.tail.c == 0.0:
            num_zeros = math.inf
        elif spec.tail.c == 1.0:
            num_ones = math.inf
    elif isinstance(spec.tail, PowerTail):
        num_ones += power_boundary(spec.tail, 1.0)

    if math.isinf(a) or math.isinf(b):
        verdict = Verdict.CASE_II
    else:
        diff = a - b
        verdict = Verdict.CASE_I if abs(diff - round(diff)) <= INTEGRALITY_TOL else Verdict.INFEASIBLE
    return KadisonReport(a=a, b=b, num_zeros=num_zeros, num_ones=num_ones, verdict=verdict)


def complement_spec(spec: DiagonalSpec) -> DiagonalSpec:
    """Entrywise 1 - d. Only constant tails survive complementation."""
    if isinstance(spec.tail, PowerTail):
        raise ValueError("the complement of a power tail is not expressible as a tail")
    tail = None if spec.tail is None else ConstantTail(1.0 - spec.tail.c)
    return DiagonalSpec(tuple(1.0 - x for x in spec.prefix), tail)
