"""Plane rotations, and diagonal surgery repaired by them.

Every spectrum-preserving step in the package is one record, a :class:`Move`
(i, j, c, s): conjugation by the plane rotation on coordinates i and j with
cosine c and sine s. ``rotate_pair_inplace`` applies it to a dense
symmetric matrix, row pass then column pass, for ``rotate_to`` and
``MovePlan.replay``; ``rotate_to``, the one rotation the package chooses,
picks the rotation that lands the (i, i) entry on a target, applies it and
returns its Move; a :class:`MovePlan` lists Moves in order. Replayed on the
dense matrix they were made on (``ops_restore``'s, ``horn_build``'s diagonal
start), the Moves reproduce the result bit for bit.

``ops_shift`` edits a diagonal sequence directly, moving a prescribed amount
of mass off a low block (toward 0) and onto a high block (toward 1).
``ops_restore`` undoes such an edit on an operator level: given a symmetric
matrix whose diagonal is the shifted sequence, it applies targeted rotations
until the original diagonal reappears, and returns them as a MovePlan; its
pairing loop, ``_restore_inplace``, also serves ``build_case1``.

Every sum of v v^T is formed by one kernel: ``pair_products`` lists the
ordered pairs within each run of labelled values (a tetris row) and
``pair_entries`` adds them with one ``np.bincount``, each entry a sequential
sum from +0.0 in run order, exactly symmetric, kept as sorted nonzeros;
``pair_sum`` places them in a dense matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .verify import SparseMatrix

# Contract tolerances.
TARGET_TOL = 1e-11      # achieved diagonal entry after a targeted rotation
SHIFT_BUDGET_TOL = 1e-9  # consistency of requested transfer budgets
CLOSED_TOL = 1e-14      # a deficit or surplus this small needs no rotation


def rotate_pair_inplace(E: np.ndarray, i: int, j: int, c: float, s: float) -> None:
    """Conjugate ``E`` in place by the plane rotation G on coordinates (i, j).

    G maps e_i -> c*e_i + s*e_j and e_j -> -s*e_i + c*e_j, and the update is
    E <- G^T E G: rows i and j, then columns i and j of the row-rotated
    matrix. The new (i, i) entry is c^2*u + 2*c*s*w + s^2*v where
    u = E[i, i], v = E[j, j], w = E[i, j].

    ``E`` must be exactly symmetric (E == E.T entry for entry), as every
    matrix the package rotates is. Off the (i, j) block the column pass then
    gives the row pass's numbers, so columns i and j are copied from the new
    rows, and only the block's entries are formed by the column pass. The
    two passes round (i, j) and (j, i) differently, so the new (i, j) entry
    is mirrored onto (j, i), and ``E`` stays exactly symmetric.
    """
    ri = c * E[i] + s * E[j]
    rj = -s * E[i] + c * E[j]
    E[i], E[j] = ri, rj
    E[:, i], E[:, j] = ri, rj
    a, b, p, q = ri.item(i), ri.item(j), rj.item(i), rj.item(j)
    E[i, i] = c * a + s * b
    E[j, j] = -s * p + c * q
    E[i, j] = E[j, i] = -s * a + c * b


def pair_products(lens, labels, values):
    """Every ordered pair within each run, run by run and in order, as the
    arrays (rows, cols, w) of its labels and product; run r is the next
    ``lens[r]`` entries of ``labels`` and ``values``."""
    lens = np.asarray(lens, dtype=np.intp)
    labels = np.asarray(labels, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    first = np.add.accumulate(lens) - lens  # each run's first entry
    partners = lens.repeat(lens)  # the pairs each entry heads
    # each pair's right factor: the entries of its run, in order
    right = (first.repeat(lens) - (np.add.accumulate(partners) - partners)).repeat(partners)
    right += np.arange(right.size)
    w = values.repeat(partners)
    w *= values[right]
    return labels.repeat(partners), labels[right], w


def pair_entries(n: int, rows, cols, w) -> SparseMatrix:
    """The n x n sum with each w[p], in order, added at (rows[p], cols[p])
    to +0.0, as its nonzeros. The pairs are grouped by their row-major
    position: an ``argsort`` of the positions, a mask of where the sorted
    positions change and its running count give each pair its group's
    rank, the ``np.unique`` inverse without its second pass. One
    ``np.bincount`` adds each group in pair order."""
    keys = np.asarray(rows, dtype=np.int64) * n
    keys += cols
    order = keys.argsort()
    keys = keys[order]
    head = np.empty(keys.size, dtype=bool)  # the first pair of each group
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    slot = np.empty(keys.size, dtype=np.intp)
    slot[order] = np.add.accumulate(head, dtype=np.intp)
    slot -= 1
    keys = keys[head]
    sums = np.bincount(slot, w, minlength=keys.size).astype(float, copy=False)
    nonzero = sums != 0.0
    return SparseMatrix(n, keys[nonzero], sums[nonzero])


def pair_sum(n: int, rows, cols, w) -> np.ndarray:
    """The dense n x n matrix of ``pair_entries``: float zeros when there is
    no pair."""
    return pair_entries(n, rows, cols, w).toarray()


def _require_symmetric(E: np.ndarray) -> None:
    if not np.array_equal(E, E.T):
        raise ValueError("rotations need an exactly symmetric start matrix (E == E.T)")


@dataclass(frozen=True)
class OpsRequest:
    """A shift request: move ``eta0`` of diagonal mass from I0 onto I1.

    ``i0`` and ``i1`` are disjoint index lists into ``d`` with every I0 value
    at most every I1 value; ``eta0`` may not exceed what I0 can give up nor
    what I1 can absorb before hitting 1.
    """

    d: tuple[float, ...]
    i0: tuple[int, ...]
    i1: tuple[int, ...]
    eta0: float

    def __init__(self, d, i0, i1, eta0: float):
        object.__setattr__(self, "d", tuple(map(float, d)))
        object.__setattr__(self, "i0", tuple(map(int, i0)))
        object.__setattr__(self, "i1", tuple(map(int, i1)))
        object.__setattr__(self, "eta0", float(eta0))
        self._validate()

    def _validate(self) -> None:
        n = len(self.d)
        for k in self.i0 + self.i1:
            if not 0 <= k < n:
                raise ValueError(f"index {k} out of range for length-{n} diagonal")
        set0, set1 = set(self.i0), set(self.i1)
        if set0 & set1:
            raise ValueError("i0 and i1 overlap")
        if len(set0) != len(self.i0) or len(set1) != len(self.i1):
            raise ValueError("repeated index in i0 or i1")
        if self.eta0 < 0.0:
            raise ValueError(f"eta0 must be nonnegative, got {self.eta0}")
        low, high = list(map(self.d.__getitem__, self.i0)), list(map(self.d.__getitem__, self.i1))
        if low and high and max(low) > min(high) + 1e-12:
            raise ValueError(f"i0 values must sit below i1 values ({max(low)} > {min(high)})")
        give = math.fsum(low)
        take = math.fsum([1.0 - x for x in high])
        if self.eta0 > min(give, take) + SHIFT_BUDGET_TOL:
            raise ValueError(
                f"eta0={self.eta0} exceeds transferable mass (give={give}, absorb={take})"
            )


def ops_shift(req: OpsRequest) -> list[float]:
    """Apply the shift greedily and return the edited diagonal.

    Walks I0 in ascending index order driving entries toward 0 until ``eta0``
    is used up, then walks I1 in ascending order driving entries toward 1 by
    the same total amount.
    """
    d = list(req.d)
    remaining = req.eta0
    for k in sorted(req.i0):
        if remaining <= 0.0:
            break
        take = min(d[k], remaining)
        d[k] -= take
        remaining -= take
    remaining = req.eta0
    for k in sorted(req.i1):
        if remaining <= 0.0:
            break
        give = min(1.0 - d[k], remaining)
        d[k] += give
        remaining -= give
    return d


@dataclass(frozen=True)
class Move:
    """The plane rotation on coordinates (i, j) with cosine c and sine s."""

    i: int
    j: int
    c: float
    s: float

    def apply_inplace(self, E: np.ndarray) -> None:
        rotate_pair_inplace(E, self.i, self.j, self.c, self.s)


@dataclass
class MovePlan:
    """Ordered list of recorded rotations; replaying them on the matrix they
    were made on reproduces the result bit for bit."""

    moves: list[Move] = field(default_factory=list)

    def append(self, move: Move) -> None:
        self.moves.append(move)

    def __len__(self) -> int:
        return len(self.moves)

    def replay(self, start: np.ndarray) -> np.ndarray:
        """Apply the moves to a copy of ``start``, which must be exactly
        symmetric (ValueError otherwise)."""
        E = np.array(start, dtype=float)
        _require_symmetric(E)
        for move in self.moves:
            move.apply_inplace(E)
        return E

    def to_json_lines(self) -> str:
        return "\n".join(
            json.dumps({"i": m.i, "j": m.j, "c": m.c, "s": m.s})
            for m in self.moves
        )

    @staticmethod
    def from_json_lines(text: str) -> "MovePlan":
        plan = MovePlan()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            plan.append(Move(int(rec["i"]), int(rec["j"]), float(rec["c"]), float(rec["s"])))
        return plan


def _solve_rotation_angle(u: float, v: float, w: float, target: float) -> float:
    """Angle theta with cos^2*u + 2*cos*sin*w + sin^2*v = target.

    The attainable targets form the interval [lam-, lam+] of eigenvalues of
    [[u, w], [w, v]]. Of the solutions in (-pi/2, pi/2], the one smallest in
    absolute value is returned, preferring the positive one on a tie.
    """
    mid = 0.5 * (u + v)
    amp = math.hypot(0.5 * (u - v), w)
    if amp == 0.0:
        if abs(target - mid) > TARGET_TOL:
            raise ValueError(f"target {target} unattainable from a scalar 2x2 block")
        return 0.0
    gap = target - mid
    if abs(gap) > amp + TARGET_TOL:
        raise ValueError(
            f"target {target} outside attainable interval [{mid - amp}, {mid + amp}]"
        )
    phi = math.atan2(w, 0.5 * (u - v))
    gamma = math.acos(min(1.0, max(-1.0, gap / amp)))
    t1 = _half_turn((phi + gamma) / 2.0)
    t2 = _half_turn((phi - gamma) / 2.0)
    return t2 if abs(t2) < abs(t1) or (abs(t2) == abs(t1) and t2 > t1) else t1


def _half_turn(t: float) -> float:
    """``t`` moved by a multiple of pi into (-pi/2, pi/2]."""
    t = math.remainder(t, math.pi)
    if t <= -math.pi / 2:
        t += math.pi
    return t


def rotate_to(E: np.ndarray, i: int, j: int, target: float) -> Move:
    """Rotate coordinates (i, j) of ``E`` in place so the (i, i) entry lands
    on ``target``, and return the rotation as a Move.

    The spectrum is unchanged and only rows/columns i and j are affected; the
    (j, j) entry moves to E[i, i] + E[j, j] - target because the trace of the
    2x2 block is fixed. Raises ValueError when ``target`` lies outside the
    block's eigenvalue interval.
    """
    theta = _solve_rotation_angle(E.item(i, i), E.item(j, j), E.item(i, j), target)
    c, s = math.cos(theta), math.sin(theta)
    rotate_pair_inplace(E, i, j, c, s)
    return Move(i, j, c, s)


def ops_restore(
    E_tilde: np.ndarray,
    d_tilde,
    d,
    i0,
    i1,
) -> tuple[np.ndarray, MovePlan]:
    """Rotate the shifted diagonal ``d_tilde`` back to ``d`` on the matrix level.

    Maintains deficits d[i] - d_tilde[i] on I0 and surpluses d_tilde[j] - d[j]
    on I1, repeatedly pairing the lowest-index open deficit with the
    lowest-index open surplus and transferring the smaller of the two amounts
    with a targeted rotation. Feasibility of each rotation follows from the
    block ordering d_tilde[i] <= d[i] <= d[j] <= d_tilde[j]. ``E_tilde`` must
    be exactly symmetric (ValueError otherwise).
    """
    E = np.array(E_tilde, dtype=float)
    d_tilde = [float(x) for x in d_tilde]
    d = [float(x) for x in d]
    if len(d_tilde) != len(d) or E.shape != (len(d), len(d)):
        raise ValueError("shape mismatch between matrix and diagonals")
    _require_symmetric(E)
    if float(np.max(np.abs(np.diag(E) - np.asarray(d_tilde)))) > 1e-10:
        raise ValueError("matrix diagonal does not match d_tilde")

    for k in i0:
        if d[k] - d_tilde[k] < -1e-12:
            raise ValueError(f"I0 index {k} moved in the wrong direction for restoration")
    for k in i1:
        if d_tilde[k] - d[k] < -1e-12:
            raise ValueError(f"I1 index {k} moved in the wrong direction for restoration")
    plan = _restore_inplace(E, d_tilde, d, i0, i1)
    residual = float(np.max(np.abs(np.diag(E) - np.asarray(d))))
    if residual > 1e-9:
        raise AssertionError(f"restoration left diagonal residual {residual}")
    return E, plan


def _restore_inplace(E: np.ndarray, d_tilde, d, i0, i1) -> MovePlan:
    """The pairing loop of ``ops_restore``, on ``E`` itself and with no
    check of ``E``: each rotation costs rows and columns i and j of ``E``.
    Raises ValueError when the deficits and surpluses do not balance."""
    deficits = [(k, d[k] - d_tilde[k]) for k in sorted(i0) if d[k] - d_tilde[k] > CLOSED_TOL]
    surpluses = [(k, d_tilde[k] - d[k]) for k in sorted(i1) if d_tilde[k] - d[k] > CLOSED_TOL]
    total_def = math.fsum(amt for _, amt in deficits)
    total_sur = math.fsum(amt for _, amt in surpluses)
    if abs(total_def - total_sur) > SHIFT_BUDGET_TOL:
        raise ValueError(
            f"deficits ({total_def}) and surpluses ({total_sur}) do not balance"
        )

    plan = MovePlan()
    a = b = 0
    while a < len(deficits) and b < len(surpluses):
        ki, delta = deficits[a]
        kj, eps = surpluses[b]
        t = min(delta, eps)
        if t > CLOSED_TOL:
            plan.append(rotate_to(E, ki, kj, E.item(ki, ki) + t))
        delta -= t
        eps -= t
        if delta <= CLOSED_TOL:
            a += 1
        else:
            deficits[a] = (ki, delta)
        if eps <= CLOSED_TOL:
            b += 1
        else:
            surpluses[b] = (kj, eps)
    return plan
