"""Independent checks: projection defects, row orthonormality, and an
empirical sampler for the necessity half of Kadison's integrality criterion.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

PROJECTION_TOL = 1e-9
ORACLE_INTEGRALITY_TOL = 1e-8


@dataclass(frozen=True)
class VerificationReport:
    symmetry_defect: float
    idempotence_defect: float
    diagonal_max_error: float
    trace: float
    estimated_rank: int
    tol: float

    @property
    def passes(self) -> dict[str, bool]:
        return {
            "symmetry": self.symmetry_defect <= self.tol,
            "idempotence": self.idempotence_defect <= self.tol,
            "diagonal": self.diagonal_max_error <= self.tol,
        }

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())

    def to_json_dict(self) -> dict:
        return {
            "symmetry_defect": self.symmetry_defect,
            "idempotence_defect": self.idempotence_defect,
            "diagonal_max_error": self.diagonal_max_error,
            "trace": self.trace,
            "estimated_rank": self.estimated_rank,
            "tol": self.tol,
            "pass": self.passes,
            "all_pass": self.all_pass,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """An n x n matrix held as its stored entries in row-major order (a
    build stores its nonzeros): ``keys`` are the flat positions i * n + j,
    strictly increasing, and ``values`` the entries there; every other
    entry is +0.0. ``len`` gives n, as it does for the dense array. The
    constructor checks that form, in one pass over the keys, and raises
    ValueError on keys that are not integers, not sorted, repeated or
    outside [0, n^2), and on values that do not pair with the keys one to
    one; everything that reads the entries relies on it."""

    n: int
    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        n = operator.index(self.n)
        keys, values = np.asarray(self.keys), np.asarray(self.values, dtype=float)
        if n < 0:
            raise ValueError(f"matrix size must be nonnegative, got {n}")
        if keys.ndim != 1 or values.shape != keys.shape:
            raise ValueError(f"expected one-dimensional keys and values alike, got {keys.shape}, {values.shape}")
        if keys.size == 0:
            keys = keys.astype(np.int64)
        elif keys.dtype.kind not in "iu":
            raise ValueError(f"keys must be integers, got {keys.dtype}")
        elif not (keys[0] >= 0 and keys[-1] < n * n and (keys[1:] > keys[:-1]).all()):
            raise ValueError(f"keys must be strictly increasing positions in [0, {n * n})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.n

    @staticmethod
    def from_dense(P: np.ndarray, keep_negative_zeros: bool = False) -> "SparseMatrix":
        """The entries of the square array ``P`` other than zeros, or other
        than +0.0 when ``keep_negative_zeros`` is set."""
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {P.shape}")
        # flatnonzero(P)'s keys at a fraction of its cost, from a boolean
        # mask of 64 kB at a time, never n^2 bytes
        flat, step = P.ravel(), 1 << 16
        keys = [np.empty(0, dtype=np.intp)]
        for a in range(0, flat.size, step):
            nonzero = flat[a : a + step] != 0.0
            if keep_negative_zeros:
                nonzero |= np.signbit(flat[a : a + step])
            keys.append(np.flatnonzero(nonzero) + a)
        keys = np.concatenate(keys)
        return SparseMatrix(P.shape[0], keys, flat[keys])

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """The row and the column of each entry."""
        rows = self.keys // max(self.n, 1)
        return rows, self.keys - rows * self.n

    def block(self, index: np.ndarray) -> np.ndarray:
        """The dense submatrix on the rows and columns ``index``, which
        increase."""
        rows, cols = self.coords()
        local = np.full(self.n, -1)  # each index's position in ``index``
        local[index] = np.arange(index.size)
        inside = (local[rows] >= 0) & (local[cols] >= 0)
        E = np.zeros((index.size, index.size))
        E[local[rows[inside]], local[cols[inside]]] = self.values[inside]
        return E

    def with_block(self, index: np.ndarray, E: np.ndarray) -> "SparseMatrix":
        """This matrix with its submatrix on the rows and columns ``index``
        (as in ``block``) replaced by ``E``, exact zeros of ``E`` dropped;
        the entries off the block stay where they are, and the block's land
        among them in order."""
        n, m = self.n, index.size
        rows, cols = self.coords()
        on = np.zeros(n, dtype=bool)
        on[index] = True
        outside = ~(on[rows] & on[cols])
        kept = self.keys[outside]
        E = E.ravel()
        put = np.flatnonzero(E)
        new_keys = index[put // m] * n + index[put % m]
        land = kept.searchsorted(new_keys) + np.arange(put.size)
        rest = np.ones(kept.size + put.size, dtype=bool)
        rest[land] = False
        keys = np.empty(rest.size, dtype=np.int64)
        keys[rest], keys[land] = kept, new_keys
        values = np.empty(rest.size)
        values[rest], values[land] = self.values[outside], E[put]
        return SparseMatrix(n, keys, values)

    def toarray(self) -> np.ndarray:
        P = np.zeros(self.n * self.n)
        P[self.keys] = self.values
        return P.reshape(self.n, self.n)

    def diagonal(self) -> np.ndarray:
        diag = np.zeros(self.n)
        on = self.keys % (self.n + 1) == 0  # i * n + i
        diag[self.keys[on] // (self.n + 1)] = self.values[on]
        return diag


def check_projection(P, d, tol: float = PROJECTION_TOL) -> VerificationReport:
    """Max-norm defects of ``P`` against the projection axioms and the
    target diagonal ``d``, plus the trace and a rank.

    ``P`` is a dense array or a ``SparseMatrix``; both give the same report
    for the same matrix. The idempotence defect is the max-norm over every
    entry of P @ P - P. A built projection has a few nonzeros per row, so
    whenever ``P`` is finite with at most n^2 / 8 nonzeros and at most n^2
    nonzero pairs, every defect, the diagonal and the trace are read from
    its nonzeros (``_sparse_defects``): no n x n array is made. A dense
    array with that few nonzeros is turned into a ``SparseMatrix`` once, by
    ``np.flatnonzero``, before anything is read. A dense matrix (a perturbed
    one, as ``carpenter verify`` gets) and any matrix with a non-finite
    entry go through P - P^T and the dense product instead, so NaN and inf
    report as they always have. The two routes give the same symmetry
    defect bit for bit; the idempotence defects differ only by the rounding
    of dgemm's summation order.

    The rank is the number of eigenvalues above 1/2 of the symmetric matrix
    that ``np.linalg.eigvalsh`` reads, the lower triangle of ``P``. When the
    defects prove that every one of those eigenvalues lies within 1/(4n) of
    0 or 1 (``_certified_rank``), that number is the rounded trace, and no
    eigensolver runs: a passing build verifies in the time of one sparse
    product. Otherwise (a perturbed, failing or non-finite matrix) the
    eigenvalues are computed and counted (``_counted_rank``). A NaN or an
    infinity in the lower triangle gives rank 0 without an eigensolve; it
    also fails the symmetry or diagonal check.
    """
    if isinstance(P, SparseMatrix):
        n, dense, S = P.n, None, P
    else:
        dense = np.asarray(P, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {dense.shape}")
        n = dense.shape[0]
        S = SparseMatrix.from_dense(dense) if 8 * np.count_nonzero(dense) <= n * n else None
    target = np.asarray(list(d), dtype=float)
    if target.size != n:
        raise ValueError(f"diagonal length {target.size} does not match matrix size {n}")
    if n == 0:
        return VerificationReport(0.0, 0.0, 0.0, 0.0, 0, tol)
    defects = None if S is None else _sparse_defects(S)
    if defects is None:
        if dense is None:
            dense = S.toarray()
        sym, skew_norm = _norms(dense - dense.T)
        p_norm = math.sqrt(float(np.vdot(dense, dense)))
        D = dense @ dense
        D -= dense
        idem, defect_norm = _norms(D)
    else:
        sym, skew_norm, idem, defect_norm, p_norm = defects
    diag = S.diagonal() if dense is None else dense.diagonal()
    derr = float(np.maximum.reduce(np.abs(diag - target)))
    tr = float(np.add.reduce(diag))
    rank = _certified_rank(n, tr, skew_norm, defect_norm, p_norm)
    if rank is None:
        rank = _counted_rank(S.toarray() if dense is None else dense)
    return VerificationReport(sym, idem, derr, tr, rank, tol)


def _counted_rank(P: np.ndarray) -> int:
    """The number of eigenvalues above 1/2 of the symmetric matrix on the
    lower triangle of ``P``, which ``np.linalg.eigvalsh`` reads; 0 when that
    triangle holds a NaN or an infinity, or the eigensolver does not converge:
    no eigenvalue is then known to exceed 1/2. Whether LAPACK raises, returns
    NaN or returns numbers on a non-finite entry varies with the matrix, so
    such a triangle never reaches it."""
    if not np.isfinite(np.tril(P)).all():
        return 0
    try:
        return int(np.count_nonzero(np.linalg.eigvalsh(P) > 0.5))
    except np.linalg.LinAlgError:
        return 0


def _norms(M: np.ndarray) -> tuple[float, float]:
    """Max-norm and Frobenius norm of ``M``, without an |M| copy (``abs``
    turns the -0.0 of an all-zero ``M`` into 0.0)."""
    top, bottom = np.maximum.reduce(M, axis=None), np.minimum.reduce(M, axis=None)
    return abs(float(max(top, -bottom))), math.sqrt(float(np.vdot(M, M)))


def _sparse_defects(P: SparseMatrix):
    """Max-norms and Frobenius norms of P - P^T and P @ P - P, and the
    Frobenius norm of P, from the nonzeros of ``P``; None when ``P`` has a
    non-finite entry, more than n^2 / 8 nonzeros
    (a dense matrix is cheaper to multiply densely) or more than n^2
    nonzero pairs. Nonzero (i, k) pairs with every nonzero of row k, so the
    pair count is read off the nonzero counts of each row and column. A
    symmetric pattern with over n^2 / 8 nonzeros and n >= 64 has more than
    n^2 pairs anyway.

    Entry (i, j) of P - P^T is P[i, j] - P[j, i], the mirror found by
    binary search among the sorted keys: its max-norm is the largest over
    the nonzeros (i, j), and its squared Frobenius norm adds P[i, j]^2 once
    more for each nonzero whose mirror is zero, for (j, i).

    ``np.add.at`` adds each product P[i, k] * P[k, j] into its (i, j) slot
    one after another, k ascending, and then -P[i, j], so every entry of
    P @ P - P is a sequential sum of at most n products from +0.0, as in
    the schoolbook triple loop (the products of a zero are exact zeros and
    are skipped), less P's entry. Rows go in blocks of at most 8192 pairs
    (or one row) and of at most n^2 / 32 entries of the product, at least
    2^15 (so a small matrix is one block) and at most 2^20, in one reused
    buffer: a block is read back at the entries it touched, each once, for
    their max, -min and sum of squares, and zeroed there again. When the
    touched positions are a quarter of the block's rows or more, the rows
    are read whole instead, which skips the pass that finds each touched
    entry once: at n = 100 to 300, where one block holds every row, that
    takes a quarter to a third off ``_sparse_defects`` (measured on built
    projections; from n = 500 on the two reads cost the same). Every other entry of
    P @ P - P is an exact zero, so nothing here grows as n^2.

    The max-norms equal the dense formulas' with the schoolbook product bit
    for bit; the Frobenius norms differ only in the order of summation.
    """
    n, keys, vals = P.n, P.keys, P.values
    if 8 * keys.size > n * n:
        return None
    rows, cols = P.coords()
    row_nnz = np.bincount(rows, minlength=n)
    if int(np.bincount(cols, minlength=n) @ row_nnz) > n * n:
        return None
    p_norm_sq = float(vals @ vals)
    if not math.isfinite(p_norm_sq):  # a non-finite entry makes the norm non-finite too
        return None
    mirror_keys = cols * n + rows
    del rows
    at = np.minimum(keys.searchsorted(mirror_keys), keys.size - 1)
    mirror = np.where(keys[at] == mirror_keys, vals[at], 0.0)
    del mirror_keys, at
    diff = vals - mirror
    lone = vals[mirror == 0.0]
    sym = float(np.abs(diff).max(initial=0.0))
    skew_norm = math.sqrt(float(diff @ diff) + float(lone @ lone))
    del mirror, diff, lone

    nz_end = np.cumsum(row_nnz)
    partners = row_nnz[cols]  # the pairs each nonzero (i, k) heads
    first_pair = np.cumsum(partners)
    pair_end = np.concatenate(([0], first_pair))[nz_end]  # pairs through row r
    first_pair -= partners
    # a pair's right factor is this plus the pair's index: the nonzeros of
    # row k, in order
    right_base = (nz_end - row_nnz)[cols] - first_pair
    del first_pair
    max_rows = max(1, min(max(1 << 15, n * n // 32), 1 << 20) // n)
    D = np.zeros(min(max_rows, n) * n)
    idem = defect_sq = 0.0
    r0 = 0
    while r0 < n:
        done = int(pair_end[r0 - 1]) if r0 else 0
        r1 = max(r0 + 1, int(pair_end.searchsorted(done + 8192, side="right")))
        r1 = min(r1, r0 + max_rows, n)
        a, b = (int(nz_end[r0 - 1]) if r0 else 0), int(nz_end[r1 - 1])
        counts = partners[a:b]
        right = np.repeat(right_base[a:b] + done, counts)
        right += np.arange(right.size)
        local = keys[a:b] - r0 * n  # (i - r0) * n + j for each nonzero (i, j)
        touched = np.concatenate((np.repeat(local - cols[a:b], counts) + cols[right], local))
        w = np.concatenate((np.repeat(vals[a:b], counts) * vals[right], -vals[a:b]))
        np.add.at(D, touched, w)
        whole = 4 * touched.size >= (r1 - r0) * n  # the rows are cheaper to read whole
        if whole:
            block = D[: (r1 - r0) * n]
        else:
            block = D[touched]
            # each touched entry once: of the positions that write one
            # slot, exactly one reads its own index back
            seq = np.arange(touched.size, dtype=float)
            D[touched] = seq
            block = block[D[touched] == seq]
            D[touched] = 0.0
        idem = max(idem, block.max(initial=0.0), -block.min(initial=0.0))
        defect_sq += float(block @ block)
        if whole:
            block[:] = 0.0
        r0 = r1
    return sym, skew_norm, abs(float(idem)), math.sqrt(defect_sq), math.sqrt(p_norm_sq)


def _certified_rank(n: int, tr: float, skew_norm: float, defect_norm: float, p_norm: float) -> int | None:
    """``round(tr)`` when it provably counts the eigenvalues above 1/2, else None.

    ``skew_norm``, ``defect_norm`` and ``p_norm`` are the Frobenius norms of
    the computed P - P^T, P @ P - P and of P: summed over the whole arrays
    on the dense route; on ``_sparse_defects``' route over P's nonzeros and
    the entries of P @ P - P that a pair or a nonzero of P touches, each
    once, every other entry being an exact zero: the same norms summed in
    another order, not bounds standing in for them. Let A be the symmetric
    matrix on P's lower triangle and E = A - P, so
    ||E||_2 <= e = skew_norm / sqrt(2) and ||P||_2 <= f = p_norm. Each entry of the computed product is a sum of
    at most n products, whether dgemm forms it or ``_sparse_defects`` adds the
    nonzero ones in sequence, so it is off by at most gamma_n times the sum
    of the products' magnitudes (gamma_n = n u / (1 - n u), u the unit
    roundoff): the true P^2 - P differs from the computed one by at most
    gamma_n f^2 in Frobenius norm. And
    A^2 - A = (P^2 - P) + PE + EP + E^2 - E, so every eigenvalue mu of A has

        |mu^2 - mu| <= eps = defect_norm + gamma_n f^2 + e (2 f + e + 1).

    With eps < 1/4 each mu lies within 2 eps of 0 or 1, so the trace (which
    A shares with P) is within 2 n eps of the count above 1/2; the computed
    trace is off by at most gamma_n sqrt(n) f more. Asking for 1/4 where 1/2
    would do leaves a 2x margin: it covers the rounding of this bound and of
    the three norms, whose sums of at most n^2 squares are off by a relative
    n^2 u or less in either summation order, and it keeps every eigenvalue
    1/4 away from 1/2, far beyond eigvalsh's own error. A NaN anywhere fails
    the comparison.
    """
    u = np.finfo(float).eps / 2.0
    gamma = n * u / (1.0 - n * u)
    e = skew_norm / math.sqrt(2.0)
    eps = defect_norm + gamma * p_norm * p_norm + e * (2.0 * p_norm + e + 1.0)
    if 2.0 * n * eps + gamma * math.sqrt(n) * p_norm <= 0.25:
        return round(tr)
    return None


def check_rows(rows) -> float:
    """Max-norm deviation of the rows' Gram matrix from the identity.

    Accepts anything with ``start`` and ``values`` attributes (sparse rows)
    or plain dense vectors. Only pairs of rows whose supports overlap are
    multiplied: after sorting by first column, the partners of a row are the
    rows that start before it ends. Nothing assumes a band structure, and
    every other Gram entry is an exact zero.
    """
    spans = []
    for row in rows:
        if hasattr(row, "values") and hasattr(row, "start"):
            start, vals = row.start, list(row.values)
        else:
            start, vals = 0, list(row)
        spans.append((start, start + len(vals), vals))
    spans.sort(key=lambda span: span[0])
    worst = 0.0
    for i, (start, end, vals) in enumerate(spans):
        worst = max(worst, abs(math.fsum(x * x for x in vals) - 1.0))
        for j in range(i + 1, len(spans)):
            other, other_end, other_vals = spans[j]
            if other >= end:
                break
            overlap = zip(vals[other - start : other_end - start], other_vals)
            worst = max(worst, abs(math.fsum(x * y for x, y in overlap)))
    return worst


def necessity_oracle(n: int, rank: int, trials: int, seed: int = 0) -> bool:
    """Empirical test of the integrality obstruction on random projections.

    Samples Haar-like random orthogonal matrices (QR of a Gaussian matrix,
    with the R-diagonal sign folded into Q for determinism), forms the rank-
    ``rank`` projection onto the leading columns, and checks that
    a - b = sum of small diagonal entries minus co-sum of large ones is an
    integer within 1e-8. Any failure would indicate a bug in the sampler or
    the criterion, so the return value should always be True.
    """
    if not 0 <= rank <= n:
        raise ValueError(f"rank {rank} outside [0, {n}]")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        A = rng.standard_normal((n, n))
        Q, R = np.linalg.qr(A)
        signs = np.sign(np.diagonal(R))
        signs[signs == 0.0] = 1.0
        Q = Q * signs
        B = Q[:, :rank]
        diag = np.einsum("ij,ij->i", B, B)
        small = diag < 0.5
        a = math.fsum(diag[small].tolist())
        b = math.fsum((1.0 - diag[~small]).tolist())
        if abs((a - b) - round(a - b)) > ORACLE_INTEGRALITY_TOL:
            return False
    return True
