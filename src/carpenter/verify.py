"""Independent checks: projection defects, row orthonormality, and an
empirical sampler for the necessity half of Kadison's integrality criterion.
"""

from __future__ import annotations

import json
import math
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


def check_projection(P: np.ndarray, d, tol: float = PROJECTION_TOL) -> VerificationReport:
    """Max-norm defects of ``P`` against the projection axioms and the
    target diagonal ``d``, plus the trace and a rank.

    The idempotence defect is the max-norm over every entry of P @ P - P.
    A built projection has a few nonzeros per row, so whenever ``P`` is
    finite with at most n^2 / 8 nonzeros and at most n^2 nonzero pairs both
    defects are read from its nonzeros (``_sparse_defects``): no n x n array
    is made besides the nonzero mask. A dense matrix (a perturbed one, as
    ``carpenter verify`` gets) and any matrix with a non-finite entry go
    through P - P^T and the dense product instead, so NaN and inf report as
    they always have. The
    two routes give the same symmetry defect bit for bit; the idempotence
    defects differ only by the rounding of dgemm's summation order.

    The rank is the number of eigenvalues above 1/2 of the symmetric matrix
    that ``np.linalg.eigvalsh`` reads, the lower triangle of ``P``. When the
    defects prove that every one of those eigenvalues lies within 1/(4n) of
    0 or 1 (``_certified_rank``), that number is the rounded trace, and no
    eigensolver runs: a passing build verifies in the time of one matrix
    product. Otherwise (a perturbed, failing or non-finite matrix) the
    eigenvalues are computed and counted (``_counted_rank``). A NaN or an
    infinity in the lower triangle gives rank 0 without an eigensolve; it
    also fails the symmetry or diagonal check.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {P.shape}")
    n = P.shape[0]
    target = np.asarray(list(d), dtype=float)
    if target.size != n:
        raise ValueError(f"diagonal length {target.size} does not match matrix size {n}")
    if n == 0:
        return VerificationReport(0.0, 0.0, 0.0, 0.0, 0, tol)
    defects = _sparse_defects(P)
    if defects is None:
        sym, skew_norm = _norms(P - P.T)
        p_norm = math.sqrt(float(np.vdot(P, P)))
        D = P @ P
        D -= P
        idem, defect_norm = _norms(D)
    else:
        sym, skew_norm, idem, defect_norm, p_norm = defects
    derr = float(np.max(np.abs(np.diagonal(P) - target)))
    tr = float(np.trace(P))
    rank = _certified_rank(n, tr, skew_norm, defect_norm, p_norm)
    if rank is None:
        rank = _counted_rank(P)
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
    return abs(float(max(M.max(), -M.min()))), math.sqrt(float(np.vdot(M, M)))


def _sparse_defects(P: np.ndarray):
    """Max-norms and Frobenius norms of P - P^T and P @ P - P, and the
    Frobenius norm of P, from the nonzeros of ``P``; None when ``P`` has a
    non-finite entry, more than n^2 / 8 nonzeros (their index array would be
    larger than the n x n nonzero mask) or more than n^2 nonzero pairs.
    Nonzero (i, k) pairs with every nonzero of row k, so the pair count is
    read off the nonzero counts of each row and column. A symmetric pattern
    with over n^2 / 8 nonzeros and n >= 64 has more than n^2 pairs anyway.

    Entry (i, j) of P - P^T is P[i, j] - P[j, i]: its max-norm is the
    largest over the nonzeros (i, j), and its squared Frobenius norm adds
    P[i, j]^2 once more for each nonzero whose mirror is zero, for (j, i).

    ``np.bincount`` adds each product P[i, k] * P[k, j] into its (i, j)
    slot one after another, k ascending, so every entry is a sequential sum
    of at most n products, as in the schoolbook triple loop (the products of
    a zero are exact zeros and are skipped). Rows go in blocks of about
    n^2 / 16 pairs, at least 4096 (so a small matrix is one block) and at
    most 2^15, and of at most 2^17 entries of the product (1 MB), so a
    block stays in cache. Each block has P's nonzeros in its rows
    subtracted in place, gives its max, -min and sum of squares, and is
    dropped: besides the n^2-byte nonzero mask nothing here grows as n^2.

    The max-norms equal the dense formulas' with the schoolbook product bit
    for bit; the Frobenius norms differ only in the order of summation.
    """
    n = P.shape[0]
    mask = P != 0.0
    if 8 * np.count_nonzero(mask) > n * n:
        return None
    flat = np.flatnonzero(mask)
    del mask
    rows, cols = np.divmod(flat, n)
    row_nnz = np.bincount(rows, minlength=n)
    col_nnz = np.bincount(cols, minlength=n)
    if int(col_nnz @ row_nnz) > n * n:
        return None
    vals = P.ravel()[flat]
    p_norm_sq = float(vals @ vals)
    if not math.isfinite(p_norm_sq):  # a non-finite entry makes the norm non-finite too
        return None
    mirror = P[cols, rows]
    diff = vals - mirror
    lone = vals[mirror == 0.0]
    sym = float(np.abs(diff).max(initial=0.0))
    skew_norm = math.sqrt(float(diff @ diff) + float(lone @ lone))

    nz_end = np.cumsum(row_nnz)
    starts = nz_end - row_nnz  # position of each row's first nonzero
    partners = row_nnz[cols]  # the pairs each nonzero (i, k) heads
    pair_end = np.concatenate(([0], np.cumsum(partners)))[nz_end]  # pairs through row r
    budget = max(4096, min(n * n // 16, 1 << 15))
    max_rows = max(1, (1 << 17) // n)
    idem = defect_sq = 0.0
    r0 = 0
    while r0 < n:
        done = int(pair_end[r0 - 1]) if r0 else 0
        r1 = max(r0 + 1, int(pair_end.searchsorted(done + budget, side="right")))
        r1 = min(r1, r0 + max_rows)
        a, b = starts[r0], nz_end[r1 - 1]
        counts = partners[a:b]
        # each pair's right factor: the nonzeros of row k, in order
        right = np.repeat(starts[cols[a:b]] - (np.cumsum(counts) - counts), counts)
        right += np.arange(right.size)
        key = np.repeat((rows[a:b] - r0) * n, counts)
        key += cols[right]
        w = np.repeat(vals[a:b], counts)
        w *= vals[right]
        # with no pair at all bincount returns int64 zeros
        D = np.bincount(key, weights=w, minlength=(r1 - r0) * n).astype(float, copy=False)
        D[flat[a:b] - r0 * n] -= vals[a:b]  # minus P's rows, zero off their nonzeros
        idem = max(idem, D.max(), -D.min())
        defect_sq += float(D @ D)
        r0 = r1
    return sym, skew_norm, abs(float(idem)), math.sqrt(defect_sq), math.sqrt(p_norm_sq)


def _certified_rank(n: int, tr: float, skew_norm: float, defect_norm: float, p_norm: float) -> int | None:
    """``round(tr)`` when it provably counts the eigenvalues above 1/2, else None.

    ``skew_norm``, ``defect_norm`` and ``p_norm`` are the Frobenius norms of
    the computed P - P^T, P @ P - P and of P: summed over the whole arrays
    on the dense route, over P's nonzeros and the product's row blocks on
    ``_sparse_defects``' route. Let A be the symmetric matrix
    on P's lower triangle and E = A - P, so ||E||_2 <= e = skew_norm / sqrt(2)
    and ||P||_2 <= f = p_norm. Each entry of the computed product is a sum of
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
