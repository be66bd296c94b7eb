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

    The rank is the number of eigenvalues above 1/2 of the symmetric matrix
    that ``np.linalg.eigvalsh`` reads, the lower triangle of ``P``. When the
    defects prove that every one of those eigenvalues lies within 1/(4n) of
    0 or 1 (``_certified_rank``), that number is the rounded trace, and no
    eigensolver runs: a passing build verifies in the time of one matrix
    product. Otherwise (a perturbed, failing or non-finite matrix) the
    eigenvalues are computed and counted.
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
    sym, skew_norm = _norms(P - P.T)
    idem, defect_norm = _norms(P @ P - P)
    derr = float(np.max(np.abs(np.diagonal(P) - target)))
    tr = float(np.trace(P))
    rank = _certified_rank(n, tr, skew_norm, defect_norm, math.sqrt(float(np.vdot(P, P))))
    if rank is None:
        rank = int(np.count_nonzero(np.linalg.eigvalsh(P) > 0.5))
    return VerificationReport(sym, idem, derr, tr, rank, tol)


def _norms(M: np.ndarray) -> tuple[float, float]:
    """Max-norm and Frobenius norm of ``M``."""
    return float(np.max(np.abs(M))), math.sqrt(float(np.vdot(M, M)))


def _certified_rank(n: int, tr: float, skew_norm: float, defect_norm: float, p_norm: float) -> int | None:
    """``round(tr)`` when it provably counts the eigenvalues above 1/2, else None.

    ``skew_norm``, ``defect_norm`` and ``p_norm`` are the Frobenius norms of
    the computed P - P^T, P @ P - P and of P. Let A be the symmetric matrix
    on P's lower triangle and E = A - P, so ||E||_2 <= e = skew_norm / sqrt(2)
    and ||P||_2 <= f = p_norm. The
    true P^2 - P differs from the computed product by at most gamma_n f^2 in
    Frobenius norm (gamma_n = n u / (1 - n u), u the unit roundoff), and
    A^2 - A = (P^2 - P) + PE + EP + E^2 - E, so every eigenvalue mu of A has

        |mu^2 - mu| <= eps = defect_norm + gamma_n f^2 + e (2 f + e + 1).

    With eps < 1/4 each mu lies within 2 eps of 0 or 1, so the trace (which
    A shares with P) is within 2 n eps of the count above 1/2; the computed
    trace is off by at most gamma_n sqrt(n) f more. Asking for 1/4 where 1/2
    would do leaves room for the rounding of this bound itself and keeps
    every eigenvalue 1/4 away from 1/2, far beyond eigvalsh's own error. A
    NaN anywhere fails the comparison.
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
