"""Diagonals of projections: feasibility test and explicit constructions.

A sequence in [0, 1] is the diagonal of some orthogonal projection exactly
when its two defect sums (mass below 1/2, co-mass at or above 1/2) are
either both infinite or differ by an integer. This package decides that
criterion and, when it holds, builds a real symmetric idempotent matrix
with the requested diagonal: finite cases by a split at 1/2, a mass shift,
two finite tetris blocks and restoring rotations, divergent cases through a
lazily streamed sparse construction.
"""

from .builder import (
    BuildOptions,
    BuildResult,
    InfeasibleDiagonalError,
    build,
    build_case1,
    build_case2,
)
from .diagonal import (
    ConstantTail,
    DiagonalSpec,
    KadisonReport,
    PowerTail,
    Verdict,
    classify,
    complement_spec,
    tail_sums,
)
from .horn import MajorizationInput, horn_build
from .moves import (
    Move,
    MovePlan,
    OpsRequest,
    ops_restore,
    ops_shift,
)
from .tetris import (
    NeedsMoreTermsError,
    SparseRow,
    TetrisStream,
    completed_columns,
    projection_prefix,
)
from .verify import (
    VerificationReport,
    check_projection,
    check_rows,
    necessity_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "BuildOptions",
    "BuildResult",
    "ConstantTail",
    "DiagonalSpec",
    "InfeasibleDiagonalError",
    "KadisonReport",
    "MajorizationInput",
    "Move",
    "MovePlan",
    "NeedsMoreTermsError",
    "OpsRequest",
    "PowerTail",
    "SparseRow",
    "TetrisStream",
    "VerificationReport",
    "Verdict",
    "build",
    "build_case1",
    "build_case2",
    "check_projection",
    "check_rows",
    "classify",
    "complement_spec",
    "completed_columns",
    "horn_build",
    "necessity_oracle",
    "ops_restore",
    "ops_shift",
    "projection_prefix",
    "tail_sums",
]
