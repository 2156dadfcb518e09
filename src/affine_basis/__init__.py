"""Exact-arithmetic verification toolkit for combinatorial bases of affine
Lie algebra modules: the rank-2 symplectic affine algebra, its long-root
subalgebra, colored-partition monomial families, and the intertwiner-based
projection arguments relating them.  All claims are certified by integer or
rational linear algebra; nothing numeric is approximated."""

from .cartan import StructureTable, build_c2, a1_subalgebra, inner, table_hash
from .pbw import (
    BlockBasis,
    HighestWeightSpec,
    VermaModule,
    GEN_A1,
    GEN_C2,
    GEN_COLORS,
    straighten,
)
from .partitions import (
    A1Standard,
    C2FS,
    ColoredPartition,
    enumerate_admissible,
    ic_propagation,
    satisfies_dc,
    satisfies_ic_a1,
    satisfies_ic_c2fs,
)
from .verify import (
    DerivationTable,
    StepReport,
    t_apply,
    verify_c0_nonvanishing,
    verify_icprop,
    verify_independence,
    verify_spanning,
    verify_t_power,
    verify_translation,
)
from .intertwiner import (
    IntertwinerMap,
    TensorModule,
    TruncatedModule,
    build_w_ks,
    solve_w,
    verify_cross_model,
    verify_intertwiner,
    verify_projection_chain,
)

__version__ = "0.1.0"

# The one kernel; the benchmark's environment stamp reads it.
BACKEND = "python"

__all__ = [
    "A1Standard",
    "BACKEND",
    "BlockBasis",
    "C2FS",
    "ColoredPartition",
    "DerivationTable",
    "GEN_A1",
    "GEN_C2",
    "GEN_COLORS",
    "HighestWeightSpec",
    "IntertwinerMap",
    "StepReport",
    "StructureTable",
    "TensorModule",
    "TruncatedModule",
    "VermaModule",
    "a1_subalgebra",
    "build_c2",
    "build_w_ks",
    "enumerate_admissible",
    "ic_propagation",
    "inner",
    "satisfies_dc",
    "satisfies_ic_a1",
    "satisfies_ic_c2fs",
    "solve_w",
    "straighten",
    "t_apply",
    "table_hash",
    "verify_c0_nonvanishing",
    "verify_cross_model",
    "verify_icprop",
    "verify_independence",
    "verify_intertwiner",
    "verify_projection_chain",
    "verify_spanning",
    "verify_t_power",
    "verify_translation",
]
