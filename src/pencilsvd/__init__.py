"""Quotient and restricted singular values via cross-product-free pencils.

The package builds the squared, augmented, and cross-product-free pencil
formulations of the ordinary/quotient/restricted singular value problems,
solves them with dense generalized eigensolvers, recovers singular values
and vectors from the spectra, predicts and verifies the canonical block
structure of each pencil, and ships an experiment harness measuring the
accuracy of each formulation on problems with prescribed condition
numbers and extended-precision ground truth.

The root re-exports the paper's workflow (build, solve, recover, generate,
sweep, canonical structure, matrix files) and the exceptions those
functions raise; everything else is imported from its module.
"""

from .bench import run_sweep, write_sweep_csv
from .eigensolve import (
    EigenSolution,
    NotDefiniteError,
    SingularPencilError,
    solve_general,
    solve_hpd,
)
from .genmat import GeneratorConfig, generate_qsvd, generate_rsvd
from .kcf import PartitionError, partition_for, predict_kcf, verify_reduction
from .matcore import read_matrix_text, write_matrix_text
from .pencils import (
    FORMULATIONS,
    Pencil,
    build_aug_qsvd,
    build_aug_rsvd,
    build_aug_svd,
    build_cpf_qsvd,
    build_cpf_rsvd,
    build_cpf_svd,
    build_sq_qsvd,
    build_sq_svd,
)
from .recovery import GroupingError, classify_spectrum, extract_vectors, group_quadruples

__all__ = [
    "EigenSolution",
    "FORMULATIONS",
    "GeneratorConfig",
    "GroupingError",
    "NotDefiniteError",
    "PartitionError",
    "Pencil",
    "SingularPencilError",
    "build_aug_qsvd",
    "build_aug_rsvd",
    "build_aug_svd",
    "build_cpf_qsvd",
    "build_cpf_rsvd",
    "build_cpf_svd",
    "build_sq_qsvd",
    "build_sq_svd",
    "classify_spectrum",
    "extract_vectors",
    "generate_qsvd",
    "generate_rsvd",
    "group_quadruples",
    "partition_for",
    "predict_kcf",
    "read_matrix_text",
    "run_sweep",
    "solve_general",
    "solve_hpd",
    "verify_reduction",
    "write_matrix_text",
    "write_sweep_csv",
]

__version__ = "0.1.0"
