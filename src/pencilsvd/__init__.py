"""Quotient and restricted singular values via cross-product-free pencils.

The package builds the squared, augmented, and cross-product-free pencil
formulations of the ordinary/quotient/restricted singular value problems,
solves them with dense generalized eigensolvers, recovers singular values
and vectors from the spectra, predicts and verifies the canonical block
structure of each pencil, and ships an experiment harness measuring the
accuracy of each formulation on problems with prescribed condition
numbers and extended-precision ground truth.
"""

from .bench import (
    ExperimentRecord,
    SweepSummary,
    chordal,
    evaluate_sample,
    run_sample,
    run_sweep,
    worked_example,
    write_sweep_csv,
)
from .ddarith import CDD, DD
from .eigensolve import (
    EigenSolution,
    GeneralizedEigenvalue,
    NotDefiniteError,
    SingularPencilError,
    solve_general,
    solve_hpd,
)
from .genmat import (
    GeneratedProblem,
    GeneratorConfig,
    generate_qsvd,
    generate_rsvd,
    true_sigma_grid,
)
from .kcf import (
    KcfBlock,
    KcfStructure,
    LemmaReduction,
    PartitionError,
    QsvdPartition,
    RsvdPartition,
    SvdPartition,
    VerificationReport,
    lemma_pencil,
    lemma_reduce,
    partition_from_ranks,
    predict_kcf,
    qsvd_partition_from_ranks,
    spectrum_counts_check,
    svd_partition,
    verify_reduction,
)
from .matcore import (
    RankReport,
    haar_unitary,
    rank_with_tol,
    read_matrix_text,
    write_matrix_text,
)
from .pencils import (
    FORMULATIONS,
    Pencil,
    build_aug_qsvd,
    build_aug_rsvd,
    build_aug_svd,
    build_cpf_qsvd,
    build_cpf_rsvd,
    build_cpf_svd,
    build_qqqq,
    build_sq_qsvd,
    build_sq_svd,
    generic_pencil,
)
from .recovery import (
    Quadruple,
    RecoveredVectors,
    SingularTriplet,
    SpectrumClassification,
    classify_spectrum,
    extract_vectors,
    geometric_mean_sigma,
    group_quadruples,
)

__all__ = [
    "CDD",
    "DD",
    "EigenSolution",
    "ExperimentRecord",
    "FORMULATIONS",
    "GeneralizedEigenvalue",
    "GeneratedProblem",
    "GeneratorConfig",
    "KcfBlock",
    "KcfStructure",
    "LemmaReduction",
    "NotDefiniteError",
    "PartitionError",
    "Pencil",
    "QsvdPartition",
    "Quadruple",
    "RankReport",
    "RecoveredVectors",
    "RsvdPartition",
    "SingularPencilError",
    "SingularTriplet",
    "SpectrumClassification",
    "SvdPartition",
    "SweepSummary",
    "VerificationReport",
    "build_aug_qsvd",
    "build_aug_rsvd",
    "build_aug_svd",
    "build_cpf_qsvd",
    "build_cpf_rsvd",
    "build_cpf_svd",
    "build_qqqq",
    "build_sq_qsvd",
    "build_sq_svd",
    "chordal",
    "classify_spectrum",
    "evaluate_sample",
    "extract_vectors",
    "generate_qsvd",
    "generate_rsvd",
    "generic_pencil",
    "geometric_mean_sigma",
    "group_quadruples",
    "haar_unitary",
    "lemma_pencil",
    "lemma_reduce",
    "partition_from_ranks",
    "predict_kcf",
    "qsvd_partition_from_ranks",
    "rank_with_tol",
    "read_matrix_text",
    "run_sample",
    "run_sweep",
    "solve_general",
    "solve_hpd",
    "spectrum_counts_check",
    "svd_partition",
    "true_sigma_grid",
    "verify_reduction",
    "worked_example",
    "write_matrix_text",
    "write_sweep_csv",
]

__version__ = "0.1.0"
