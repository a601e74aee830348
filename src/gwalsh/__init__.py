"""Generalized Walsh bases on [0, 1].

Orthonormal systems of step functions generated by N x N unitary
matrices with constant first row, with fast discrete transforms,
convergence and martingale diagnostics, and a two-party encoding
exchange built on companion matrix pairs.
"""

from .errors import (
    BadDimensionError,
    BadFirstRowError,
    BadRowError,
    BaseMismatchError,
    DegenerateDrawError,
    DegenerateEliminationError,
    DigitOverflowError,
    DimensionMismatchError,
    GwalshError,
    IncompatibleGridsError,
    NoConvergenceError,
    NoRealSolutionError,
    NotUnitaryError,
    NumericError,
    OutOfDomainError,
    OutOfRangeError,
    ResolutionTooCoarseError,
    ValidationError,
    ZeroSignalError,
)
from .matrix import (
    WalshMatrix,
    generate_n3,
    generate_random,
    load_matrix,
    save_matrix,
    validate,
)
from .basis import (
    CellIndex,
    digits,
    dirichlet_kernel,
    gram_defect,
    grid_matrix,
    kernel_deviation,
    m_eval,
    r_map,
    walsh_eval,
    walsh_on_grid,
)
from .transform import (
    CoefficientVector,
    Signal,
    count_multiplies,
    dwt_fast,
    dwt_naive,
    idwt,
    parseval_residual,
    random_signal,
    read_coefficients,
    read_signal,
    signal_from_digits,
    write_coefficients,
    write_signal,
)
from .series import (
    MartingaleReport,
    NormBoundReport,
    PartialSumReport,
    cell_average,
    convergence_sweep,
    martingale_check,
    norm_bound_check,
    partial_sum,
    write_sweep_csv,
)
from .protocol import (
    DirectoryChannel,
    ExchangeTranscript,
    InMemoryChannel,
    MaskedConstraintSystem,
    PairingReport,
    load_masked_system,
    load_transcript,
    mask_constraints,
    pairing_check_basis,
    pairing_check_rows,
    run_exchange,
    save_masked_system,
    save_transcript,
    solve_companion,
    solve_companion_numeric,
)

__version__ = "0.1.0"
