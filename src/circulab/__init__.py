"""circulab: extreme singular values and condition numbers of random
circulant, Toeplitz, and Hankel matrices.

Structured-matrix spectral algorithms (FFT eigenvalues, LAPACK Jacobi SVD,
circulant embedding and its Schur block), arithmetic-structure verifiers
(lattice distances, LCD estimates, gcd census, Levy concentration), certified
sup-norm brackets for random trigonometric polynomials, and a reproducible
Monte Carlo harness tying them together.
"""

from .arithmetic import (
    ConcentrationEstimate,
    ConditionHReport,
    CosineVectorSpec,
    GcdCensus,
    LcdEstimate,
    LemmaCheck,
    condition_h_check,
    cosine_vector,
    dist_to_lattice,
    gcd_census,
    lcd_matrix2,
    lcd_vector,
    levy_concentration,
    verify_cosine_distance_full,
    verify_cosine_distance_half,
    vk_matrix,
)
from .experiments import (
    Distribution,
    ExperimentConfig,
    SummaryStats,
    TailEstimate,
    TrialRecord,
    run_condition_number,
    run_interlacing_suite,
    run_rectangular,
    run_sigma_max_tail,
    run_sigma_min_tail,
    run_table1,
    summarize,
    trial_stream,
    wilson_interval,
)
from .matrices import (
    CirculantSpec,
    CoefficientSequence,
    SymmetricCirculantSpec,
    ToeplitzSpec,
    embed_toeplitz,
    exchange_transform,
    expand_symmetric_circulant,
    fourier_matrix,
    materialize_circulant,
    materialize_toeplitz,
)
from .polynomials import (
    MaxModulusBracket,
    TrigPolynomial,
    evaluate_on_grid,
    max_modulus,
    salem_zygmund_ratio,
)
from .spectral import (
    ConditionReport,
    ConvergenceError,
    InterlacingReport,
    SchurBlock,
    SigmaMinResult,
    SingularEmbeddingError,
    build_schur_block,
    cauchy_interlacing_check,
    circulant_eigenvalues,
    circulant_extremes,
    circulant_extremes_rows,
    dense_svd,
    schur_block_oracle,
    schur_sigma_min,
    sigma_min_fast,
    symmetric_circulant_eigenvalues,
    verify_interlacing,
)

__version__ = "0.1.0"
