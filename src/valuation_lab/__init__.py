"""Exact invariants and bounds for divisorial valuations of the plane."""

from .bounds import (
    BoundReport,
    MultiValuation,
    TailComparison,
    TonoValuation,
    ValuationBundle,
    bound_report,
    combinatorial_lambda_bound,
    degree_lower_bound,
    delta0,
    lambda_lower_bound,
    multi_ratio_bound,
    multi_valuation,
    satellite_tail_comparison,
    supraminimal_certificate,
    tono_family,
    valuation_bundle,
)
from .configurations import (
    MAX_LISTED_POINTS,
    Configuration,
    block_decomposition,
    build_configuration,
    classify_points,
    extend_with_satellite_tail,
)
from .errors import (
    ChainTooLongError,
    FileFormatError,
    InvalidConfigurationError,
    ReconstructionError,
    ValuationError,
    VerificationError,
)
from .invariants import (
    InvariantRecord,
    MultiplicityVector,
    curvette_vector,
    from_maximal_contact,
    invariant_record,
    maximal_contact_values,
    multiplicity_sequence,
    noether_pairing,
    normalized_volume,
    puiseux_exponents,
)
from .surface import (
    AffinePolynomial,
    HirzebruchClass,
    NpiResult,
    hirzebruch_class_of_polynomial,
    intersect_hirzebruch,
    lambda_divisor,
    nef_on_generators,
    npi_check,
)

__version__ = "0.1.0"
