"""Exact digit expansions, subword complexity, repetition exponents and
continued fractions for exactly-defined real numbers."""

from .words import (
    ComplexityProfile,
    Word,
    complexity_profile,
    fractional_power,
    gap_profile,
    occurrence_count,
)
from .repetition import (
    ExponentEstimate,
    RepetitionWitness,
    dio_brute_force,
    dio_estimate,
    ice_brute_force,
    ice_estimate,
    verify_witness,
)
from .spec import (
    FromCF,
    Mobius,
    Morphism,
    QuasiSturmianSpec,
    Rational,
    RealSpec,
    SeriesE,
    SeriesShallit,
    Surd,
    parse_morphism,
    parse_slope,
)
from .sturmian import (
    apply_morphism,
    letter_frequency_check,
    mechanical_word,
    morphic_length_check,
    quasi_sturmian_check,
    slope_bounds,
)
from .realnum import (
    CertificateError,
    DigitStream,
    Enclosure,
    PrecisionBudgetError,
    digits,
    enclosure,
    enclosure_from_digits,
    mobius,
)
from .contfrac import (
    CFExpansion,
    MuEstimate,
    bounded_pq_check,
    cf_from_enclosure,
    cf_of_rational,
    mu_estimate,
)
from .approx import (
    Approximant,
    DioMuReport,
    dio_mu_report,
    expansion_digits,
    verify_approximation,
    witness_to_approximant,
)

__version__ = "0.1.0"
