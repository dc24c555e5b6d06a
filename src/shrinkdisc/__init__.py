"""shrinkdisc: exact analysis of integro-differential operators that act
as automorphisms on spaces of Gevrey series over shrinking discs.

The pipeline: parse an operator expression, normal-order it, reduce to
the one-variable family, check the Newton-polygon and non-resonance
conditions, solve the coefficient recurrences exactly, and verify the
predicted growth of the solution table empirically.
"""
from .analysis import (
    ExponentReport,
    HypothesisError,
    NegativeLowerOrdinateError,
    NoDiagonalStratumError,
    ThetaOperator,
    analyze_operator,
    compute_m,
    exponents,
    principal_part,
    reduce_to_theta,
)
from .dsl import (
    NormalOperator,
    OperatorSyntaxError,
    UnknownParameterError,
    apply_operator,
    normal_order,
    parse,
    pretty,
)
from .growth import (
    AlphaFit,
    GrowthReport,
    LemmaReport,
    analyze_table,
    fit_alpha,
    fit_gevrey,
    lemma_suite,
    minimal_bound_constants,
    radius_estimate,
)
from .polygon import (
    ConditionVerdict,
    NewtonPolygon,
    build_polygon,
    check_conditions,
    first_positive_slope,
)
from .polynomial import Poly
from .resonance import (
    CertificateError,
    IndicialPolynomial,
    ResonanceCertificate,
    ResonanceError,
    certify,
    liouville_demo,
)
from .series import (
    ORD_INFINITE,
    Rational,
    SeriesTZ,
    SeriesZ,
)
from .solver import (
    AdversarialPair,
    ConditionError,
    NoAdversarialDirectionError,
    ResidualError,
    SolutionTable,
    adversarial,
    apply_full,
    solve_full,
    solve_theta,
    verify_sharpness,
)

__version__ = "0.1.0"
