"""superserre: Serre-type presentations of the simple contragredient Lie
superalgebras, with exact machine verification against the root systems."""

from .scalars import ALPHA, ONE, Scalar, ZERO, parse_scalar
from .rootdata import (
    SimpleSystem,
    WeightVector,
    build_root_datum,
    distinguished_simple_system,
    enumerate_simple_systems,
    odd_reflection,
    positive_roots,
)
from .cartan_dynkin import build_diagram, cartan_matrix, parse_diagram, serialize_diagram
from .freelie import free_dimension, lower_terms
from .serre import Presentation, SerrePolynomial, higher_order_serre_elements, presentation, standard_serre_elements
from .quotient import GradedQuotientReport, check_lowering_stability, quotient_dimensions
from .verify import (
    compare_z_grading,
    necessity_survey,
    necessity_test,
    survey_presentation,
    verify_presentation,
)

__all__ = [
    "ALPHA",
    "ONE",
    "ZERO",
    "Scalar",
    "parse_scalar",
    "WeightVector",
    "SimpleSystem",
    "build_root_datum",
    "distinguished_simple_system",
    "enumerate_simple_systems",
    "odd_reflection",
    "positive_roots",
    "cartan_matrix",
    "build_diagram",
    "serialize_diagram",
    "parse_diagram",
    "free_dimension",
    "lower_terms",
    "SerrePolynomial",
    "Presentation",
    "standard_serre_elements",
    "higher_order_serre_elements",
    "presentation",
    "GradedQuotientReport",
    "quotient_dimensions",
    "check_lowering_stability",
    "verify_presentation",
    "necessity_test",
    "necessity_survey",
    "survey_presentation",
    "compare_z_grading",
]

__version__ = "0.1.0"
