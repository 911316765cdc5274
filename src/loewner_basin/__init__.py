"""Contracting evolutions on the unit ball of C^q and their limit maps.

The package studies vector fields h(z, t) = A(t) z + O(|z|^2) whose
real inner product Re<h(z), z> is positive, the contracting flows
z' = -h(z, t) they drive, two-sided modulus decay estimates in terms of
the Hermitian-part eigenvalue bounds of A(t), a unit-mass time
discretization with an explicit contraction budget, and the normalized
limit maps assembled from inverse linearizations along that
discretization.

Modules
-------
linear    matrix analysis: Hermitian bounds, spectra, mass integrals,
          hypothesis classification, transition matrices
fields    admissible fields, built-in families, sampling checks,
          the JSON field-file format
flow      the evolution operator, decay-bound verification, order-2
          jets of the flow at the origin
schedule  unit-mass times and the mu/nu contraction budget
chain     the normalized limit maps and their consistency checks
cli       the ``loewner-basin`` command line tool
"""

from .chain import ChainEvaluator, ChainValue, RangeSample
from .errors import (ChainUnavailableError, DegenerateTransitionError,
                     EscapeError, FieldRejectedError, HorizonExhaustedError,
                     HypothesisViolationError, InvalidInputError,
                     LoewnerError, NumericalFailureError,
                     ScheduleRejectedError, StiffnessError,
                     UnknownFamilyError)
from .fields import (C_of, ClassNReport, FieldSpec, GrowthReport,
                     GurganusReport, SamplePlan, builtin_corpus,
                     builtin_field, c_of, class_n_check, growth_check,
                     gurganus_check, load_field_file, parse_field_config,
                     remainder_order_check)
from .flow import (DecayReport, FlowRequest, FlowResult, Jet2,
                   decay_bounds_check, evolve, flow_point, jet2_transition,
                   semigroup_defect, trace, trajectories)
from .linear import (GRID_MARGIN, MAX_DIM, HermitianBounds, HypothesisReport,
                     InverseTransitionProduct, LinearPath, Witness,
                     classify_hypotheses, ell_estimate, hermitian_bounds,
                     operator_norm, spectral_abscissa, transition_matrix)
from .schedule import (ContractionReport, Schedule, build_schedule,
                       compute_times, contraction_check, log_ratio_check,
                       radius_for)

__version__ = "0.1.0"

__all__ = [
    "C_of", "ChainEvaluator", "ChainUnavailableError", "ChainValue",
    "ClassNReport", "ContractionReport", "DecayReport",
    "DegenerateTransitionError", "EscapeError", "FieldRejectedError",
    "FieldSpec", "FlowRequest", "FlowResult", "GRID_MARGIN", "GrowthReport",
    "GurganusReport", "HermitianBounds", "HorizonExhaustedError",
    "HypothesisReport", "HypothesisViolationError", "InvalidInputError",
    "InverseTransitionProduct", "Jet2", "LinearPath", "LoewnerError",
    "MAX_DIM", "NumericalFailureError", "RangeSample", "SamplePlan",
    "Schedule", "ScheduleRejectedError", "StiffnessError",
    "UnknownFamilyError", "Witness", "build_schedule", "builtin_corpus",
    "builtin_field", "c_of", "class_n_check", "classify_hypotheses",
    "compute_times", "contraction_check", "decay_bounds_check",
    "ell_estimate", "evolve", "flow_point", "growth_check", "gurganus_check",
    "hermitian_bounds", "jet2_transition", "load_field_file",
    "log_ratio_check", "operator_norm", "parse_field_config", "radius_for",
    "remainder_order_check", "semigroup_defect", "spectral_abscissa",
    "trace", "trajectories", "transition_matrix", "__version__",
]
