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
flow      the evolution operator, every leg under pure relative error
          control, and decay-bound verification
schedule  unit-mass times, the mu/nu contraction budget and its
          per-step measurement (the decay check on the steps)
chain     the normalized limit maps and their consistency checks
cli       the ``loewner-basin`` command line tool

Each check (``class_n_check``, ``gurganus_check``, ``growth_check``,
``decay_bounds_check``, ``contraction_check``, ``classify_hypotheses``)
returns the JSON-ready dict its command prints, as does
``ChainEvaluator.range_sample``.  The flow checks integrate in blocks:
one integrator call for ``decay_bounds_check`` (all intervals), also on
the schedule's steps as ``contraction_check``, two for the semigroup.
"""

from .chain import ChainEvaluator, ChainValue
from .errors import (ChainUnavailableError, DegenerateTransitionError,
                     EscapeError, FieldRejectedError, HorizonExhaustedError,
                     HypothesisViolationError, InvalidInputError,
                     LoewnerError, NumericalFailureError,
                     ScheduleRejectedError, StiffnessError,
                     UnknownFamilyError)
from .fields import (C_of, FieldSpec, SamplePlan, builtin_corpus,
                     builtin_field, c_of, class_n_check, growth_check,
                     gurganus_check, load_field_file, parse_field_config,
                     remainder_order_check)
from .flow import (FlowRequest, FlowResult, decay_bounds_check, evolve,
                   semigroup_defect, trace, trajectories)
from .linear import (GRID_MARGIN, MAX_DIM, HermitianBounds,
                     InverseTransitionProduct, LinearPath,
                     classify_hypotheses, ell_estimate, hermitian_bounds,
                     operator_norm, spectral_abscissa, transition_matrix)
from .schedule import (Schedule, build_schedule, compute_times,
                       contraction_check, log_ratio_check, radius_for)

__version__ = "0.1.0"

__all__ = [
    "C_of", "ChainEvaluator", "ChainUnavailableError", "ChainValue",
    "DegenerateTransitionError", "EscapeError", "FieldRejectedError",
    "FieldSpec", "FlowRequest", "FlowResult", "GRID_MARGIN",
    "HermitianBounds", "HorizonExhaustedError", "HypothesisViolationError",
    "InvalidInputError", "InverseTransitionProduct", "LinearPath",
    "LoewnerError", "MAX_DIM", "NumericalFailureError",
    "SamplePlan", "Schedule", "ScheduleRejectedError", "StiffnessError",
    "UnknownFamilyError", "build_schedule", "builtin_corpus",
    "builtin_field", "c_of", "class_n_check", "classify_hypotheses",
    "compute_times", "contraction_check", "decay_bounds_check",
    "ell_estimate", "evolve", "growth_check", "gurganus_check",
    "hermitian_bounds", "load_field_file", "log_ratio_check",
    "operator_norm", "parse_field_config", "radius_for",
    "remainder_order_check", "semigroup_defect", "spectral_abscissa",
    "trace", "trajectories", "transition_matrix", "__version__",
]
