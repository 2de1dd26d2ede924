"""Exact graded commutative algebra for regularity of Ext and Tor over
graded complete intersections A = Q/(z_1..z_c).

The package computes minimal graded free resolutions over Q and over A,
Castelnuovo-Mumford regularity, Ext/Tor modules with their gradings, ideal
powers I^n N and quotients N/I^n N, certified upper bounds for the
reduction exponent rho_N(I), CI (Eisenbud) operators, and the trigraded
twist calculus that explains the bound lines rho*n - f*i + e observed on
regularity grids.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .ci_ops import (
    CIOperators,
    PresentationMap,
    eisenbud_operators,
    induced_on_ext,
    lift_resolution,
    operators_commute,
)
from .errors import (
    BoundViolation,
    CmregError,
    DegreeCapExceeded,
    HomogeneityError,
    InternalConsistencyError,
    ProblemSemanticError,
    ProblemSyntaxError,
    ReductionPreconditionError,
)
from .ext_tor import SubquotientPresentation, ext, tor
from .fields import GF32003, QQ, PrimeField, RationalField, field_of_characteristic
from .freemod import (
    NEG_INF,
    GradedFreeModule,
    GradedMap,
    ModulePresentation,
    cyclic_presentation,
    free_presentation,
)
from .groebner import (
    DEFAULT_DEGREE_CAP,
    Elimination,
    buchberger,
    kernel,
    minimal_generators,
    normal_form,
    preimage,
    submodule_contains,
    submodule_equal,
    submodule_gb,
)
from .problemfile import ProblemFile, parse_problem, pretty_print
from .rees import (
    IdealData,
    ReductionCertificate,
    RhoBound,
    is_reduction,
    power_module,
    quotient_module,
    rho_upper,
    unit_ideal,
)
from .regularity import betti_oracle, hilbert_function, present_over_Q, regularity
from .resolution import (
    BettiTable,
    FreeResolution,
    betti_table,
    minimal_presentation,
    minimize,
    resolve_over_A,
    resolve_over_Q,
)
from .rings import GradedPoly, PolyRing, QuotientRing, parse_poly
from .sweeps import (
    CAP,
    BoundReport,
    ExtRegTable,
    LinearFit,
    fit_asymptote,
    fit_sequence,
    sweep,
    verify_bounds,
)
from .trigraded import (
    TrigradedFreeData,
    TrigradedRingSpec,
    bound_constants,
    component_bound,
    component_twist_count,
    component_twists,
    compositions,
    grid_bound_check,
    max_twist_bound_check,
)
