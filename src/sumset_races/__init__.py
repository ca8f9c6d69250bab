"""Exact interval constructions realizing prescribed h-fold sumset measure races.

Two capabilities, both with zero numeric tolerance:

* ``build_sets`` turns a table of integer targets into interval sets whose
  consecutive h-fold sumset measure differences hit the targets exactly,
  for every fold up to the horizon at once.
* ``search_race_sets`` plus ``realize`` finds integer sets whose sumset
  sizes follow prescribed rank patterns fold by fold and transports them
  to interval sets whose measures follow the same patterns;
  ``verify_tau_race`` checks both against the patterns.

Inside, an interval union is held as integers over one common
denominator; every API edge takes and returns ``fractions.Fraction``.
Nothing is ever rounded.
"""

from .construction import (
    BuildResult,
    CarveMatrix,
    CarvedBlock,
    ConstructionParams,
    DiffMatrix,
    DifferenceReport,
    InternalCheckError,
    StepMatrix,
    assemble_set,
    build_sets,
    carve,
    choose_params,
    filler_set,
    lift_steps,
    solve_steps,
    verify_differences,
)
from .discrete import (
    IntSet,
    as_int_set,
    dense_rank,
    hfold_ints,
    is_rank_tuple,
    search_race_sets,
)
from .intervals import (
    Interval,
    IntervalUnion,
    Rational,
    as_fraction,
    grid_measure_oracle,
)
from .realization import (
    TauRaceReport,
    realize,
    verify_tau_race,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Rational",
    "as_fraction",
    "Interval",
    "IntervalUnion",
    "grid_measure_oracle",
    "IntSet",
    "as_int_set",
    "hfold_ints",
    "dense_rank",
    "is_rank_tuple",
    "search_race_sets",
    "DiffMatrix",
    "StepMatrix",
    "CarveMatrix",
    "ConstructionParams",
    "CarvedBlock",
    "InternalCheckError",
    "solve_steps",
    "lift_steps",
    "choose_params",
    "filler_set",
    "carve",
    "assemble_set",
    "build_sets",
    "BuildResult",
    "DifferenceReport",
    "verify_differences",
    "TauRaceReport",
    "realize",
    "verify_tau_race",
]
