"""The package's public names."""

import sumset_races


def test_public_names_are_pinned():
    assert sumset_races.__all__ == [
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
        "thickened_measure",
        "assemble_set",
        "build_sets",
        "BuildResult",
        "DifferenceReport",
        "verify_differences",
        "TauRaceReport",
        "realize",
        "verify_tau_race",
    ]
    for name in sumset_races.__all__:
        assert hasattr(sumset_races, name)
