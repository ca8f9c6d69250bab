"""Byte-identity guard: fixed problems must keep producing the same output files.

The sha256 of each output file was recorded before the fold ladder moved to
integers; any change to a computed set, a report or the JSON layout shows
up here as a different hash.
"""

import hashlib
import json

import pytest

from sumset_races.cli import main

PROBLEMS = {
    "n3_h4": {"n": 3, "H": 4, "theta": "2/3", "m": [[1, -2, 0, 3], [0, 1, -1, 2]]},
    "n8_h6": {
        "n": 8,
        "H": 6,
        "theta": "1/7",
        "m": [
            [1, 0, -1, 2, 0, 1],
            [0, 2, 1, -1, 1, 0],
            [-1, 1, 0, 0, 2, -2],
            [2, -1, 1, 1, 0, 1],
            [0, 0, 2, -2, 1, 1],
            [1, 1, -1, 0, -1, 2],
            [-2, 0, 1, 1, 1, 0],
        ],
    },
    "n4_h8": {
        "n": 4,
        "H": 8,
        "theta": "5/113",
        "m": [
            [37, -12, 50, 4, -45, 21, 0, 9],
            [-28, 44, -7, 33, 16, -50, 12, 3],
            [19, 0, -36, -41, 27, 8, 50, -15],
        ],
    },
}

BUILD_SHA256 = {
    "n3_h4": "956f4df2ad7346c79a019d834da253a85eb248e6bffd2609f94a4d9c9b8624cd",
    "n8_h6": "5296f90ab80c80d40abc2f4e8bad0187e503f96f67ff2d5d213540b3adaf684b",
    "n4_h8": "263ff1ef6e6271696ae22cc11c0c8377e012e0653f21c6b5ccc98937a9c53811",
}

RACE_TARGETS = {"targets": [[1, 2], [2, 1]]}
RACE_SHA256 = "f14bbea08bd7092a06ad3b7321020164caf4285eb86aa73082f87c03bc9401f4"


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_build_output_is_byte_identical(tmp_path, name):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(PROBLEMS[name]))
    output = tmp_path / "built.json"
    assert main(["build", str(problem), str(output)]) == 0
    assert sha256_of(output) == BUILD_SHA256[name]


def test_race_output_is_byte_identical(tmp_path):
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps(RACE_TARGETS))
    output = tmp_path / "race.json"
    assert main(["race", str(targets), str(output)]) == 0
    assert sha256_of(output) == RACE_SHA256
