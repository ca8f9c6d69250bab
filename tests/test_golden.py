"""Byte-identity guard: fixed problems must keep producing the same outputs.

The sha256 of each ``build`` and ``race`` output file was recorded before
the fold ladder moved to integers, and the sha256 of ``verify``'s stdout,
the ``plot --hmax 3`` SVG and ``oracle``'s stdout on those files before
unions were stored as integer pairs; any change to a computed set, a
report, a rendered endpoint or the JSON layout shows up here as a
different hash.
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


VERIFY_STDOUT_SHA256 = {
    "n3_h4": "ba3632afa0cb9db3dec122910e141b953e731d87ed37bb973124d51b5893afed",
    "n8_h6": "7471e4bf2a715e9919a76f42f59c426c348c2e34dd9ca2d34b1a3aa9295ea3d0",
    "n4_h8": "f6964f296e44e6fa324df7d56f85a46a50b37760067c64ecc46814918d3e731b",
}

PLOT_SVG_SHA256 = {
    "n3_h4": "96c88851553b28e64458c3cf5937e5f9c3f7b507a5276f2a32919aec37be4605",
    "n8_h6": "c7c5fe5d94b03e1e34fdd7cf27e9db0288681a63f84c7876693f71bfc6355825",
    "n4_h8": "225f794f3f96c85c24af41f8e0c7d25159b6bf55dae61f7b03054f1fcc324aac",
    "race": "1ce97174649a3788c4c7d0e81d955e64e4a0b94763fd3381aa23c28f8c2b6717",
}

ORACLE_STDOUT_SHA256 = {
    "n3_h4": "beea02dcba50ab420b0969cd32e0a80530ce855d2dd10e36c6eef5fafda95c0f",
    "n8_h6": "15275b80dbe44edc5702b8eabc17543e02fc3a28198c889c863797148deef87a",
    "n4_h8": "fd5e199b009830908f24f62a52e4245b44dc1aaae409f32f52cb445e76c3b4f0",
    "race": "3164114f2bbb4c077f5d245f89aced74f177cd9a9162df8adeb5289f0501fd6f",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Problem and output files: every fixed problem built, and the race run."""
    root = tmp_path_factory.mktemp("golden")
    files = {}
    for name, obj in PROBLEMS.items():
        problem = root / f"{name}.problem.json"
        problem.write_text(json.dumps(obj))
        output = root / f"{name}.json"
        assert main(["build", str(problem), str(output)]) == 0
        files[name] = (output, problem)
    targets = root / "targets.json"
    targets.write_text(json.dumps(RACE_TARGETS))
    output = root / "race.json"
    assert main(["race", str(targets), str(output)]) == 0
    files["race"] = (output, None)
    return files


def stdout_sha256(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(VERIFY_STDOUT_SHA256))
def test_verify_stdout_is_byte_identical(outputs, capsys, name):
    output, problem = outputs[name]
    assert stdout_sha256(capsys, ["verify", str(output), str(problem)]) == VERIFY_STDOUT_SHA256[name]


@pytest.mark.parametrize("name", sorted(PLOT_SVG_SHA256))
def test_plot_svg_is_byte_identical(outputs, tmp_path, name):
    svg = tmp_path / "plot.svg"
    assert main(["plot", str(outputs[name][0]), str(svg), "--hmax", "3"]) == 0
    assert sha256_of(svg) == PLOT_SVG_SHA256[name]


@pytest.mark.parametrize("name", sorted(ORACLE_STDOUT_SHA256))
def test_oracle_stdout_is_byte_identical(outputs, capsys, name):
    assert stdout_sha256(capsys, ["oracle", str(outputs[name][0])]) == ORACLE_STDOUT_SHA256[name]
