"""End-to-end runs of every subcommand through cli.main."""

import json
import math
import os
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumset_races import cli, verify_tau_race
from sumset_races.cli import main
from sumset_races.intervals import MAX_FOLDS, MAX_SETS
from sumset_races.serialization import MAX_NUMERAL_DIGITS

PROBLEM = {"n": 2, "H": 2, "theta": "1", "m": [[1, 0]]}
TARGETS = {"targets": [[1, 2], [2, 1]]}


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def built(tmp_path):
    problem = write(tmp_path / "problem.json", PROBLEM)
    output = str(tmp_path / "out.json")
    assert main(["build", problem, output]) == 0
    return problem, output


class TestBuild:
    def test_writes_passing_report(self, built):
        _, output = built
        data = json.loads(Path(output).read_text())
        assert data["all_pass"] is True
        assert len(data["sets"]) == 2

    def test_three_set_problem(self, tmp_path):
        problem = write(
            tmp_path / "p.json",
            {"n": 3, "H": 3, "theta": "3/7", "m": [[0, 0, 1], [-2, 3, 0]]},
        )
        output = str(tmp_path / "o.json")
        assert main(["build", problem, output]) == 0
        assert json.loads(Path(output).read_text())["all_pass"] is True

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 2, "H": 1, "theta": "1", "m": [[1]]},
            {"n": 2, "H": 2, "theta": "1.5", "m": [[1, 0]]},
            {"n": 2, "H": 2, "theta": "1"},
        ],
    )
    def test_schema_problems_exit_2(self, tmp_path, obj):
        problem = write(tmp_path / "p.json", obj)
        assert main(["build", problem, str(tmp_path / "o.json")]) == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "p.json"
        bad.write_text("{oops")
        assert main(["build", str(bad), str(tmp_path / "o.json")]) == 2
        assert "schema error" in capsys.readouterr().err

    def test_internal_fault_is_not_a_schema_error(self, tmp_path, monkeypatch):
        def broken(diffs, theta):
            raise ValueError("fault inside the construction")

        monkeypatch.setattr(cli, "build_sets", broken)
        problem = write(tmp_path / "p.json", PROBLEM)
        with pytest.raises(ValueError, match="fault inside the construction"):
            main(["build", problem, str(tmp_path / "o.json")])

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["build", str(tmp_path / "absent.json"), str(tmp_path / "o.json")]) == 2

    def test_gap_budget_is_a_schema_error(self, tmp_path, capsys):
        problem = write(tmp_path / "p.json", {"n": 2, "H": 2, "theta": "1", "m": [[10**9, 0]]})
        output = tmp_path / "o.json"
        assert main(["build", problem, str(output)]) == 2
        assert "more than the limit" in capsys.readouterr().err
        assert not output.exists()


class TestVerify:
    def test_passes_on_fresh_build(self, built, capsys):
        problem, output = built
        assert main(["verify", output, problem]) == 0
        out = capsys.readouterr().out
        assert "verification passed" in out
        assert "telescoping: 2/2 ok" in out  # one pair, two folds

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 3), st.integers(2, 6), st.data())
    def test_prop_build_file_round_trips_through_verify(self, n, H, data):
        row = st.lists(st.integers(-50, 50), min_size=H, max_size=H)
        rows = data.draw(st.lists(row, min_size=n - 1, max_size=n - 1))
        theta = data.draw(st.sampled_from(["1", "3/7", "22/7", "113/355"]))
        with tempfile.TemporaryDirectory() as tmp:
            problem = write(Path(tmp) / "p.json", {"n": n, "H": H, "theta": theta, "m": rows})
            built = str(Path(tmp) / "built.json")
            assert main(["build", problem, built]) == 0
            assert main(["verify", built, problem]) == 0

    def test_tampered_sets_exit_3(self, built, tmp_path, capsys):
        problem, output = built
        data = json.loads(Path(output).read_text())
        first = data["sets"][0]
        first[-1][1] = "9999"  # stretch the last part
        tampered = write(tmp_path / "tampered.json", data)
        assert main(["verify", tampered, problem]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_wrong_set_count_exits_2(self, built, tmp_path):
        problem, output = built
        data = json.loads(Path(output).read_text())
        data["sets"].append(data["sets"][0])
        assert main(["verify", write(tmp_path / "extra.json", data), problem]) == 2

    def test_race_output_is_accepted_as_sets_file(self, built, tmp_path):
        # shared 'sets' key: verify reads race output too (and fails its
        # checks, since the race sets solve a different problem)
        problem, _ = built
        targets = write(tmp_path / "t.json", TARGETS)
        race_out = str(tmp_path / "race.json")
        assert main(["race", targets, race_out]) == 0
        assert main(["verify", race_out, problem]) == 3


class TestRace:
    def test_finds_and_realizes_witness(self, tmp_path, capsys):
        targets = write(tmp_path / "t.json", TARGETS)
        output = str(tmp_path / "race.json")
        assert main(["race", targets, output, "--ground", "12", "--maxsize", "5"]) == 0
        assert "witness found" in capsys.readouterr().out
        data = json.loads(Path(output).read_text())
        assert data["all_pass"] is True
        assert [row["target"] for row in data["report"]] == [[1, 2], [2, 1]]
        assert len(data["witness"]) == 2

    def test_reported_miss_exits_3(self, tmp_path, monkeypatch, capsys):
        def reversed_targets(sets, base_sets, targets):
            return verify_tau_race(sets, base_sets, [t[::-1] for t in targets])

        monkeypatch.setattr(cli, "verify_tau_race", reversed_targets)
        targets = write(tmp_path / "t.json", TARGETS)
        output = tmp_path / "race.json"
        assert main(["race", targets, str(output)]) == 3
        assert "failed verification" in capsys.readouterr().err
        assert json.loads(output.read_text())["all_pass"] is False

    def test_exhaustion_exits_4(self, tmp_path, capsys):
        targets = write(tmp_path / "t.json", TARGETS)
        output = str(tmp_path / "race.json")
        assert main(["race", targets, output, "--ground", "2", "--maxsize", "2"]) == 4
        assert "search exhausted" in capsys.readouterr().out

    def test_bad_flags_exit_2(self, tmp_path):
        targets = write(tmp_path / "t.json", TARGETS)
        output = str(tmp_path / "race.json")
        assert main(["race", targets, output, "--ground", "-1"]) == 2
        assert main(["race", targets, output, "--maxsize", "0"]) == 2

    def test_huge_bounds_are_refused(self, tmp_path, capsys):
        targets = write(tmp_path / "t.json", TARGETS)
        output = tmp_path / "race.json"
        huge = str(10**9)
        assert main(["race", targets, str(output), "--ground", huge, "--maxsize", huge]) == 2
        assert "candidate sets" in capsys.readouterr().err
        assert not output.exists()

    def test_sizes_past_ground_add_nothing(self, tmp_path, capsys):
        # the bounds admit maxsize 10**9 at ground 10 (1024 candidates), and
        # the search must not walk the empty sizes above 11
        targets = write(tmp_path / "t.json", TARGETS)
        outputs = []
        for maxsize in ("11", str(10**9)):
            output = tmp_path / f"race_{maxsize}.json"
            assert main(["race", targets, str(output), "--ground", "10", "--maxsize", maxsize]) == 0
            outputs.append((output.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_invalid_targets_exit_2(self, tmp_path):
        targets = write(tmp_path / "t.json", {"targets": [[1, 3]]})
        assert main(["race", targets, str(tmp_path / "o.json")]) == 2

    def test_too_many_sets_exit_2(self, tmp_path, capsys):
        # one recursion level per set: 1000 tied sets would overflow the stack
        targets = write(tmp_path / "t.json", {"targets": [[1] * 1000]})
        output = tmp_path / "o.json"
        assert main(["race", targets, str(output), "--ground", "3", "--maxsize", "2"]) == 2
        assert "more than the limit" in capsys.readouterr().err
        assert not output.exists()

    def test_tied_sets_at_the_bound_reach_a_verdict(self, tmp_path):
        output = str(tmp_path / "o.json")
        at = write(tmp_path / "t.json", {"targets": [[1] * MAX_SETS]})
        assert main(["race", at, output, "--ground", "3", "--maxsize", "2"]) == 0
        assert len(json.loads(Path(output).read_text())["witness"]) == MAX_SETS
        over = write(tmp_path / "u.json", {"targets": [[1] * (MAX_SETS + 1)]})
        assert main(["race", over, output, "--ground", "3", "--maxsize", "2"]) == 2

    def test_folds_at_the_bound_reach_a_verdict(self, tmp_path):
        output = str(tmp_path / "o.json")
        at = write(tmp_path / "t.json", {"targets": [[1, 2]] * MAX_FOLDS})
        assert main(["race", at, output, "--ground", "3", "--maxsize", "2"]) == 0
        assert json.loads(Path(output).read_text())["H"] == MAX_FOLDS
        over = write(tmp_path / "u.json", {"targets": [[1, 2]] * (MAX_FOLDS + 1)})
        assert main(["race", over, output, "--ground", "3", "--maxsize", "2"]) == 2


class TestPlot:
    def test_renders_rows_per_set_and_fold(self, built, tmp_path):
        _, output = built
        svg_path = tmp_path / "chart.svg"
        assert main(["plot", output, str(svg_path), "--hmax", "2"]) == 0
        root = ET.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")
        ns = {"s": "http://www.w3.org/2000/svg"}
        rows = [g for g in root.iter("{http://www.w3.org/2000/svg}g") if g.get("class") == "row"]
        assert len(rows) == 4  # 2 sets, folds 1 and 2
        labels = {g.get("data-label") for g in rows}
        assert labels == {"A1", "2A1", "A2", "2A2"}
        assert root.findall(".//s:rect", ns)

    def test_bad_hmax_exits_2(self, built, tmp_path):
        _, output = built
        assert main(["plot", output, str(tmp_path / "x.svg"), "--hmax", "0"]) == 2

    def test_hmax_above_limit_exits_2_before_loading(self, tmp_path, capsys):
        # a missing sets file shows whether --hmax was checked before the load
        missing, svg_path = str(tmp_path / "missing.json"), tmp_path / "x.svg"
        hmax = str(MAX_FOLDS + 1)
        assert main(["plot", missing, str(svg_path), "--hmax", hmax]) == 2
        refusal = f"schema error: --hmax must lie between 1 and {MAX_FOLDS}"
        assert refusal in capsys.readouterr().err
        assert main(["plot", missing, str(svg_path), "--hmax", str(MAX_FOLDS)]) == 2
        assert "schema error: cannot read" in capsys.readouterr().err
        assert not svg_path.exists()

    @pytest.mark.parametrize(
        "sets, row",
        [
            ([[["0", "1"]], [["0", "1" + "0" * 999]]], "3A2"),  # an endpoint beyond the float range
            ([[["0", "1/1" + "0" * 400]]], "3A1"),  # a span that converts to 0.0
        ],
        ids=["overflow", "zero-span"],
    )
    def test_undrawable_sets_exit_2(self, tmp_path, capsys, sets, row):
        path = write(tmp_path / "s.json", {"sets": sets})
        svg_path = tmp_path / "chart.svg"
        assert main(["oracle", path]) == 0  # the sets load and measure
        assert main(["plot", path, str(svg_path), "--hmax", "3"]) == 2
        assert f"schema error: row '{row}' lies beyond" in capsys.readouterr().err
        assert not svg_path.exists()

    def test_internal_fault_in_render_is_not_a_schema_error(self, built, tmp_path, monkeypatch):
        def broken(rows, title):
            raise ValueError("fault inside the renderer")

        monkeypatch.setattr(cli, "render", broken)
        _, output = built
        with pytest.raises(ValueError, match="fault inside the renderer"):
            main(["plot", output, str(tmp_path / "x.svg")])


class TestOracle:
    def test_grid_brackets_exact_measures(self, built, capsys):
        _, output = built
        assert main(["oracle", output]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count(" ok") >= 2

    def test_custom_step(self, built):
        _, output = built
        assert main(["oracle", output, "--grid-step", "1/4096"]) == 0

    def test_rejects_bad_step(self, built):
        _, output = built
        assert main(["oracle", output, "--grid-step", "0"]) == 2
        assert main(["oracle", output, "--grid-step", "0.5"]) == 2


class TestRefusals:
    """Inputs that once ran for seconds, or crashed, are refused with exit 2 at once."""

    def refused(self, argv, capsys, message):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [b"\xff", b"[" * 100_000 + b"]" * 100_000],
        ids=["not-utf8", "nested-too-deep"],
    )
    def test_unparseable_bytes_exit_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        output = tmp_path / "o.json"
        message = f"schema error: {bad} is not valid JSON"
        self.refused(["race", str(bad), str(output)], capsys, message)
        self.refused(["oracle", str(bad)], capsys, message)
        assert not output.exists()

    @pytest.mark.parametrize(
        "n, H, message",
        [
            (1000, 2, "1000 sets, more than the limit of 64 sets"),  # a table of n**2 * H checks
            (2, 16_000, "16000 folds, more than the limit of 64 folds"),  # a self-check in H**2
        ],
        ids=["sets", "folds"],
    )
    def test_oversized_problem_exits_2(self, built, tmp_path, capsys, n, H, message):
        obj = {"n": n, "H": H, "theta": "1", "m": [[0] * H] * (n - 1)}
        problem = write(tmp_path / "p.json", obj)
        output = tmp_path / "o.json"
        self.refused(["build", problem, str(output)], capsys, f"schema error: {message}")
        assert not output.exists()
        self.refused(["verify", built[1], problem], capsys, f"schema error: {message}")

    def test_oversized_sets_file_exits_2(self, tmp_path, capsys):
        # 2000 one-part sets drawn at 64 folds made a chart of 128,000 rows
        sets = write(tmp_path / "s.json", {"sets": [[[str(i), str(i)]] for i in range(2000)]})
        svg_path = tmp_path / "x.svg"
        message = "schema error: 2000 sets, more than the limit of 64 sets"
        self.refused(["plot", sets, str(svg_path), "--hmax", "64"], capsys, message)
        assert not svg_path.exists()
        self.refused(["oracle", sets], capsys, message)


def primes_above(lo, count):
    found = []
    n = lo
    while len(found) < count:
        n += 1
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            found.append(n)
    return found


class TestOversizedNumerals:
    """Numbers too long to print are refused where they are read: schema errors, exit 2."""

    DIGITS = "1" * 5000

    @pytest.fixture(autouse=True)
    def default_digit_limit(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the interpreter's default
        yield
        sys.set_int_max_str_digits(saved)

    def test_theta_string(self, tmp_path, capsys):
        problem = write(tmp_path / "p.json", {**PROBLEM, "theta": self.DIGITS})
        assert main(["build", problem, str(tmp_path / "o.json")]) == 2
        assert "schema error" in capsys.readouterr().err

    def test_m_entry(self, tmp_path, capsys):
        problem = tmp_path / "p.json"
        problem.write_text('{"n": 2, "H": 2, "theta": "1", "m": [[%s, 0]]}' % self.DIGITS)
        assert main(["build", str(problem), str(tmp_path / "o.json")]) == 2
        assert "schema error" in capsys.readouterr().err

    def test_grid_step(self, built, capsys):
        _, output = built
        assert main(["oracle", output, "--grid-step", "1/" + self.DIGITS]) == 2
        assert "schema error" in capsys.readouterr().err

    def test_build_with_long_theta(self, tmp_path, capsys):
        problem = write(tmp_path / "p.json", {**PROBLEM, "theta": "9" * 4299, "m": [[50, -50]]})
        assert main(["build", problem, str(tmp_path / "o.json")]) == 2
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "numbers",
        [{"theta": "9" * 4299, "m": [[50, -50]]}, {"theta": "999", "m": [[int("9" * 4299), 0]]}],
        ids=["theta", "m"],
    )
    def test_verify_against_long_problem_numbers(self, built, tmp_path, capsys, numbers):
        # verify prints theta * m, so both are bounded
        _, sets = built
        problem = write(tmp_path / "p.json", {**PROBLEM, **numbers})
        assert main(["verify", sets, problem]) == 2
        assert "schema error" in capsys.readouterr().err

    def test_long_common_denominator(self, tmp_path, capsys):
        # each endpoint is short, but together they need a denominator of thousands of digits
        primes = primes_above(1000, 2000)
        union = [[f"{2 * i * p + 1}/{p}", str(2 * i + 1)] for i, p in enumerate(primes)]
        sets = write(tmp_path / "s.json", {"sets": [union]})
        assert main(["oracle", sets]) == 2
        assert "common denominator" in capsys.readouterr().err

    def test_theta_at_the_bound_builds_and_verifies(self, tmp_path):
        half = MAX_NUMERAL_DIGITS // 2  # theta's numerator and denominator, in lowest terms
        theta = "9" * half + "/1" + "0" * (half - 1)
        problem = write(tmp_path / "p.json", {**PROBLEM, "theta": theta, "m": [[50, -50]]})
        output = str(tmp_path / "o.json")
        assert main(["build", problem, output]) == 0
        assert main(["verify", output, problem]) == 0
        over = write(tmp_path / "q.json", {**PROBLEM, "theta": "9" + theta})
        assert main(["build", over, output]) == 2

    def test_sets_file_endpoint(self, built, tmp_path, capsys):
        problem, _ = built
        sets = write(tmp_path / "s.json", {"sets": [[["0", "1/" + self.DIGITS]], [["0", "1"]]]})
        assert main(["verify", sets, problem]) == 2
        assert "schema error" in capsys.readouterr().err


# stdlib packages a fresh ``import sumset_races.cli`` must not load: the
# xml.sax.saxutils chain (urllib.request, http, email, ssl, socket,
# hashlib) and dataclasses with what it imports (inspect)
UNUSED_STDLIB = (
    "xml", "urllib.request", "http", "email", "ssl", "socket", "hashlib", "dataclasses", "inspect",
)


class TestEntryPoints:
    @staticmethod
    def run_child(*args):
        """Run a fresh interpreter that imports the package the suite imports, installed or not."""
        source = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_module_invocation(self, tmp_path):
        problem = write(tmp_path / "p.json", PROBLEM)
        output = str(tmp_path / "o.json")
        proc = self.run_child("-m", "sumset_races", "build", problem, output)
        assert proc.returncode == 0
        assert "difference checks pass" in proc.stdout

    def test_import_loads_no_unused_stdlib(self):
        code = (
            "import sys; before = set(sys.modules); import sumset_races.cli; "
            "print(*sorted(set(sys.modules) - before))"
        )
        proc = self.run_child("-c", code)
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert "sumset_races.cli" in loaded
        assert [m for m in loaded for r in UNUSED_STDLIB if m == r or m.startswith(r + ".")] == []

    def test_usage_error_shares_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2

    def test_calls_in_a_row_share_one_parser(self, built, capsys):
        # the parser is built once; a build then a verify parse as before
        problem, output = built
        assert main(["build", problem, output]) == 0
        assert main(["verify", output, problem]) == 0
        assert "verification passed" in capsys.readouterr().out
        assert cli._build_parser() is cli._build_parser()

    def test_usage_error_then_valid_call(self, built, capsys):
        problem, output = built
        with pytest.raises(SystemExit) as err:
            main(["build", problem])
        assert err.value.code == 2
        assert main(["verify", output, problem]) == 0
        assert "verification passed" in capsys.readouterr().out
