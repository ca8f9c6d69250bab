"""Every Python example in README.md runs, and the values its comments state hold."""

import ast
import re
from importlib import import_module
from pathlib import Path

import pytest

from sumset_races.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
SESSION = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.S | re.M)
    if block.startswith("$ ")
    for line in block.splitlines()
]


def stated(comment):
    """The comment's text up to its first ", " outside brackets: the value it may state."""
    depth = 0
    for i, ch in enumerate(comment):
        depth += (ch in "([{") - (ch in ")]}")
        if depth == 0 and comment.startswith(", ", i):
            return comment[:i]
    return comment


def test_readme_has_python_examples():
    assert len(BLOCKS) == 3


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_block_runs_and_its_comments_hold(block):
    # a fresh namespace per block; an expression's trailing comment that
    # prints as its value, or evaluates to it, must match it, and any other
    # comment (one that does not parse or names nothing) is prose
    namespace = {}
    lines = block.splitlines()
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        text = stated(lines[stmt.end_lineno - 1].partition("#")[2].strip())
        if not text or text == repr(value):
            continue
        try:
            claim = eval(text, namespace)
        except (SyntaxError, NameError):
            continue
        assert claim == value, f"README says {text}, the code gives {value!r}"


def test_readme_canonical_form_claims_hold():
    namespace = {}
    exec(next(b for b in BLOCKS if "IntervalUnion([" in b), namespace)
    for claim in ("x.scale == 4", "x.pairs == ((0, 3), (8, 11))"):
        assert f"`{claim}`" in README
        assert eval(claim, namespace), claim


def test_readme_shell_session_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    # each `cat` writes the file it shows, and each command must exit 0 and
    # print exactly the lines shown under it
    monkeypatch.chdir(tmp_path)
    commands = []
    for line in SESSION:
        if line.startswith("$ "):
            commands.append((line[2:].split(), []))
        elif line:
            commands[-1][1].append(line)
    run = [argv[1:] for argv, _ in commands if argv[0] == "sumset-races"]
    assert [argv[0] for argv in run] == ["build", "verify", "race", "plot", "oracle"]
    assert run[3][-2:] == ["--hmax", "2"]
    for argv, shown in commands:
        if argv[0] == "cat":
            (tmp_path / argv[1]).write_text("\n".join(shown) + "\n")
            continue
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().out.splitlines() == shown, argv


def test_readme_limits_table_states_each_constant():
    # a problem-file number gets half the digits of a sets-file numeral
    stated, actual = {}, {}
    for limit, module, name in re.findall(r"^\| ([^|]+) \| `(\w+)\.(MAX_\w+)` \|", README, re.M):
        value = getattr(import_module(f"sumset_races.{module}"), name)
        stated[name] = [int(n.replace(",", "")) for n in re.findall(r"\d+(?:,\d{3})*", limit)]
        actual[name] = [value, value // 2] if name == "MAX_NUMERAL_DIGITS" else [value]
    assert stated == actual
    assert set(stated) == {
        "MAX_SETS", "MAX_FOLDS", "MAX_RACE_CANDIDATES", "MAX_BUILD_GAPS", "MAX_NUMERAL_DIGITS",
        "MAX_FILE_PARTS",
    }
