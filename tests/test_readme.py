"""Every Python example in README.md runs, and the values its comments state hold."""

import ast
import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)


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
