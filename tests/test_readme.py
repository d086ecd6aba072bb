"""The library tour in README.md runs, and gives the values its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# The value a comment states: a tuple of ints or an int, right after the "#".
STATED = re.compile(r"#\s*(\([\d, ]*\)|-?\d+)")


def first_python_block():
    text = README.read_text(encoding="utf-8")
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_tour_states_true_values():
    source = first_python_block()
    lines = source.splitlines()
    namespace = {}
    checked = {}
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
        stated = STATED.search(lines[stmt.end_lineno - 1])
        if stated:
            expr = ast.get_source_segment(source, stmt.value)
            assert value == ast.literal_eval(stated.group(1)), expr
            checked[expr] = value
    assert checked['min_face_dims(C, X)'] == (14, 9, 5)
    assert checked['face_dim_oracle(system_at(C, X, "mu"), X)'] == 5
