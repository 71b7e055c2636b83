"""The README's library quick start runs and prints the values it states.

Only the analytic lines are executed: the Monte Carlo lines take seconds
and their stated values are one draw's estimate, not a fixed output.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_analytic_source():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    return block.split("# Monte Carlo cross-check", 1)[0]


def test_quick_start_analytic_values():
    source = quick_start_analytic_source()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(source).body:
        code = compile(ast.Module(body=[node], type_ignores=[]), "README.md", "exec")
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(body=node.value), "README.md", "eval"), namespace)
        comment = lines[node.lineno - 1].partition("#")[2]
        stated = re.match(r"\s*(\d+\.(\d+))", comment)
        assert stated, lines[node.lineno - 1]
        decimals = len(stated.group(2))
        assert round(float(value), decimals) == float(stated.group(1)), (lines[node.lineno - 1], value)
        checked.append(stated.group(1))
    assert checked == ["0.5372", "0.6649", "0.6722", "0.0984", "1.3914", "1.3970", "1.0930"]
