"""The CI workflow runs every full-size byte check of ``tests/full_size.py``."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_full_size_check_has_a_step():
    # Read as text and syntax, not imported: a check added to the module
    # but named by no step would never run, since tier-1 does not collect it.
    module = ast.parse((ROOT / "tests" / "full_size.py").read_text())
    checks = {node.name for node in module.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    steps = re.findall(r"^\s*run: .*tests/full_size\.py::(test_\w+)$", workflow, re.M)
    assert checks and sorted(steps) == sorted(checks)
