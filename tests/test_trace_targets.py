"""Every function the benchmark's tracer wraps still exists in ``lclsim``.

``bench/spans.py`` names its targets as ``(module, qualified name)`` pairs
and looks each up with ``vars`` when it installs; a target that moved or was
renamed would break traced runs.  The list is read with ``ast``, so the
benchmark code is not imported.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def traced_targets():
    for node in ast.parse(SPANS.read_text()).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TARGETS")


def test_every_trace_target_resolves():
    targets = traced_targets()
    assert targets
    missing = []
    for module, qualname in targets:
        owner = importlib.import_module(f"lclsim.{module}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{qualname}")
    assert not missing, f"traced names missing from lclsim: {missing}"
