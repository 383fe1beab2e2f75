"""Rules on the package source itself."""

import ast
import importlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "roblearn"


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so an invariant written as one silently vanishes
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"raise an error instead of asserting at {found}"


def _traced_names():
    """The (module, attribute) pairs of TARGETS in perfbench/tracing.py, read
    from its source without running it."""
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    return [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]


def test_every_traced_name_resolves():
    # a traced run wraps each TARGETS name and stops with a KeyError at the
    # first one the package no longer has; tier-1 does not run perfbench
    names = _traced_names()
    assert len(names) > 20
    missing = []
    for module, attr in names:
        home = vars(importlib.import_module(module))
        if "." in attr:  # a method, looked up in its class's own dict
            cls_name, meth = attr.split(".")
            found = cls_name in home and meth in vars(home[cls_name])
        elif attr.endswith("*"):  # a glob over the module's callables
            found = any(n.startswith(attr[:-1]) and callable(v) for n, v in home.items())
        else:
            found = callable(home.get(attr))
        if not found:
            missing.append(f"{module}.{attr}")
    assert not missing, f"perfbench/tracing.py TARGETS names what the package lacks: {missing}"


def test_only_the_perceptron_predicts_one_row():
    # predictors answer blocks of rows through predict_batch; a one-row
    # predict is kept only where one point is the algorithm's own unit: the
    # perceptron's one-example update
    owners = sorted(node.name for path in sorted(SRC.glob("*.py"))
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
                    if isinstance(node, ast.ClassDef)
                    and any(isinstance(item, ast.FunctionDef) and item.name == "predict"
                            for item in node.body))
    assert owners == ["PerceptronState"]
