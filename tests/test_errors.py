"""Structural checks on the package source: every error class has a
raiser, and no module reaches into another module's private names."""

import ast
import pathlib

import addesigns
from addesigns import errors

SRC = pathlib.Path(addesigns.__file__).parent


def _raised_names():
    """The names of the exceptions that a `raise` under the package names."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return names


def test_every_error_class_is_raised_somewhere():
    tree = ast.parse(pathlib.Path(errors.__file__).read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert len(classes) > 2
    unraised = classes - {"AddesignsError", "TooLarge"} - _raised_names()
    assert not unraised, "error classes without a raiser: %s" % sorted(unraised)


def test_no_module_calls_another_modules_private_function():
    # a private helper's format, such as gf's polynomials, stays behind its module
    modules = {path.stem for path in SRC.glob("*.py")}
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id in modules - {path.stem} and func.attr.startswith("_")):
                calls.append("%s: %s.%s" % (path.name, func.value.id, func.attr))
    assert not calls, calls
