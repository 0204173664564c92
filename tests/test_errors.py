"""Every error class has a raiser."""

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
