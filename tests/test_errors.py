import ast
from fractions import Fraction
from pathlib import Path

import pytest

from cvn.cli import _InputError, _parsing
from cvn.errors import CvnError, NotReduced, SelfCheckFailed
from cvn.metric import StretchReport
from cvn.words import Word, conj_class

SRC = Path(__file__).resolve().parent.parent / "src" / "cvn"


def test_no_assert_statements_in_package():
    # checks written as assert vanish under python -O
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_unused_imports_in_package():
    # a module-level import whose name the module never reads
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_every_error_class_is_raised_in_package():
    # an error class that only the tests raise belongs to the tests
    defined = [n.name for n in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(n, ast.ClassDef) and n.name != "CvnError"]
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= {n.id for n in ast.walk(node.exc)
                           if isinstance(n, ast.Name)}
    assert len(defined) > 20
    assert [name for name in defined if name not in raised] == []


def test_inconsistent_stretch_report_raises_typed_error():
    per = {conj_class([1], 2): Fraction(2), conj_class([2], 2): Fraction(3)}
    with pytest.raises(SelfCheckFailed):
        StretchReport(Fraction(2), frozenset(), per)
    assert issubclass(SelfCheckFailed, CvnError)


def test_unreduced_letters_raise_a_typed_value_error():
    with pytest.raises(NotReduced) as info:
        Word((1, 2, -2), 2)
    assert isinstance(info.value, CvnError)
    assert isinstance(info.value, ValueError)
    # the CLI's parse stage still reads it as bad input (exit code 1)
    with pytest.raises(_InputError):
        with _parsing():
            Word((-1, 1), 2)
