"""Every public name of the package has a caller outside the tests.

A top-level public ``def``, ``class`` or assigned name (a constant, an
alias) in ``src/exactspin/`` must be referenced by name somewhere in
``src/exactspin/`` or the benchmark harness ``perfbench/``, outside its
own definition: as a name, an attribute, or a word of a string (the
harness names its trace targets in strings).  Import lines and
docstrings do not count.  References that only the tests need live in
``tests/`` (see ``tests/oracle.py``).
"""

import ast
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = sorted((_ROOT / "src" / "exactspin").glob("*.py"))
_CALLERS = _SRC + sorted((_ROOT / "perfbench").glob("*.py"))

# paper measurements whose command-line callers are still to come
_ALLOWED = {"coupling_probability", "decoupling_check",
            "sample_cluster_and_localset_sizes", "tail_fit"}


def _names_in(node):
    # docstrings and other bare string statements are prose, not references
    prose = {id(sub.value) for sub in ast.walk(node) if isinstance(sub, ast.Expr)}
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in prose):
            names.update(re.findall(r"\w+", sub.value))
    return names


def _public_definitions(tree):
    """(name, defining statement) for each public top-level name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def test_every_public_name_has_a_caller_outside_the_tests():
    # (path, top-level statement) -> names it references
    refs = []
    for path in _CALLERS:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                refs.append((path, node, _names_in(node)))
    uncalled = []
    for path in _SRC:
        for name, defn in _public_definitions(ast.parse(path.read_text())):
            called = any(name in names for p, node, names in refs
                         if not (p == path and node.lineno == defn.lineno))
            if not called and name not in _ALLOWED:
                uncalled.append(f"{path.stem}.{name}")
    assert uncalled == []


def test_module_level_assignments_are_checked():
    tree = ast.parse("A = 1\nB: int = 2\n_c = 3\nD, (E, F) = G = 4, (5, 6)\n"
                     "def h(): pass\nclass K: pass\n")
    assert [name for name, _ in _public_definitions(tree)] == list("ABDEFGhK")
