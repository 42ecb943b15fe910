"""Every public name of the package has a caller outside the tests.

A top-level public ``def``, ``class`` or assigned name (a constant, an
alias) in ``src/exactspin/`` must be referenced by name somewhere in
``src/exactspin/`` or the benchmark harness ``perfbench/``, outside its
own definition: as a name, an attribute, or a word of a string (the
harness names its trace targets in strings).  Import lines and
docstrings do not count.  References that only the tests need live in
``tests/`` (see ``tests/oracle.py``).

Likewise every optional parameter of a public function or method is
passed, by keyword or by position, by some call in those files.
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

# optional parameters no call passes, with the reason each stays
_UNPASSED = {
    "cli.main.argv": "the console-script entry point is called without arguments",
    "engine.swm_sandwich.init_top": "set starts: a caller is still to come (ROADMAP item 3)",
    "engine.swm_sandwich.init_bot": "set starts: a caller is still to come (ROADMAP item 3)",
    "randomness.event_stream.reseed": "reseeded XY streams are still to come (ROADMAP item 3)",
}


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


def _optional_parameters(fn, is_method):
    """(positional index or None for keyword-only, name) of each
    parameter of ``fn`` with a default; a method's index skips ``self``."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    out = [(i - is_method, p.arg) for i, p in enumerate(pos) if i >= first]
    out += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _public_functions(path):
    """(qualified name, def, is_method) for each public function and
    each public method of a public class."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{sub.name}", sub, True


def _passes(call, index, name):
    if any(k.arg in (name, None) for k in call.keywords):  # None: a ** mapping
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(x, ast.Starred) for x in call.args))


def test_every_optional_parameter_is_passed_outside_the_tests():
    calls = {}
    for path in _CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for path in _SRC:
        for qual, fn, is_method in _public_functions(path):
            if fn.name in _ALLOWED:
                continue
            for index, name in _optional_parameters(fn, is_method):
                if not any(_passes(c, index, name) for c in calls.get(fn.name, [])):
                    unpassed.append(f"{qual}.{name}")
    assert sorted(unpassed) == sorted(_UNPASSED)


def test_optional_parameters_are_found_by_position_and_keyword():
    tree = ast.parse("def f(a, b=1, *, c=2, d): pass\n"
                     "class K:\n    def m(self, x=0): pass\n")
    f, k = tree.body
    assert _optional_parameters(f, False) == [(1, "b"), (None, "c")]
    assert _optional_parameters(k.body[0], True) == [(0, "x")]
    call = ast.parse("f(1, 2)").body[0].value
    assert _passes(call, 1, "b") and not _passes(call, None, "c")
    assert _passes(ast.parse("f(1, c=3)").body[0].value, None, "c")
    assert _passes(ast.parse("f(**kw)").body[0].value, None, "c")
