"""Every public name of the package has a caller outside the tests.

A top-level public ``def``, ``class`` or assigned name (a constant, an
alias) in ``src/exactspin/`` must be referenced by name somewhere in
``src/exactspin/`` or the benchmark harness ``perfbench/``, outside its
own definition: as a name, an attribute, or a word of a string (the
harness names its trace targets in strings).  Import lines and
docstrings do not count.  References that only the tests need live in
``tests/`` (see ``tests/oracle.py``).

Likewise every optional parameter of a public function or method, and
of a public class's constructor (its ``__init__``, or the dataclass
fields with defaults), is passed, by keyword or by position, by some
call in those files.  Every optional parameter, the allowlisted ones
included, is passed by some call in those files or ``tests/``: one
that nothing passes is dead code.  And every public method or property
of a public class is read as an attribute (``x.name``, or a dotted
``Class.name`` in a string, as the harness names its trace targets) in
those files, outside its own body.  A bare name does not count, since a
local variable can share it.
"""

import ast
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = sorted((_ROOT / "src" / "exactspin").glob("*.py"))
_CALLERS = _SRC + sorted((_ROOT / "perfbench").glob("*.py"))
_TESTS = sorted((_ROOT / "tests").glob("*.py"))

# paper measurements whose command-line callers are still to come
_ALLOWED = {"coupling_probability", "decoupling_check",
            "sample_cluster_and_localset_sizes", "tail_fit"}

# optional parameters no call passes, with the reason each stays
_UNPASSED = {
    "cli.main.argv": "the console-script entry point is called without arguments",
    "coarse.CoarseParams.eps": "coarse sweeps over eps are still to come (ROADMAP items 2, 5)",
    "coarse.CoarseParams.k": "coarse sweeps over k are still to come (ROADMAP items 2, 5)",
    "coarse.ThetaField.good": "theta fields of XY good cells are still to come (ROADMAP item 3)",
}

# public methods and properties nothing reads, with the reason each stays
_UNREAD = {
    "coarse.ThetaField.density": "the theta subcommand is still to come (ROADMAP item 5)",
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


def _is_dataclass(decorator):
    f = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(f, "id", getattr(f, "attr", None)) == "dataclass"


def _constructor_parameters(cls):
    """(positional index or None, name) of each constructor parameter of
    the class ``cls`` with a default: those of its ``__init__``, else,
    for a dataclass, its fields with defaults, indexed in field order."""
    for sub in cls.body:
        if isinstance(sub, ast.FunctionDef) and sub.name == "__init__":
            return _optional_parameters(sub, True)
    if not any(_is_dataclass(d) for d in cls.decorator_list):
        return []
    fields = [f for f in cls.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    return [(i, f.target.id) for i, f in enumerate(fields) if f.value is not None]


def _public_members(tree):
    """(class, def) for each public method and property of a public class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield node, sub


def _callables(path):
    """(qualified name, called name, optional parameters) for each public
    function, each public class's constructor and each public method of
    a public class."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name, _optional_parameters(node, False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name, _constructor_parameters(node)
    for cls, fn in _public_members(tree):
        yield f"{path.stem}.{cls.name}.{fn.name}", fn.name, _optional_parameters(fn, True)


def _passes(call, index, name):
    if any(k.arg in (name, None) for k in call.keywords):  # None: a ** mapping
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(x, ast.Starred) for x in call.args))


def _unpassed(callers, exempt):
    """The optional parameters, as qualified names, that no call in the
    files ``callers`` passes, skipping the callables named in ``exempt``."""
    calls = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for path in _SRC:
        for qual, called, params in _callables(path):
            if called in exempt:
                continue
            for index, name in params:
                if not any(_passes(c, index, name) for c in calls.get(called, [])):
                    unpassed.append(f"{qual}.{name}")
    return sorted(unpassed)


def test_every_optional_parameter_is_passed_outside_the_tests():
    assert _unpassed(_CALLERS, _ALLOWED) == sorted(_UNPASSED)


def test_every_optional_parameter_is_passed_somewhere():
    # the allowlists excuse a parameter from a production caller, not
    # from every caller: an option that not even a test passes is dead
    assert _unpassed(_CALLERS + _TESTS, ()) == []


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


def test_constructor_parameters_are_found():
    tree = ast.parse("@dataclass(frozen=True)\nclass D:\n    a: int\n    b: int = 1\n"
                     "    c: list = field(default_factory=list)\n"
                     "class K:\n    x: int = 0\n    def __init__(self, y, z=1, *, w=2): pass\n"
                     "class P:\n    x: int = 0\n")
    d, k, p = tree.body
    assert _constructor_parameters(d) == [(1, "b"), (2, "c")]
    assert _constructor_parameters(k) == [(1, "z"), (None, "w")]
    assert _constructor_parameters(p) == []  # a class attribute, not a field
    assert _passes(ast.parse("D(0, 1)").body[0].value, 1, "b")
    assert not _passes(ast.parse("D(0, 1)").body[0].value, 2, "c")


def _attribute_reads(tree):
    """attribute name -> line numbers where it is read as ``x.name`` or
    named as a dotted word of a string; docstrings do not count."""
    prose = {id(sub.value) for sub in ast.walk(tree) if isinstance(sub, ast.Expr)}
    reads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in prose):
            names = re.findall(r"(?<=\w)\.(\w+)", node.value)
        else:
            continue
        for name in names:
            reads.setdefault(name, []).append(node.lineno)
    return reads


def test_every_public_method_is_read_outside_the_tests():
    reads = [(path, _attribute_reads(ast.parse(path.read_text()))) for path in _CALLERS]
    unread = []
    for path in _SRC:
        for cls, fn in _public_members(ast.parse(path.read_text())):
            if not any(not (p == path and fn.lineno <= line <= fn.end_lineno)
                       for p, r in reads for line in r.get(fn.name, [])):
                unread.append(f"{path.stem}.{cls.name}.{fn.name}")
    assert sorted(unread) == sorted(_UNREAD)


def test_members_are_found_and_only_attribute_reads_count():
    tree = ast.parse("class K:\n    def m(self): return self.m()\n    @property\n"
                     "    def p(self): pass\n    def _h(self): pass\n"
                     "class _Hidden:\n    def n(self): pass\n"
                     "ok = p = 1\nx.q()\nt = ('mod', 'K.r', 'prose. n')\n")
    assert [(c.name, f.name) for c, f in _public_members(tree)] == [("K", "m"), ("K", "p")]
    reads = _attribute_reads(tree)
    assert reads == {"m": [2], "q": [9], "r": [10]}  # bare names ok and p are not reads
