"""Record hygiene: every field of the set-up records is read by some code
other than the functions that set it."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORDS = ("SubdomainData", "Decomposition", "AssembledSystem", "MaxwellSystem")
# the library and its callers outside the tests: a field that only tests read
# is not kept for them
SOURCES = sorted(p for d in ("src/wavedd", "scripts", "perfbench")
                 for p in (ROOT / d).glob("*.py"))


def _scoped_nodes(tree):
    """(scope, node) for every node of a module: the scope is the top-level
    function or the class method that the node lies in, else the top-level
    class, else "" (module level)."""
    def is_def(node):
        return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))

    for top in tree.body:
        items = top.body if isinstance(top, ast.ClassDef) else [top]
        for item in items:
            if isinstance(top, ast.ClassDef):
                scope = f"{top.name}.{item.name}" if is_def(item) else top.name
            else:
                scope = top.name if is_def(top) else ""
            for node in ast.walk(item):
                yield scope, node


def unread_fields(sources: dict, records=RECORDS) -> list:
    """"Record.field" for each annotated field of the named classes that no
    code reads outside the functions that set it.  ``sources`` maps a module
    name to its text.  A field is set by a store to an attribute of its name,
    or by a keyword or positional argument of a call to its class; it is read
    by a load of an attribute of its name.  Fields are matched by name, not
    by the type of the object, so a name that another object also carries
    counts as read."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    fields = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in records:
                fields[node.name] = [s.target.id for s in node.body
                                     if isinstance(s, ast.AnnAssign)]
    setters, readers = defaultdict(set), defaultdict(set)
    for module, tree in trees.items():
        for scope, node in _scoped_nodes(tree):
            where = f"{module}:{scope}"
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    setters[node.attr].add(where)
                elif isinstance(node.ctx, ast.Load):
                    readers[node.attr].add(where)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in fields):
                names = fields[node.func.id][:len(node.args)]
                for name in names + [k.arg for k in node.keywords]:
                    setters[name].add(where)
    return sorted(f"{cls}.{name}" for cls, names in fields.items() for name in names
                  if not readers[name] - setters[name])


def test_scan_finds_a_field_read_only_where_it_is_set():
    src = (
        "class SubdomainData:\n"
        "    dofs: object\n"
        "    kept: object\n"
        "    scratch: object\n"
        "    unread: object = None\n"
        "class Other:\n"
        "    ignored: object\n"
        "def build(dofs):\n"
        "    sd = SubdomainData(dofs, 1, scratch=2, unread=None)\n"
        "    sd.scratch = sd.scratch + sd.kept\n"
        "    return sd\n"
        "class Solver:\n"
        "    def __init__(self, sd):\n"
        "        self.local = [sd.dofs for _ in range(2)]\n"
        "def use(sd):\n"
        "    return (lambda: sd.kept)()\n"
    )
    assert unread_fields({"m": src}) == ["SubdomainData.scratch", "SubdomainData.unread"]


def test_every_record_field_is_read_past_its_set_up():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    assert unread_fields(sources) == []
