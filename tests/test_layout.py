"""Layout rules of the package, read from its source with `ast`.

- No module-level import in `src/fairflow` goes unused, so deleting code
  leaves no orphan imports.  `__init__.py` is exempt: its imports are the
  re-exported API.
- `oracle.py`, the reference the engine is checked against, imports only
  data types from the engine (any of `core`, `baseflow.Instance`,
  `setfn.BaseOracle` and `setfn.SetFn`), so that code moved into it stays
  independent of the engine paths it certifies.
- `setfn.py` alone picks how a table's values are stored (int64 or exact
  Python ints): no other module reads a `.bound` attribute, calls
  `ExtArray(...)` on raw fields, or names `int_dtype` outside
  `orient._top`, whose mixed-radix keys are not table values.
- `setfn.py` alone reads how a table marks its infinite entries: no other
  module reads a `.pos` or `.neg` attribute, or moves cut terms with
  `_shift` or `_move_cut`; they ask `ExtArray` and `BaseOracle` methods
  instead (a slack's violating set, an arc's fixing interval, the meets of
  the finite or tight sets, one entry's value).
"""

import ast
import os

import fairflow

SRC = os.path.dirname(fairflow.__file__)
ORACLE_MAY_IMPORT = {"baseflow": {"Instance"}, "setfn": {"BaseOracle", "SetFn"}}


def modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                yield name, ast.parse(fh.read())


def test_no_unused_module_imports():
    unused = []
    for name, tree in modules():
        if name == "__init__.py":
            continue
        bound = {}
        for stmt in tree.body:
            if isinstance(stmt, ast.Import) or (
                    isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"):
                for alias in stmt.names:
                    bound[(alias.asname or alias.name).split(".")[0]] = stmt.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {bound_name}"
                   for bound_name, line in bound.items() if bound_name not in used]
    assert unused == []


def test_oracle_imports_only_engine_data_types():
    imported = []
    for node in ast.walk(dict(modules())["oracle.py"]):
        if isinstance(node, ast.Import):
            imported += [(a.name, "*") for a in node.names if a.name.split(".")[0] == "fairflow"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "fairflow"):
            module = (node.module or "").removeprefix("fairflow.")
            imported += [(module, a.name) for a in node.names]
    assert imported, "the scan must see the oracle's engine imports"
    assert [(module, name) for module, name in imported if module != "core"
            and name not in ORACLE_MAY_IMPORT.get(module, ())] == []


def test_only_setfn_picks_table_storage():
    def named(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    found = []
    for name, tree in modules():
        if name == "setfn.py":
            continue
        keys = {node for f in tree.body if name == "orient.py" and getattr(f, "name", "") == "_top"
                for node in ast.walk(f)}
        for node in ast.walk(tree):
            line = f"{name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and node.attr == "bound":
                found.append(f"{line} reads .bound")
            if isinstance(node, ast.Call) and named(node.func) == "ExtArray":
                found.append(f"{line} calls ExtArray(...)")
            if named(node) == "int_dtype" and node not in keys:
                found.append(f"{line} names int_dtype")
    assert found == []


def test_only_setfn_reads_infinity_flags():
    found = []
    for name, tree in modules():
        if name == "setfn.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("pos", "neg", "_shift", "_move_cut"):
                found.append(f"{name}:{node.lineno} reads .{node.attr}")
    assert found == []
