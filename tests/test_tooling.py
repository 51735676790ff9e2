"""The public names and the names the traced benchmark run patches resolve.

bench/spans.py rebinds functions and methods of biracks by name, and its
install() fails on the first one that is gone.  This loads the module by
path, without installing anything, and resolves every name.  The public
names of the package are pinned: dropping one means editing the pin and
deprecating the name in CHANGES.md.  No package module uses assert, and
only the text parsers call int().  Every table file is read through one
label table, and every matrix file through one reader.  Counts and
labeling dumps search a diagram's groups through one helper.  Each
structure has one checked constructor.  The labeling search writes its
four determinations in one rule table, its branch planner computes
closures in one place, and every search plans through one cached compile
step.  Every column of a birack table comes from one reader.  Every
table size bound reads core.ELEMENT_LIMIT.  Only Diagram numbers a
component's semiarcs.  Subbiracks are closed in one fold, core._join_fold,
besides the one-seed subbirack_closure.  Every source
file parses as the oldest Python the package declares, and every console
script it declares runs.
"""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import biracks

PUBLIC_NAMES = [
    "AxiomViolation", "BadPairing", "BirackClass", "BirackError",
    "CayleyGroup", "CheckResult", "ConstructionError", "Diagram",
    "FiniteBirack", "InvariantValue", "KindMismatch", "Labeling",
    "LengthMismatch", "MultiPoly", "NestedPoly", "NotASubbirack", "ParseError",
    "Pass", "SizeTooLarge", "ValidationReport", "all_subbiracks",
    "birack_polynomial", "classify", "compute_invariant", "constant_action",
    "count_labelings", "cycle_string", "enumerate_biracks",
    "enumerate_labelings", "format_matrix", "from_matrix", "is_subbirack",
    "labeling_image", "labelings_by_framing", "normalize", "parse_cycles",
    "parse_gauss", "parse_matrix_text", "parse_multipoly", "parse_nestedpoly",
    "phi_image", "phi_integral", "phi_rho", "phi_writhe", "read_matrix_file",
    "subbirack_closure", "subbirack_polynomial", "tau_sigma_rho_birack",
    "to_matrix", "tsr_birack", "unlink", "verify_axioms", "with_framing",
    "writhe_vector",
]
ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bindings_resolve():
    missing = [(module, attr) for module, attr, _ in _spans().BINDINGS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_methods_resolve():
    missing = []
    for module, cls, attr, _ in _spans().METHODS:
        klass = getattr(importlib.import_module(module), cls, None)
        if not callable(getattr(klass, attr, None)):
            missing.append((module, cls, attr))
    assert missing == []


def test_public_names_pinned():
    assert sorted(biracks.__all__) == PUBLIC_NAMES


def test_public_names_resolve():
    assert [name for name in biracks.__all__ if not hasattr(biracks, name)] == []


def test_no_assert_in_package():
    """Checks in the package raise, so they hold under python -O too."""
    paths = sorted((ROOT / "src" / "biracks").glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# The functions that parse integers out of text; int() coerces nothing else.
TEXT_PARSERS = {"parse_cycles", "_int_row", "_table_lines", "parse_gauss", "_var_key",
                "parse_multipoly", "parse_nestedpoly", "_cmd_poly"}


def _int_calls(node, owner=None):
    """(innermost enclosing function, line) of each int(...) call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _int_calls(child, child.name)
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "int"):
            yield owner, child.lineno
        yield from _int_calls(child, owner)


def test_int_only_in_text_parsers():
    """Values from outside are checked, not coerced with int()."""
    paths = sorted((ROOT / "src" / "biracks").glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{line} in {owner}"
        for path in paths
        for owner, line in _int_calls(ast.parse(path.read_text(encoding="utf-8")))
        if owner not in TEXT_PARSERS
    ]
    assert found == []


def _called_names(tree):
    """(name, line) of each call of a plain or dotted name under tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id, node.lineno
            elif isinstance(func, ast.Attribute):
                yield func.attr, node.lineno


def test_one_survey_path():
    """Only the invariants module searches a diagram cut open, so the CLI
    counts and prints --labelings through its group searches."""
    paths = sorted((ROOT / "src" / "biracks").glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{line}"
        for path in paths
        for name, line in _called_names(ast.parse(path.read_text(encoding="utf-8")))
        if name == "cut_labelings" and path.name != "invariants.py"
    ]
    assert found == []
    cli = ast.parse((ROOT / "src" / "biracks" / "cli.py").read_text(encoding="utf-8"))
    imported = [node.module for node in ast.walk(cli) if isinstance(node, ast.ImportFrom)]
    assert "homsearch" not in imported


def test_cut_layout_owned_by_homsearch():
    """Only homsearch builds a CutLabelings, and no module imports a private
    homsearch name, so only homsearch knows how cut head semiarcs are
    numbered."""
    paths = sorted((ROOT / "src" / "biracks").glob("*.py"))
    assert paths
    built, private = [], []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        built += [f"{path.name}:{line}" for name, line in _called_names(tree)
                  if name == "CutLabelings" and path.name != "homsearch.py"]
        private += [
            f"{path.name}:{node.lineno} {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "homsearch"
            for alias in node.names if alias.name.startswith("_")
        ]
    assert (built, private) == ([], [])


def _call_graph(*names) -> dict[str, set[str]]:
    """{function name: the names it calls} over the named package modules."""
    graph: dict[str, set[str]] = {}
    for name in names:
        tree = ast.parse((ROOT / "src" / "biracks" / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                graph.setdefault(node.name, set()).update(n for n, _ in _called_names(node))
    return graph


def test_one_group_search_helper():
    """Counts and --labelings dumps split a diagram into its groups and
    search them in one place: _group_searches is the one caller of
    cut_labelings, and compute_invariant, _framed_rows and
    labelings_by_framing all reach it.  Its searches are keyed by their
    group diagrams, so invariants.py tells searches apart by no id() and
    builds no group diagram with renumbered crossings (it reads no pass's
    crossing id)."""
    graph = _call_graph("invariants.py")
    assert {name for name, callees in graph.items() if "cut_labelings" in callees} == {
        "_group_searches"}
    assert "_group_searches" in graph["compute_invariant"] & graph["_framed_rows"]
    assert "_framed_rows" in graph["labelings_by_framing"]
    tree = ast.parse((ROOT / "src" / "biracks" / "invariants.py").read_text(encoding="utf-8"))
    ids = [line for name, line in _called_names(tree) if name == "id"]
    renumbering = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "crossing"
                   or isinstance(node, ast.FunctionDef) and node.name == "_group_diagram"]
    assert (ids, renumbering) == ([], [])


def test_one_dump_renderer():
    """cli.py turns labels into --labelings dump text in one function,
    _dump_rows: only it looks a label up in a text table (getitem or
    __getitem__), and both dump paths, the text dump in _cmd_invariant and
    the JSON dump in _invariant_json, call it."""
    tree = ast.parse((ROOT / "src" / "biracks" / "cli.py").read_text(encoding="utf-8"))
    lookups = {getattr(stmt, "name", stmt.lineno) for stmt in tree.body for node in ast.walk(stmt)
               if isinstance(node, ast.Name) and node.id == "getitem"
               or isinstance(node, ast.Attribute) and node.attr == "__getitem__"}
    callers = {name for name, callees in _call_graph("cli.py").items() if "_dump_rows" in callees}
    assert (lookups, callers) == ({"_dump_rows"}, {"_cmd_invariant", "_invariant_json"})


def test_one_checked_constructor():
    """FiniteBirack and CayleyGroup are built only through their checked
    __init__: neither defines a second constructor that skips the checks,
    only core calls _analyze (through FiniteBirack and verify_axioms), and
    cli imports no private name from families."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "biracks").glob("*.py"))}
    assert trees
    twins = [
        f"{name}:{node.name}.{item.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name in ("FiniteBirack", "CayleyGroup")
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "_of"
    ]
    analyzing = {name for name, tree in trees.items()
                 if any(called == "_analyze" for called, _ in _called_names(tree))}
    private = [
        alias.name
        for node in ast.walk(trees["cli.py"])
        if isinstance(node, ast.ImportFrom) and node.module == "families"
        for alias in node.names if alias.name.startswith("_")
    ]
    assert (twins, analyzing, private) == ([], {"core.py"}, [])


def test_table_files_share_one_loader():
    """Matrix files (read_matrix_file and verify, both through the one
    matrix-file reader core._matrix_tables), Cayley tables and map files
    all reach the one label table, core._label_rows; only the core loaders
    and the public parse_matrix_text read a file's tokens with int(),
    through _int_row."""
    graph = _call_graph("core.py", "cli.py")

    def reached(start):
        seen, stack = set(), [start]
        while stack:
            for callee in graph.get(stack.pop(), ()):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen

    entries = ("read_matrix_file", "_cmd_verify", "_read_cayley", "_read_map")
    assert [entry for entry in entries if "_label_rows" not in reached(entry)] == []

    def callers(name):
        return {caller for caller, callees in graph.items() if name in callees}

    assert callers("_matrix_tables") == {"read_matrix_file", "_cmd_verify"}
    assert callers("_int_row") == {"_int_rows", "_load_map"}
    assert callers("_int_rows") == {"_load_table", "parse_matrix_text"}


# The functions that refuse too many elements before building a table
BOUNDED = {"core.py": {"parse_cycles", "_analyze", "_load_table"},
           "families.py": {"constant_action", "__init__"}}


def test_one_element_bound():
    """Every bound on a table's element count reads core.ELEMENT_LIMIT, the
    size of a bytes.translate table, which _analyze's byte rows need: the
    one literal 256 (or the old 360) in the package defines it, only
    core._bound and tsr_birack read it, and the loaders, parse_cycles,
    _analyze and the family constructors call _bound."""
    assert biracks.core.ELEMENT_LIMIT == len(bytes.maketrans(b"", b""))
    literals, readers, bounded = [], [], {}
    for path in sorted((ROOT / "src" / "biracks").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            owner = (ast.unparse(stmt.targets[0]) if isinstance(stmt, ast.Assign)
                     else getattr(stmt, "name", stmt.lineno))
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Constant) and type(node.value) is int
                        and node.value in (256, 360)):
                    literals.append((path.name, owner))
                if isinstance(node, ast.Name) and node.id.endswith("ELEMENT_LIMIT"):
                    readers.append((path.name, owner, node.id))
        bounded[path.name] = {name for name, callees in _call_graph(path.name).items()
                              if "_bound" in callees}
    assert literals == [("core.py", "ELEMENT_LIMIT")]
    assert sorted(set(readers)) == [
        ("core.py", "ELEMENT_LIMIT", "ELEMENT_LIMIT"),
        ("core.py", "_bound", "ELEMENT_LIMIT"),
        ("families.py", "tsr_birack", "ELEMENT_LIMIT"),
    ]
    assert {name: found for name, found in bounded.items() if found} == BOUNDED


# The birack tables the four determinations at a crossing read, beyond B
DETERMINATION_TABLES = {"b1inv", "b2inv", "s1", "s2", "s1inv", "s2inv"}


def test_determinations_written_once():
    """homsearch names each birack table of the determinations once, in
    the rule table that the plan and the per-level steps both read."""
    tree = ast.parse((ROOT / "src" / "biracks" / "homsearch.py").read_text(encoding="utf-8"))
    found = []
    for stmt in tree.body:
        owner = (ast.unparse(stmt.targets[0]) if isinstance(stmt, ast.Assign)
                 else getattr(stmt, "name", stmt.lineno))
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if name in DETERMINATION_TABLES:
                found.append((owner, name))
    assert sorted(found) == sorted(("_RULES", name) for name in DETERMINATION_TABLES)



def test_one_closure_path():
    """The branch planner computes closures in one place: homsearch._fire
    has one call site in the package, in _plan's refire loop, and no
    parameter with a default, so it has one mode and a pick is never
    fired a second time for its steps."""
    sites = []
    for path in sorted((ROOT / "src" / "biracks").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            sites += [(path.name, getattr(stmt, "name", stmt.lineno))
                      for name, _ in _called_names(stmt) if name == "_fire"]
    tree = ast.parse((ROOT / "src" / "biracks" / "homsearch.py").read_text(encoding="utf-8"))
    fire = [stmt.args for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "_fire"]
    assert sites == [("homsearch.py", "_plan")]
    assert [(a.defaults, [d for d in a.kw_defaults if d is not None]) for a in fire] == [([], [])]


def test_one_plan_path():
    """Every search plans through one cached compile step: _plan and
    _crossing_quads each have one call site in the package, in
    homsearch._compiled, so no search plans a diagram outside the cache."""
    sites = []
    for path in sorted((ROOT / "src" / "biracks").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            sites += [(name, path.name, getattr(stmt, "name", stmt.lineno))
                      for name, _ in _called_names(stmt) if name in ("_plan", "_crossing_quads")]
    assert sorted(sites) == [("_crossing_quads", "homsearch.py", "_compiled"),
                             ("_plan", "homsearch.py", "_compiled")]


# The functions that return the closure of a label set
CLOSURES = {"_close", "subbirack_closure", "labeling_image", "_join_fold"}


def test_one_subbirack_closure_path():
    """Only core._join_fold, for weighted seed sets through its join cache,
    calls _close, so subbirack_closure closes its one seed through the
    fold; invariants.py closes label sets only through the fold; and every
    call of _join_fold passes (b, parts) and nothing more, so no caller
    brings a memo of its own."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "biracks").glob("*.py"))}
    assert trees
    closing = [(name, stmt.name) for name, tree in trees.items() for stmt in tree.body
               if isinstance(stmt, ast.FunctionDef)
               and any(called == "_close" for called, _ in _called_names(stmt))]
    invariants = {called for called, _ in _called_names(trees["invariants.py"])}
    calls = [(len(node.args), [k.arg for k in node.keywords])
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and (getattr(node.func, "id", None) == "_join_fold"
                                                or getattr(node.func, "attr", None) == "_join_fold")]
    fold = [stmt.args for stmt in trees["core.py"].body
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "_join_fold"]
    assert closing == [("core.py", "_join_fold")]
    assert invariants & CLOSURES == {"_join_fold"}
    assert calls and all(call == (2, []) for call in calls)
    assert [[a.arg for a in args.args] + [a.arg for a in args.kwonlyargs]
            + [args.vararg, args.kwarg] for args in fold] == [["b", "parts", None, None]]


def test_one_column_reader():
    """FiniteBirack holds each table once, as the byte rows _analyze
    builds, and every column of a table comes from core._transpose: no
    package module transposes a birack table with zip(*...) or maps
    itemgetter over one, and tuple(map(tuple, ...)) appears only in
    _analyze's input guard, once per table given.  A matrix file's block
    is split by core._split_block before any birack table exists."""
    tables = {"b1", "b2", *DETERMINATION_TABLES}

    def is_call(node, name: str) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name)

    def reads_table(node) -> bool:
        return any(isinstance(n, ast.Attribute) and n.attr in tables
                   or isinstance(n, ast.Name) and n.id in tables for n in ast.walk(node))

    columns, tuple_rows = [], []
    for path in sorted((ROOT / "src" / "biracks").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(stmt, "name", stmt.lineno)
            for node in ast.walk(stmt):
                if is_call(node, "zip") and any(
                        isinstance(arg, ast.Starred) and reads_table(arg.value)
                        for arg in node.args):
                    columns.append((path.name, owner, "zip"))
                if (is_call(node, "map") and node.args and is_call(node.args[0], "itemgetter")
                        and any(map(reads_table, node.args[1:]))):
                    columns.append((path.name, owner, "itemgetter"))
                if (is_call(node, "tuple") and node.args and is_call(node.args[0], "map")
                        and list(map(ast.unparse, node.args[0].args[:1])) == ["tuple"]):
                    tuple_rows.append((path.name, owner))
    assert columns == []
    assert tuple_rows == [("core.py", "_analyze")] * 2


def _semiarc_counts(node, owner=""):
    """(qualified name of the innermost enclosing class or function, line)
    of each max(len(...), 1) under node: a component's semiarc count, one
    even for a crossing-free circle."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _semiarc_counts(child, f"{owner}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Call) and re.fullmatch(r"max\(len\(.*\), 1\)", ast.unparse(child)):
            yield owner, child.lineno
        yield from _semiarc_counts(child, owner)


def test_one_semiarc_layout():
    """Diagram owns semiarc numbering: only Diagram.__init__ counts a
    component's semiarcs, into the ranges of Diagram.component_semiarcs
    that every other reader indexes, and no module keeps component
    offsets of its own."""
    counts, offsets = [], []
    for path in sorted((ROOT / "src" / "biracks").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        counts += [(path.name, owner) for owner, _ in _semiarc_counts(tree)]
        offsets += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "_offsets"]
    assert (counts, offsets) == ([("diagram.py", "Diagram.__init__")], [])


def test_python_310_syntax():
    """pyproject.toml declares requires-python >= 3.10: every source file
    parses as 3.10 grammar, which rejects later syntax such as except*."""
    paths = sorted(path for top in ("src/biracks", "tests", "demos")
                   for path in (ROOT / top).rglob("*.py"))
    assert paths
    failed = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError:
            failed.append(path.relative_to(ROOT).as_posix())
    assert failed == []
    later = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    if sys.version_info >= (3, 11):
        ast.parse(later)
    with pytest.raises(SyntaxError):
        ast.parse(later, feature_version=(3, 10))


def test_console_scripts_run(capsys):
    """Each console script pyproject.toml declares resolves to a callable
    that prints the project's version for --version and returns 0."""
    tomllib = pytest.importorskip("tomllib")  # 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["scripts"]
    for target in project["scripts"].values():
        module, _, attr = target.partition(":")
        main = getattr(importlib.import_module(module), attr)
        assert callable(main)
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"biracks {project['version']}\n"
