"""Source hygiene of the package: no module keeps an import it does not use,
no top-level name goes unused, no module imports another's private name,
only `algebra.py` reads the algebra's tables, no module reads a form's
sampling and only its constructor compares one, a fixed list of functions
chooses a cover or exponentiates link coefficients, `np.linalg` is called
only in `algebra.py` and a listed set of owners, `algebra.py` nests no
two loops over the algebra's dimension, `holonomy.py` loops over cover
vertices only in `CubicalCover`, `invariants.py` builds `SectorInvariants`
at one site, no function calls itself, and every default of a public parameter is
overridden by some call in the package or its benchmark, or is listed with the consumer
that keeps it."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "skyrme"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {name: line for name, line in imported.items()
              if name not in used and name not in _exported(tree)}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    # a `_name` is its module's own; a second module reaching for it keeps
    # a second call site of what should have one owner
    tree = ast.parse(path.read_text())
    private = [(alias.name, node.lineno) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"{path.name} imports private names {private}"


TABLES = {"structure_constants", "norm_gram", "killing_matrix", "basis",
          "_gram", "_real_basis", "_coords_map", "_ad_table",  # and their private layouts
          "killing_3form", "orthonormal_ad"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "algebra.py"],
                         ids=lambda p: p.name)
def test_only_algebra_reads_the_tables(path):
    # LieAlgebra's kernels are the one owner of every contraction against
    # the tables; any other read is a second copy of a kernel
    tree = ast.parse(path.read_text())
    reads = [(n.attr, n.lineno) for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr in TABLES]
    assert not reads, f"{path.name} reads algebra tables at {reads}"


# the one (module, function) that compares a sampling value: every form
# holds link coefficients, and the constructor turns site values into links
SAMPLING_OWNER = ("lattice.py", "AlgebraOneForm.__init__")


def _functions(tree: ast.Module):
    """(name, node) of every top-level function and method, methods named
    Class.method; nested functions belong to the function around them."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{n.name}", n) for n in top.body
                        if isinstance(n, ast.FunctionDef))
        elif isinstance(top, ast.FunctionDef):
            yield top.name, top


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_sampling_branches_have_one_owner_each(path):
    # no form carries a sampling to read, and only its constructor decides
    # what the passed coefficients are
    tree = ast.parse(path.read_text())
    reads = [n.lineno for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr == "sampling"]
    assert not reads, f"{path.name} reads `.sampling` at lines {reads}"
    compares = [(path.name, name, n.lineno) for name, node in _functions(tree)
                for n in ast.walk(node) if isinstance(n, ast.Compare)
                and any(isinstance(m, ast.Name) and m.id == "sampling" for m in ast.walk(n))]
    assert all(c[:2] == SAMPLING_OWNER for c in compares), \
        f"sampling compared outside {SAMPLING_OWNER}: {compares}"


def _top_level(tree: ast.Module):
    """(name, node) of every top-level def, class and assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def _references(node: ast.AST) -> Counter:
    """Counts of the names, attributes and exact string constants read in
    `node`; strings count because perfbench wraps functions by name."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def test_every_top_level_name_is_referenced():
    # a def, class or constant that nothing reads is dead code; neither its
    # own definition, nor an `__all__` list, nor the package re-exports count
    trees, refs = {}, Counter()
    for d in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / d).rglob("*.py")):
            if path != SRC / "__init__.py":
                trees[path] = ast.parse(path.read_text())
                refs += _references(trees[path])
                refs -= Counter(_exported(trees[path]))
    unused = [f"{path.name}:{name}" for path in MODULES for name, node in _top_level(trees[path])
              if not (name.startswith("__") and name.endswith("__"))
              and refs[name] <= _references(node)[name]]
    assert not unused, f"top-level names referenced nowhere: {unused}"


def _over_dim(it) -> bool:
    """Whether a loop's iterable is range(..., d) or range(..., x.dim)."""
    return (isinstance(it, ast.Call) and getattr(it.func, "id", None) == "range"
            and any(getattr(arg, "id", None) == "d" or getattr(arg, "attr", None) == "dim"
                    for arg in it.args))


def _dim_loops(node):
    """(node, clauses) of every for-statement and comprehension under node
    with clauses > 0 of its own running over the dimension."""
    for n in ast.walk(node):
        if isinstance(n, ast.For) and _over_dim(n.iter):
            yield n, 1
        elif isinstance(n, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            k = sum(_over_dim(g.iter) for g in n.generators)
            if k:
                yield n, k


def test_algebra_nests_no_loops_over_the_dimension():
    # a Python loop over pairs of basis elements runs d^2 interpreter steps
    # at construction (2704 for f4); pairs are batched as stacked GEMMs
    nested = []
    for name, node in _functions(ast.parse((SRC / "algebra.py").read_text())):
        for loop, k in _dim_loops(node):
            if k + sum(kk for inner, kk in _dim_loops(loop) if inner is not loop) > 1:
                nested.append((name, loop.lineno))
    assert not nested, f"loops over the dimension nested at {nested}"


def _vertex_loops(node):
    """Lines of the for-statements and comprehensions under node whose
    iterable calls `.vertices()` or reads a name bound to such a call."""
    def is_call(expr):
        return isinstance(expr, ast.Call) and getattr(expr.func, "attr", None) == "vertices"

    names = {t.id for n in ast.walk(node) if isinstance(n, ast.Assign) and is_call(n.value)
             for t in n.targets if isinstance(t, ast.Name)}

    def over_vertices(it):
        return any(is_call(m) or (isinstance(m, ast.Name) and m.id in names)
                   for m in ast.walk(it))

    for n in ast.walk(node):
        if isinstance(n, ast.For) and over_vertices(n.iter):
            yield n.lineno
        elif (isinstance(n, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
              and any(over_vertices(g.iter) for g in n.generators)):
            yield n.lineno


def test_the_atlas_loops_over_no_cover_vertices():
    # the atlas is arrays over the coarse grid, so every step over its
    # vertices and edges is one batched kernel; only the cover lists them
    loops = [(name, line)
             for name, node in _functions(ast.parse((SRC / "holonomy.py").read_text()))
             if not name.startswith("CubicalCover.") for line in _vertex_loops(node)]
    assert not loops, f"loops over cover vertices at {loops}"


# (module, function) allowed to call `CubicalCover.for_lattice`: `build_atlas`
# owns the default cover, and the CLI builds the cover of an explicit --spacing
COVER_CHOOSERS = {("holonomy.py", "build_atlas"), ("cli.py", "cmd_holonomy")}


def test_the_default_cover_has_one_owner():
    calls = {(path.name, name) for path in MODULES
             for name, node in _functions(ast.parse(path.read_text()))
             for n in ast.walk(node)
             if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "for_lattice"}
    assert calls <= COVER_CHOOSERS, f"covers chosen outside their owners: {calls - COVER_CHOOSERS}"


# (module, function) allowed to call `group_exp` on a form's coefficients:
# a connection's transports are read from `lattice.transports`, and a
# second exponential of link coefficients repeats that work
LINK_EXPONENTIALS = {("lattice.py", "transports")}


def test_link_coefficients_have_one_exponential():
    calls = {(path.name, name) for path in MODULES
             for name, node in _functions(ast.parse(path.read_text()))
             for n in ast.walk(node)
             if isinstance(n, ast.Call)
             and "group_exp" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
             and any(isinstance(m, ast.Attribute) and m.attr == "coeffs" for m in ast.walk(n))}
    assert calls <= LINK_EXPONENTIALS, \
        f"link coefficients exponentiated outside `transports`: {sorted(calls - LINK_EXPONENTIALS)}"


# (module, function) -> the `np.linalg` routines it may call outside
# `algebra.py`, which owns every decomposition of a group element or an
# algebra table: the polar projection and the conjugator's Sylvester null
# space, the descent's range report of one link, and a hedgehog's radii
LINALG_OWNERS = {("holonomy.py", "_project_group"): {"svd", "det"},
                 ("holonomy.py", "_align_constant"): {"svd", "det"},
                 ("minimize.py", "_link_distance"): {"eigvals"},
                 ("lattice.py", "make_hedgehog"): {"norm"}}


def test_linear_algebra_has_listed_owners():
    calls = {(path.name, name, n.func.attr) for path in MODULES if path.name != "algebra.py"
             for name, node in _functions(ast.parse(path.read_text()))
             for n in ast.walk(node)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
             and isinstance(n.func.value, ast.Attribute) and n.func.value.attr == "linalg"}
    stray = sorted(c for c in calls if c[2] not in LINALG_OWNERS.get(c[:2], ()))
    assert not stray, f"np.linalg called outside algebra.py and its listed owners: {stray}"
    # every listed routine is still called, so the list names no dead owner
    listed = {(m, f, r) for (m, f), rs in LINALG_OWNERS.items() for r in rs}
    assert listed <= calls, f"listed but never called: {sorted(listed - calls)}"


def _self_calls(fn):
    """Lines where the function `fn` calls its own name: bare, or through
    `self` or `cls`; another object's method of the same name is not `fn`."""
    for n in ast.walk(fn):
        f = getattr(n, "func", None)
        if isinstance(n, ast.Call) and (getattr(f, "id", None) == fn.name or (
                isinstance(f, ast.Attribute) and f.attr == fn.name
                and getattr(f.value, "id", None) in ("self", "cls"))):
            yield n.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    # kernels take one batch: the failing part of a batch is read off its
    # error's mask, not found by recursing over sub-batches
    calls = [(fn.name, line) for fn in ast.walk(ast.parse(path.read_text()))
             if isinstance(fn, ast.FunctionDef) for line in _self_calls(fn)]
    assert not calls, f"{path.name}: functions calling themselves at {calls}"


def test_sector_invariants_are_built_at_one_site():
    # the rounding of the charges and its SectorError gate have one copy,
    # shared by `sector_of` and the charge read off a connection's links
    tree = ast.parse((SRC / "invariants.py").read_text())
    sites = [n.lineno for n in ast.walk(tree)
             if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "SectorInvariants"]
    assert len(sites) == 1, f"SectorInvariants built at lines {sites}"


# (module, function, parameter) whose default no call in src/ or perfbench/
# overrides, each named with the consumer that keeps it
UNPASSED_DEFAULTS = {
    ("holonomy.py", "build_atlas", "flatness_gate"): "the flatness gate tests of test_holonomy",
    ("holonomy.py", "develop_cube", "flatness_gate"): "test_criterion_6_developing_map",
    ("lattice.py", "make_winding", "axis"): "test_invariants and test_lattice, other loops",
    ("cli.py", "main", "argv"): "test_fileio_cli, which calls main with an argument list",
    ("lattice.py", "zero_one_form", "sampling"):
        "the tests that pass \"site\", and perfbench, which passes \"link\" until revised",
    ("fileio.py", "read_one_form", "sampling"):
        "the tests that pass \"site\", and perfbench, which passes \"link\" until revised",
}


def _init_fields(cls: ast.ClassDef) -> list:
    """The fields of a @dataclass class that are parameters of its
    constructor, in order: every annotated name not declared
    `field(..., init=False)`.  Any other class has none."""
    if not any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in cls.decorator_list):
        return []
    return [n for n in cls.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
            and not (isinstance(n.value, ast.Call) and getattr(n.value.func, "id", None) == "field"
                     and any(kw.arg == "init" and getattr(kw.value, "value", True) is False
                             for kw in n.value.keywords))]


def _defaulted(tree: ast.Module):
    """(callee, parameter, position, default) of every parameter with a
    default in a public function or method, or in a public dataclass's
    constructor, a field with a default counting at its place among the
    init fields; a constructor is called by its class name, a keyword-only
    parameter has no position, and the default is its expression node."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            yield from ((cls.name, n.target.id, i, n.value)
                        for i, n in enumerate(_init_fields(cls)) if n.value is not None)
    for name, node in _functions(tree):
        cls, _, meth = name.rpartition(".")
        if cls.startswith("_") or (meth.startswith("_") and meth != "__init__"):
            continue
        callee = cls if meth == "__init__" else meth
        args = node.args
        bound = bool(cls) and not any(getattr(d, "id", None) == "staticmethod"
                                      for d in node.decorator_list)
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, (arg, d) in enumerate(zip(positional[first:], args.defaults), first):
            yield callee, arg.arg, i - bound, d
        yield from ((callee, arg.arg, None, d)
                    for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def _call_sites(node, own=frozenset()):
    """(callee, positional arguments, {keyword: argument}, * splat, ** splat)
    of every call under node, each argument an expression node.  A splat of
    the enclosing function's own *args or **kwargs forwards what that
    function's callers pass, so it passes nothing itself."""
    if isinstance(node, ast.FunctionDef):
        own = frozenset(a.arg for a in (node.args.vararg, node.args.kwarg) if a)
    if isinstance(node, ast.Call):
        def splat(value):
            return getattr(value, "id", None) not in own
        yield (getattr(node.func, "id", None) or getattr(node.func, "attr", None),
               [a for a in node.args if not isinstance(a, ast.Starred)],
               {kw.arg: kw.value for kw in node.keywords if kw.arg},
               any(isinstance(a, ast.Starred) and splat(a.value) for a in node.args),
               any(kw.arg is None and splat(kw.value) for kw in node.keywords))
    for child in ast.iter_child_nodes(node):
        yield from _call_sites(child, own)


def test_every_default_is_overridden_by_some_call():
    # a parameter whose default no caller changes is an option without a
    # consumer; the tests do not count, so each such default names its own.
    # A call may pass a parameter by keyword, by a ** mapping, or by
    # reaching its position, and a * splat reaches every position.  An
    # argument spelled as the default passes it back, which overrides nothing
    sites = {}
    for d in ("src", "perfbench"):
        for path in sorted((ROOT / d).rglob("*.py")):
            for callee, *site in _call_sites(ast.parse(path.read_text())):
                sites.setdefault(callee, []).append(site)

    def passed(callee, param, pos, default):
        def overrides(arg):
            return ast.dump(arg) != ast.dump(default)

        return any((param in kws and overrides(kws[param])) or dsplat
                   or (pos is not None and (splat or (pos < len(args) and overrides(args[pos]))))
                   for args, kws, splat, dsplat in sites.get(callee, ()))

    unpassed = {(path.name, callee, param)
                for path in MODULES
                for callee, param, pos, default in _defaulted(ast.parse(path.read_text()))
                if not passed(callee, param, pos, default)}
    assert unpassed <= UNPASSED_DEFAULTS.keys(), \
        f"defaults no call overrides: {sorted(unpassed - UNPASSED_DEFAULTS.keys())}"
    assert UNPASSED_DEFAULTS.keys() <= unpassed, \
        f"allowlisted defaults that a call now passes: {sorted(UNPASSED_DEFAULTS.keys() - unpassed)}"
