"""Structural checks on the library source, read with ``ast``.

Every category, built by the library, read from raw ids with
``core.validate_category`` or filled cell by cell by
``groth.grothendieck``, is coded once, by ``core.from_cells``, and checked
once by the stage all three share, the one caller of the ``FinCat``
constructor, which reads the cells of the coding and never the string
table; in the library only the JSON reader calls ``validate_category``, and
no module but ``core`` codes a category.  Functors are checked, cartesian
morphisms found and fibers reindexed on the codings too, which one run
confirms: a Grothendieck construction, a functor load, a fibration check, a
cleaving and its reindexing functors leave no string table behind, and
so do conditions 6 and 7, both square tests, the preservation of pullbacks
and of weak pushouts and the whole FI-type audit, which read the codings as
well.
Indexed data is coded once, on the joined codings of its fibers: its
checks, the squares of a natural transformation and the fill of a
Grothendieck total read the codes, and no function of ``indexed``,
``functors`` or ``groth`` reads a table, which one run confirms on the
base, the fibers and the total.  Its compositors and unitors stay arrays,
and its arrows are checked all at once: a run confirms that validating
one makes no ``NatTrans`` and calls no ``validate_functor``, and the
transitivity factorisation condition composes on the cells as well.
``ioformats`` writes and reads a category on its cells and
``core.subcategory`` composes on them, so writing a total and cutting the
fibers of its projection make none either.  The other builders compose
whole pairs of blocks, or list each morphism by its parts for
``core.from_parts``, which composes on the factors' cells: no library
module composes one payload at a time, the builders that list parts call
no ``comp``, and an arrow category, a product and the group of a
one-object groupoid or of the automorphisms of an object leave no table,
which runs confirm.  The library never depends on test
helpers, the limits, groth, core, functors and indexed oracles never
depend on the library's private search code, no function imports a
sibling module, no module imports a sibling's underscore name, and no
module imports a name it does not use.  ``ioformats`` alone decides what
an id is, so the validators it hands ids to convert none.  No module but
``core`` reads ``.table``, and the codes of the identities, the inverses
and Light's S are read off the coding, never coded back from the string
views: slices indexed by chosen pullbacks, ``comp`` and the fiberwise
weak pushout construction leave no table, which one run confirms.
"""

import ast
import json
import pathlib

from fibcat import cli, groups, indexed
from fibcat.fitype import check_fi_type
from fibcat.functors import NatTrans, identity_functor
from fibcat.generators import (
    arrow_category,
    chain_poset,
    delta_const,
    fi_truncated,
    gpow_fiber,
    indexed_gpow,
    inj_id,
    product_category,
    slice_indexed,
)
from fibcat.groth import choose_cleaving, fiber, grothendieck, is_fibration, reindexing
from fibcat.groups import (
    automorphism_group,
    category_as_group,
    cyclic_group,
    group_as_category,
    symmetric_group,
)
from fibcat.ioformats import (
    Loader,
    category_to_json,
    functor_to_json,
    indexed_to_json,
    stable_dumps,
)
from fibcat.limits import (
    all_cospans,
    all_spans,
    has_pullbacks,
    has_weak_pushouts,
    is_pullback_square,
    is_weak_pushout_square,
    preserves_pullbacks,
    preserves_weak_pushouts,
    pullback,
    weak_pushout,
)
from fibcat.theorem import check_hypotheses, construct_weak_pushout_total, invertible_arrow_witness

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fibcat"


def _modules():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_library_imports_no_test_helpers():
    bad = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [node.module or ""]
            else:
                continue
            bad += [(name, t) for t in targets if t.split(".")[0] in ("tests", "conftest")]
    assert bad == []


def _references(tree, target, calls=False):
    """Qualified names of the functions whose bodies mention ``target``, or
    with ``calls`` only those that call it."""
    found = []

    def named(node):
        return (isinstance(node, ast.Name) and node.id == target) or (
            isinstance(node, ast.Attribute) and node.attr == target
        )

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if calls:
            hit = isinstance(node, ast.Call) and named(node.func)
        else:
            hit = named(node)
        if hit:
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def _callers(target, calls):
    return sorted(
        "%s.%s" % (name, where)
        for name, tree in _modules()
        for where in _references(tree, target, calls)
    )


def test_validate_category_has_exactly_two_callers():
    """The seams of the one path: ``core._checked``, the checks that every
    builder shares, alone calls the ``FinCat`` constructor; ``core.from_cells``,
    which hands a fresh coding to its caller's fill, alone calls
    ``_checked``; ``from_parts``, ``subcategory``, ``validate_category``,
    the injection builder of ``generators``, ``grothendieck`` and
    ``validate_group``, which codes a group's table as its one-object
    groupoid, build through it; and
    ``ioformats.category_from_json`` alone mentions ``validate_category``."""
    assert _callers("FinCat", True) == ["core._checked"]
    assert _callers("_checked", True) == ["core.from_cells"]
    assert _callers("from_cells", True) == [
        "core.from_parts",
        "core.subcategory",
        "core.validate_category",
        "generators._injection_category",
        "groth.grothendieck",
        "groups.validate_group",
    ]
    assert _callers("validate_category", False) == ["ioformats.category_from_json"]


def test_no_library_module_defines_or_calls_assemble():
    """The block builder ``assemble`` and its ``compose(x, y, z)`` protocol
    left the library: every builder writes its cells through ``from_cells``,
    and ``assemble`` lives on in ``core_reference`` for the tests alone."""
    modules = dict(_modules())
    defined = {n.name for t in modules.values() for n in ast.walk(t) if isinstance(n, ast.FunctionDef)}
    assert "assemble" not in defined
    assert _callers("assemble", False) == []


def _reads(module, name):
    """The attributes and names read in the body of the function ``name``
    of ``module``, and the names of the functions it calls."""
    (fn,) = [
        node
        for node in ast.walk(dict(_modules())[module])
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]

    def name_of(n):
        return getattr(n, "attr", getattr(n, "id", None))

    nodes = list(ast.walk(fn))
    read = {name_of(n) for n in nodes if isinstance(n, (ast.Attribute, ast.Name))}
    return read, {name_of(n.func) for n in nodes if isinstance(n, ast.Call)}


def test_checks_read_only_the_cells():
    """``core._checked`` and the checks it runs read the coding alone: no
    build or load makes the string ``table``, which ``FinCat`` derives from
    the cells when it is first read."""
    checks = (
        "_checked",
        "_check_units",
        "_generators",
        "_check_associativity",
        "_raise_first_violation",
    )
    read = set().union(*(_reads("core", name)[0] for name in checks))
    assert "cells" in read and not read & {"table", "_table"}


def test_functor_checks_read_only_the_cells():
    """Light's test of a functor, the code map it runs on and the cartesian
    test read the codings: no build, functor load, fibration or cleaving
    makes the string ``table`` of a category."""
    for module, name in (
        ("functors", "validate_functor"),
        ("functors", "code_map"),
        ("groth", "is_cartesian"),
    ):
        read, called = _reads(module, name)
        assert "coding" in read, name
        assert not read & {"table", "_table"} and "comp" not in called, name


def test_pullback_search_reads_only_the_cells():
    """The search that decides every pullback of a category in one pass
    (the factor counts, the orbits of rows, the search over the rows least
    in their orbits and the fill of the others), the square test,
    ``check_square``, the completion classes and the hit count of condition
    7, the two preservation checks and ``core.is_transitive`` read the
    codings, and no function of ``limits`` reads the string ``table`` or
    calls ``comp``."""
    for module, name in [("core", "is_transitive")] + [
        ("limits", name)
        for name in (
            "_factorings",
            "_orbits",
            "_search",
            "_pullbacks",
            "_is_pullback",
            "check_square",
            "_cospan_walk",
            "_mediators",
            "_initial",
            "weak_pushout",
            "has_weak_pushouts",
            "preserves_pullbacks",
            "preserves_weak_pushouts",
        )
    ]:
        read, called = _reads(module, name)
        assert "coding" in read, name
        assert not read & {"table", "_table"} and "comp" not in called, name
    tree = dict(_modules())["limits"]
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not read & {"table", "_table", "comp"}


def test_no_pullback_check_makes_a_table():
    """The run the structural test above stands for: conditions 6 and 7,
    both preservation checks, a chosen pullback and weak pushout and both
    square tests on a fresh category leave no ``table`` behind, and neither
    does the whole FI-type audit of FI_4 or of a product of chains."""
    C = fi_truncated(3)
    assert has_pullbacks(C) and preserves_pullbacks(identity_functor(C))
    assert has_weak_pushouts(C) and preserves_weak_pushouts(identity_functor(C))
    cospan = next(iter(all_cospans(C)))
    assert is_pullback_square(C, pullback(C, cospan).square(cospan))
    span = next(span for span in all_spans(C) if weak_pushout(C, span))
    assert is_weak_pushout_square(C, weak_pushout(C, span).square)
    assert "table" not in vars(C)
    for C in (fi_truncated(4), product_category(chain_poset(3), chain_poset(4))):
        check_fi_type(C)
        assert "table" not in vars(C)


def test_no_functor_check_makes_a_table():
    """The run the structural test above stands for: the total category of
    a Grothendieck construction, and both categories of a projection read
    from its file, then checked for a fibration and cleaved, have no
    ``table``; it is made only when something reads it."""
    gr = grothendieck(indexed_gpow(cyclic_group(2), 3))
    assert "table" not in vars(gr.total)
    data = json.loads(stable_dumps(functor_to_json(gr.proj)))
    P = Loader().functor(data)
    assert is_fibration(P)
    cleaving = choose_cleaving(P)
    assert all(reindexing(P, cleaving, f).on_morphisms for f in P.target.morphisms)
    assert "table" not in vars(P.source) and "table" not in vars(P.target)
    assert len(P.source.table) == len(gr.total.table)


def test_indexed_functor_and_groth_modules_read_no_table():
    """``validate_indexed`` decides every check after the arrows on the
    codes of ``indexed.IndexedCoding``, ``validate_nat_trans`` composes its
    squares on the cells and ``groth`` fills a total from those codes: no
    function of the three modules reads a ``table`` or calls ``comp``."""
    modules = dict(_modules())
    for name in ("indexed", "functors", "groth"):
        read = {n.attr for n in ast.walk(modules[name]) if isinstance(n, ast.Attribute)}
        assert "coding" in read and not read & {"table", "_table", "comp"}, name


def test_grothendieck_of_an_indexed_category_makes_no_table():
    """The run the structural test above stands for: building an indexed
    category, validating it and its Grothendieck total leave no ``table``
    on the base, on a fiber or on the total."""
    M = indexed_gpow(cyclic_group(2), 3)
    gr = grothendieck(M)
    made = [C for C in (M.base, *M.fibers.values(), gr.total) if "table" in vars(C)]
    assert made == []


def test_validating_an_indexed_category_makes_no_transformation(monkeypatch):
    """``validate_indexed`` keeps every compositor and unitor as the arrays
    of its coding and checks the arrows in one pass: on the parts of
    ``indexed_gpow(Z2, 3)``, with the default identities or with the views
    of a validated category given back, it constructs no ``NatTrans`` and
    calls ``validate_functor`` zero times.  Reading a view makes it, once."""
    M = indexed_gpow(cyclic_group(2), 3)
    made, checked = [], []
    init = NatTrans.__init__
    monkeypatch.setattr(NatTrans, "__init__", lambda self, *a: made.append(a) or init(self, *a))
    monkeypatch.setattr(indexed, "validate_functor", lambda *a: checked.append(a))
    N = indexed.validate_indexed(M.base, M.fibers, M.arrows)
    indexed.validate_indexed(M.base, M.fibers, M.arrows, N.compositors, N.unitors)
    assert (made, checked) == ([], [])
    f, g = next(iter(N.compositors))
    assert N.mu(f, g) is N.compositors[(f, g)] and len(made) == 1


def test_ell_condition_composes_on_the_cells():
    """The factorisation condition of the transitivity lemma reads mu from
    ``M.coding`` and composes on the cells: it calls no ``comp`` and reads
    no ``table``."""
    read, called = _reads("fitype", "transitivity_ell_condition")
    assert "coding" in read and not read & {"table", "_table"} and "comp" not in called


def test_json_edge_reads_no_table():
    """``ioformats`` writes a category from its cells and reads one into
    them: no function there reads a ``table``."""
    tree = dict(_modules())["ioformats"]
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "coding" in read and not read & {"table", "_table", "comp"}


def test_writing_a_total_and_its_fibers_make_no_table(tmp_path, monkeypatch):
    """The run the structural test above and the subcategory composer stand
    for: writing the total of a Grothendieck construction, in process or by
    ``fibcat groth -o``, and cutting the fibers of its projection leave no
    ``table`` on the total or on a fiber."""
    gr = grothendieck(indexed_gpow(cyclic_group(2), 3))
    category_to_json(gr.total)
    fibers = [fiber(gr.proj, x) for x in gr.proj.target.objects]
    assert "table" not in vars(gr.total)
    assert not [F for F in fibers if "table" in vars(F)]

    made = []
    monkeypatch.setattr(cli, "grothendieck", lambda M: made.append(grothendieck(M)) or made[-1])
    path, out = tmp_path / "m.json", tmp_path / "total.json"
    path.write_text(stable_dumps(indexed_to_json(gr.indexed)))
    assert cli.main(["--quiet", "groth", str(path), "-o", str(out)]) == 0
    (written,) = made
    assert "table" not in vars(written.total)
    assert json.loads(out.read_text())["total"] == category_to_json(gr.total)


def test_only_core_codes_a_category():
    """A category's integer coding is built once, by ``core``, and kept on
    ``FinCat``: ``core._coding`` alone calls the ``Coding`` constructor, no
    module keeps a coder of its own, and no module but ``core`` names
    ``_coding`` or ``_checked``.  The Grothendieck construction fills the
    total's cells from the stored codings of the fibers and the base: no
    function in ``groth`` calls ``assemble`` or ``comp`` or reads a
    ``table``."""
    modules = dict(_modules())
    assert _callers("Coding", True) == ["core._coding"]
    classes = {n.name for t in modules.values() for n in ast.walk(t) if isinstance(n, ast.ClassDef)}
    assert "_Codes" not in classes
    for name in ("_coding", "_checked"):
        assert {where.split(".")[0] for where in _callers(name, False)} == {"core"}, name
    groth = modules["groth"]
    read = {node.attr for node in ast.walk(groth) if isinstance(node, ast.Attribute)}
    assert "coding" in read and not read & {"table", "_table", "comp"}
    assert not _references(groth, "assemble")


def test_only_core_reads_the_string_table():
    """``FinCat.table`` is a derived read for callers outside the library:
    no module but ``core``, which derives it, reads ``.table``."""
    readers = sorted(
        name
        for name, tree in _modules()
        if name != "core" and any(isinstance(n, ast.Attribute) and n.attr == "table" for n in ast.walk(tree))
    )
    assert readers == []


def test_no_comprehension_codes_the_string_views_back():
    """The codes of the identities, the inverses and S are kept on the
    coding, as ``Coding.units``, ``inverse`` and ``gens``: no library
    comprehension turns ``.inverses``, ``.generators``, ``.identity`` or
    ``id_of(...)`` back into codes by a ``code[...]`` lookup."""
    views = {"inverses", "generators", "identity", "id_of"}
    comprehensions = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, comprehensions):
                continue
            inner = list(ast.walk(node))
            codes = any(isinstance(n, ast.Subscript) and getattr(n.value, "attr", None) == "code" for n in inner)
            if codes and {n.attr for n in inner if isinstance(n, ast.Attribute)} & views:
                found.append("%s:%d" % (name, node.lineno))
    assert found == []


def test_slices_composites_and_the_weak_pushout_construction_make_no_table():
    """The runs the two structural tests above stand for: the slices of
    FI_3 indexed by chosen pullbacks, a composite read with ``comp`` and the
    weak pushout built fiberwise in a total category leave no ``table`` on
    the categories they compose in."""
    C = fi_truncated(3)
    M = slice_indexed(C)
    assert C.comp(C.id_of("1"), C.hom("1", "2")[0]) == C.hom("1", "2")[0]
    made = [D for D in (C, *M.fibers.values()) if "table" in vars(D)]
    assert made == []
    fi2 = fi_truncated(2)
    M = delta_const(fi2, fi2)
    gr = grothendieck(M)
    f, k = inj_id(0, 1, ()), inj_id(0, 1, ())
    leg1, leg2 = gr.mor_id[(f, k, "1")], gr.mor_id[(f, inj_id(0, 0, ()), "0")]
    hyp = check_hypotheses(M, invertible_arrow_witness(M), gr=gr)
    apex = gr.obj_id[("0", "0")]
    construct_weak_pushout_total(M, invertible_arrow_witness(M), apex, leg1, leg2, gr=gr, hypotheses=hyp)
    assert [D for D in (fi2, gr.total) if "table" in vars(D)] == []


PART_BUILDERS = (
    "generators._product",
    "generators._relation_category",
    "generators.arrow_category",
    "generators.gpow_fiber",
    "generators.slice_category",
    "groups.group_as_category",
)


def test_no_library_module_composes_one_payload_at_a_time():
    """The injection builders compose whole pairs of blocks with numpy,
    ``core.subcategory`` gathers its parent's cells, the Grothendieck
    construction fills its cells itself, and
    every other builder lists its morphisms' parts for ``core.from_parts``
    or, for a group, is the groupoid that ``validate_group`` coded: no module
    defines or names ``per_composite``, whose per-composite formulas live
    only in the test oracle, and none of these builders calls ``comp`` or
    reads a ``table``."""
    assert _callers("per_composite", False) == []
    modules = dict(_modules())
    defined = {n.name for t in modules.values() for n in ast.walk(t) if isinstance(n, ast.FunctionDef)}
    assert "per_composite" not in defined
    assert _callers("from_parts", True) == [
        "generators._product",
        "generators._relation_category",
        "generators.arrow_category",
        "generators.slice_category",
    ]
    for where in PART_BUILDERS:
        read, called = _reads(*where.split("."))
        assert not read & {"table", "_table"} and "comp" not in called, where
    assert not [p.name for p in SRC.glob("*.py") if "decorated_composite" in p.read_text()]


def test_part_builders_and_group_bridges_make_no_table():
    """The runs the structural test above stands for: an arrow category, a
    product of chains and a power of a group leave no ``table`` on their
    input or on what they build, and neither do the group of a one-object
    groupoid and the automorphism group of an object."""
    C, chain = fi_truncated(3), chain_poset(3)
    built = [arrow_category(C), product_category(chain, chain), gpow_fiber(cyclic_group(3), 3)]
    assert not [D for D in [C, chain] + built if "table" in vars(D)]
    S3 = group_as_category(symmetric_group(3))
    assert category_as_group(S3).mult == symmetric_group(3).mult
    assert len(automorphism_group(C, "3")) == 6
    assert "table" not in vars(S3) and "table" not in vars(C)


def test_a_group_is_its_one_object_groupoid(monkeypatch):
    """A group keeps its groupoid, so ``group_as_category`` hands back the
    same category each time, and the bridges from a checked category wrap
    or cut it without checking the group axioms again: they never call
    ``validate_group``."""
    S3, Z2, FI3 = symmetric_group(3), cyclic_group(2), fi_truncated(3)
    assert group_as_category(S3) is group_as_category(S3) is S3.category
    sign = groups.validate_group_hom(S3, Z2, {g: str(_sign(g)) for g in S3.elements})

    def refuse(*args):
        raise AssertionError("validate_group called")

    monkeypatch.setattr(groups, "validate_group", refuse)
    C = group_as_category(S3)
    assert category_as_group(C).category is C
    assert groups.groups_isomorphic(automorphism_group(FI3, "3"), S3)
    assert groups.kernel_subgroup(sign).elements == ("012", "120", "201")


def _sign(word):
    """0 for an even permutation written as an image word, else 1."""
    return sum(a > b for i, a in enumerate(word) for b in word[i + 1 :]) % 2


def test_group_extension_makes_no_table(monkeypatch):
    """``fibcat group ext``'s path: the group of the total category of a
    twisted action is read from the total's cells, which keeps no
    ``table``."""
    made = []
    monkeypatch.setattr(groups, "grothendieck", lambda M: made.append(grothendieck(M)) or made[-1])
    Z2 = cyclic_group(2)
    ext = groups.extension_from_twisted(groups.strict_twisted(Z2, Z2, groups.trivial_action(Z2, Z2)))
    (gr,) = made
    assert len(ext.total) == 4 and "table" not in vars(gr.total)


def _private_names(oracle):
    """Underscore names an oracle imports or reads as attributes."""
    path = TESTS / oracle
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [part for a in node.names for part in a.name.split(".")]
            private += [n for n in names if n.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            private.append(node.attr)
    return private


def test_limits_oracle_uses_no_private_library_name():
    """The oracle imports no underscore name and reads no underscore
    attribute, so it cannot reach into the search code it checks."""
    assert _private_names("limits_reference.py") == []


def test_groth_oracle_uses_no_private_library_name():
    """Likewise the cartesian-morphism oracle and the lift scan it checks."""
    assert _private_names("groth_reference.py") == []


def test_core_oracle_uses_no_private_library_name():
    """Likewise the axiom-check oracle and the local-code sweep it checks."""
    assert _private_names("core_reference.py") == []


def test_functors_oracle_uses_no_private_library_name():
    """Likewise the full-loop functor check and Light's test it checks."""
    assert _private_names("functors_reference.py") == []


def test_groups_oracle_uses_no_private_library_name():
    """Likewise the loop-by-loop group check and the groupoid check it
    checks."""
    assert _private_names("groups_reference.py") == []


def test_indexed_oracle_uses_no_private_library_name():
    """Likewise the full-scan indexed-category check and the coherence and
    naturality checks by Light's test that it checks."""
    assert _private_names("indexed_reference.py") == []


def test_no_function_imports_a_sibling_module():
    """Every library import sits at module top: none breaks an import cycle,
    and a function-local one hides a module's dependencies."""
    local = []
    for name, tree in _modules():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.ImportFrom) and (
                        node.level > 0 or (node.module or "").split(".")[0] == "fibcat"
                    ):
                        local.append((name, fn.name, node.module))
                    elif isinstance(node, ast.Import):
                        local += [
                            (name, fn.name, a.name)
                            for a in node.names
                            if a.name.split(".")[0] == "fibcat"
                        ]
    assert local == []


def test_no_module_imports_a_private_sibling_name():
    """An underscore name is its module's own; a sibling that needs one
    needs a public function instead, as ``cli`` needs ``Loader``."""
    private = sorted(
        "%s: %s" % (name, alias.name)
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "fibcat")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    )
    assert private == []


VALIDATORS = {
    "core": ["validate_category"],
    "functors": ["validate_functor", "validate_nat_trans"],
    "groups": [
        "validate_group",
        "validate_group_hom",
        "validate_right_action",
        "twisted_from_surjection",
    ],
}


def test_validators_take_string_ids_as_given():
    """``ioformats`` reads every id in a file as a string; a validator that
    called ``str()`` again would turn a non-id into one the file never names."""
    modules = dict(_modules())
    for name, fns in VALIDATORS.items():
        defined = {n.name for n in modules[name].body if isinstance(n, ast.FunctionDef)}
        assert set(fns) <= defined
    calls = sorted(
        "%s.%s" % (name, where)
        for name, fns in VALIDATORS.items()
        for where in _references(modules[name], "str", True)
        if where.split(".")[0] in fns
    )
    assert calls == []


def _unused_imports(tree):
    """Names a module imports but never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_unused_imports():
    """``__init__`` re-exports the public API; elsewhere the only import kept
    without a use is ``fitype.pullback``, which the benchmark tracer reads."""
    unused = sorted(
        "%s.%s" % (name, imported)
        for name, tree in _modules()
        if name != "__init__"
        for imported in _unused_imports(tree)
    )
    assert unused == ["fitype.pullback"]


def test_cospan_and_span_wrappers_have_no_library_caller():
    """``limits._pairs`` is the one enumerator of cospans and spans, as raw
    id pairs; ``all_cospans`` and ``all_spans`` wrap it in one dataclass per
    element for callers outside the library, so no library function may
    loop over them."""
    mentions = sorted(
        "%s.%s" % (name, where)
        for name, tree in _modules()
        for target in ("all_cospans", "all_spans")
        for where in _references(tree, target)
    )
    assert mentions == []


def test_stable_dumps_is_the_one_json_writer():
    """Every JSON text the library writes comes from ``stable_dumps``, so no
    writer skips its fast path or its byte contract: the stdlib writer is
    called only by ``_write``, the recursive body of ``stable_dumps``."""

    def callers(target):
        return sorted(
            {
                "%s.%s" % (name, where)
                for name, tree in _modules()
                for where in _references(tree, target, True)
            }
        )

    assert callers("dumps") + callers("dump") == ["ioformats._write"]
    assert callers("_write") == ["ioformats._write", "ioformats.stable_dumps"]
