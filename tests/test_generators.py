import hashlib
import math

import pytest

from fibcat import (
    CategoryError,
    check_fi_type,
    functor_properties,
    grothendieck,
    is_fibration,
    validate_category,
)
from fibcat.generators import (
    MissingPullback,
    arrow_category,
    block_perm_indexed,
    chain_poset,
    codiscrete_category,
    colored_strings,
    delta_const,
    discrete_category,
    fi_colored,
    fi_g_direct,
    fi_truncated,
    indexed_gpow,
    inj_id,
    injections,
    parse_inj,
    product_category,
    slice_category,
    slice_indexed,
    span_poset,
    square_poset,
    terminal_category,
    thin_category,
)
from fibcat.groth import fiber
from fibcat.groups import cyclic_group, group_as_category, symmetric_group, trivial_group
from fibcat.indexed import restrict_to_aut
from fibcat.ioformats import category_to_json, indexed_to_json, stable_dumps
from fibcat.limits import Cospan, as_pullback

from comparisons import (
    block_counting_functor,
    codomain_check,
    fi_g_comparison,
    fi_gh_comparison,
    product_check,
)


def perm_count(n, m):
    return math.factorial(n) // math.factorial(n - m)


def test_fi_truncated_zero_is_terminal():
    C = fi_truncated(0)
    assert len(C.objects) == 1 and len(C.morphisms) == 1


def test_fi_hom_sizes(fi3):
    for m in range(4):
        for n in range(m, 4):
            assert len(fi3.hom(str(m), str(n))) == perm_count(n, m)
    assert len(fi3.hom("2", "3")) == 6


def test_fi4_is_fi_type(fi4):
    assert check_fi_type(fi4).holds


def test_gpow_fiber_sizes(z2):
    M = indexed_gpow(z2, 3)
    assert len(M.fiber_at("3").morphisms) == 8
    assert M.strict


def test_gpow_trivial_group_total_is_fi():
    M = indexed_gpow(trivial_group(), 2)
    gr = grothendieck(M)
    fi2 = fi_truncated(2)
    assert len(gr.total.morphisms) == len(fi2.morphisms)
    assert len(gr.total.objects) == len(fi2.objects)


def test_fi_g_direct_counts(z2):
    C = fi_g_direct(z2, 3)
    assert len(C.hom("2", "3")) == 4 * 6  # 24
    aut = [f for f in C.hom("3", "3") if f in C.inverses]
    assert len(aut) == 8 * 6  # 48


def test_fi_g_comparison_nonabelian():
    s3 = symmetric_group(3)
    _, props = fi_g_comparison(s3, 2)
    assert props.equivalence


def test_product_check_cases(fi2):
    pc = product_check(fi2, fi2)
    assert pc.properties.equivalence and pc.projection_agrees
    pc2 = product_check(fi2, terminal_category())
    assert pc2.properties.equivalence and pc2.projection_agrees
    # the FI-type audit passes for the product of truncations
    gr = grothendieck(delta_const(fi2, fi2))
    assert check_fi_type(gr.total).holds


def test_block_counting_functor_properties():
    M = block_perm_indexed(2, 1)
    gr = grothendieck(M)
    c = block_counting_functor(gr, 2, 1)
    props = functor_properties(c)
    assert props.essentially_surjective.holds
    assert not props.faithful.holds
    # zero-size blocks also defeat fullness: nothing maps (2,(1,0)) -> (1,(1))
    # although the underlying sets both have one point
    assert not props.full.holds
    src = gr.obj_id[("2", "(1,0)")]
    tgt = gr.obj_id[("1", "(1)")]
    assert not gr.total.hom(src, tgt)
    assert c.ob(src) == "1" and c.ob(tgt) == "1"


def test_block_single_block_collapses():
    M = block_perm_indexed(1, 1)
    gr = grothendieck(M)
    # objects (1, (m)) for m <= 1 plus (0, ()): graded copy of FI(<=1)
    assert len(gr.total.objects) == 3
    c = block_counting_functor(gr, 1, 1)
    assert functor_properties(c).essentially_surjective.holds


def test_block_hom_count():
    M = block_perm_indexed(2, 1)
    gr = grothendieck(M)
    h = gr.total.hom(gr.obj_id[("1", "(1)")], gr.obj_id[("2", "(1,1)")])
    assert len(h) == 2


def test_colored_strings_respect_bound():
    strs = colored_strings("ab", 2)
    assert "aabb" in strs and "aaa" not in strs
    assert len(strs) == 19


def test_fi_gh_comparison_trivial_groups():
    rep = fi_gh_comparison(trivial_group(), trivial_group(), 2)
    assert rep.properties.equivalence
    # two-colouring count: strings with i a's and j b's number C(i+j, i)
    assert sum(1 for s in rep.colored.objects if len(s) == 2) == 4  # aa ab ba bb


def test_fi_gh_comparison_z2():
    z2 = cyclic_group(2)
    rep = fi_gh_comparison(z2, z2, 2)
    assert rep.properties.equivalence
    assert rep.functor.ob("(1@1)") == "ab"  # (m, n) goes to an m+n string


def test_slice_indexed_requires_pullbacks():
    from fibcat.generators import cospan_poset

    with pytest.raises(MissingPullback):
        slice_indexed(cospan_poset())


def test_slice_square_poset_codomain(fi2):
    rep = codomain_check(square_poset())
    assert rep.properties.equivalence
    assert rep.fibration and rep.cartesian_lifts_are_pullbacks


def test_slice_terminal_degenerates():
    rep = codomain_check(terminal_category())
    assert rep.properties.equivalence and rep.fibration


def test_slice_fi2_codomain(fi2):
    rep = codomain_check(fi2)
    assert rep.properties.equivalence
    assert rep.fibration and rep.cartesian_lifts_are_pullbacks


def test_noncanonical_choice_gives_nonidentity_compositor():
    # a poset with an isomorphic duplicate: overriding one chosen pullback
    # with the other representative produces a genuinely non-identity
    # compositor component, and everything still validates
    C = validate_category(
        ["a1", "a2", "b"],
        [
            ("i1", "a1", "a1"),
            ("i2", "a2", "a2"),
            ("ib", "b", "b"),
            ("u", "a1", "a2"),
            ("u'", "a2", "a1"),
            ("p", "a1", "b"),
            ("q", "a2", "b"),
        ],
        {"a1": "i1", "a2": "i2", "b": "ib"},
        [("u", "u'", "i1"), ("u'", "u", "i2"), ("u", "q", "p"), ("u'", "p", "q")],
    )

    def choose(cospan, pb):
        if cospan == Cospan("q", "q"):
            return as_pullback(C, cospan, "i2", "i2")
        return pb

    M = slice_indexed(C, choose)
    assert not M.strict
    nonid = [
        (k, o, c)
        for k, mu in M.compositors.items()
        for o, c in mu.components.items()
        if not M.fiber_at(M.base.src[k[0]]).is_identity(c)
    ]
    assert nonid
    gr = grothendieck(M)
    assert is_fibration(gr.proj).holds


def test_arrow_category_shape(fi2):
    A = arrow_category(fi2)
    assert set(A.objects) == set(fi2.morphisms)


def test_generators_deterministic(z2):
    a = stable_dumps(category_to_json(fi_truncated(2)))
    b = stable_dumps(category_to_json(fi_truncated(2)))
    assert a == b
    c = stable_dumps(indexed_to_json(indexed_gpow(z2, 2)))
    d = stable_dumps(indexed_to_json(indexed_gpow(z2, 2)))
    assert c == d


# sha256 of the stable JSON of small library-built categories, recorded
# while each constructor still wrote its own composition table; ids, composites
# and their order must not move.
GENERATOR_BYTES = {
    "fi_truncated(3)": "fad775647a6301bd02efde71770fca9163932d3b56bff03f187eb8be1dfbc52b",
    "fi_g_direct(Z2, 2)": "6405dded84a4715677df72c95a47ee6a05264993c5d140d58553a19e6af6e683",
    "fi_colored({a: Z2, b: Z2}, 1)": "b46b1b3f9d4fed910ea577e7f276d235e7ac40ccd6ac0d3410357836501a4aae",
    "slice_category(FI_2, '2')": "fa794ddf718bd2d343ad96b4a0585cf7fe1aeed66aa75c02f68177fd1cf18fd3",
    "arrow_category(FI_2)": "261dfe44e9a14d8256bc0c0cf7d827e6f5fba40e794398f67e406715198e60ca",
    "product_category(chain3, chain3)": "6f6fee4bc28e1a71f27e720695d4ad6df98afeb7a09124e5df3ca5a560955568",
    "square_poset()": "83080d2bc2c0e5a4bf9388b54a5e2da7157e1054ebcf5c140e7ab8a5d0f00f2a",
    "codiscrete_category('abc')": "54c2c79cc2cb3239713bbecfc4302e49c35007251e7f44e5f6cdf48365aeae47",
    "discrete_category('xyz')": "31483ed0aa64524699057ee1893e3aaf85bf9a0d623aa9c08132cd5885586af2",
    "terminal_category()": "370e017c5f7f05031936ede2d267c933f380b55f78035ad14fcb1ecfda0a893a",
    "group_as_category(S3)": "a0fe7f0fa1cdc5f44c9e6610c111b34a607527ffc040013e161023d2c53b0fb5",
    "block_perm_indexed(2, 1) fiber '2'": "47f52bd501444428a428267a80fb0e63dce3947af3dfc93dfb554e5641a9b013",
    "grothendieck(indexed_gpow(Z2, 2)).total": "8145f6d409ec4eee54f1cfd8ea1adef556fe73730e3267fdc59cdecaf10f246f",
    "fiber(proj, '1')": "0ac45bb029ee1f54cfe99d3e4fbce85f68f3c3c603880188aa4d302ae8b502d8",
    "restrict_to_aut(indexed_gpow(Z2, 2), '2').base": "66ed3e1c9e77481283b6f224405dd768232e33d0a3bfd4e962e9c9ae60113551",
    # the injection builders compose a block at a time with numpy; S3 pins
    # the order of the decoration product
    "fi_truncated(5)": "b187d36623be9c342979c61aa05aac148869cdb56c8a84e89d4e8d7f14a20bf2",
    "fi_g_direct(Z2, 4)": "953d4273a826a56800e5c751d2026e70381537220ee24fb4fb7688e524819a54",
    "fi_g_direct(S3, 2)": "18367fbc59e787229aec675db142d3d357750585194b896a9a9bae4095c10bdd",
    "fi_colored({a: S3, b: Z2}, 1)": "929f81e9d7ffcf48f481c796fb3ff90a99e6cbc63f01530adf89004a974a381a",
    # Grothendieck totals with non-identity compositors, many fiber objects
    # and a larger group, pinned before the block composer replaced the
    # per-composite one
    "grothendieck(slice_indexed(FI_3)).total": "98cb1e8a3405ae91e22007f0d859699918952fd127ff2d12e2f021d0cc9537df",
    "grothendieck(block_perm_indexed(3, 1)).total": "c72350c8e4b9cd7e5d277ddc3e7d549a674c0cb30bb07f4a509dd2c5559850f6",
    "grothendieck(indexed_gpow(Z3, 3)).total": "aab4e2b1fd067df1b3b6c7aba81994221f9eec3d9c18eecc8c7b3ddfcb8a7627",
}


def test_generator_bytes_are_pinned(z2, z3, s3, fi2):
    gpow = indexed_gpow(z2, 2)
    gr = grothendieck(gpow)
    built = {
        "fi_truncated(3)": fi_truncated(3),
        "fi_g_direct(Z2, 2)": fi_g_direct(z2, 2),
        "fi_colored({a: Z2, b: Z2}, 1)": fi_colored({"a": z2, "b": z2}, 1),
        "slice_category(FI_2, '2')": slice_category(fi2, "2"),
        "arrow_category(FI_2)": arrow_category(fi2),
        "product_category(chain3, chain3)": product_category(chain_poset(3), chain_poset(3)),
        "square_poset()": square_poset(),
        "codiscrete_category('abc')": codiscrete_category("abc"),
        "discrete_category('xyz')": discrete_category("xyz"),
        "terminal_category()": terminal_category(),
        "group_as_category(S3)": group_as_category(s3),
        "block_perm_indexed(2, 1) fiber '2'": block_perm_indexed(2, 1).fiber_at("2"),
        "grothendieck(indexed_gpow(Z2, 2)).total": gr.total,
        "fiber(proj, '1')": fiber(gr.proj, "1"),
        "restrict_to_aut(indexed_gpow(Z2, 2), '2').base": restrict_to_aut(gpow, "2").base,
        "fi_truncated(5)": fi_truncated(5),
        "fi_g_direct(Z2, 4)": fi_g_direct(z2, 4),
        "fi_g_direct(S3, 2)": fi_g_direct(s3, 2),
        "fi_colored({a: S3, b: Z2}, 1)": fi_colored({"a": s3, "b": z2}, 1),
        "grothendieck(slice_indexed(FI_3)).total": grothendieck(slice_indexed(fi_truncated(3))).total,
        "grothendieck(block_perm_indexed(3, 1)).total": grothendieck(block_perm_indexed(3, 1)).total,
        "grothendieck(indexed_gpow(Z3, 3)).total": grothendieck(indexed_gpow(z3, 3)).total,
    }
    digests = {
        name: hashlib.sha256(stable_dumps(category_to_json(C)).encode("utf-8")).hexdigest()
        for name, C in built.items()
    }
    assert digests == GENERATOR_BYTES


@pytest.mark.parametrize(
    "build",
    [
        lambda names: thin_category(names, lambda x, y: x <= y),
        codiscrete_category,
        discrete_category,
    ],
    ids=["thin", "codiscrete", "discrete"],
)
def test_duplicate_object_names_are_rejected(build):
    # the blocks are keyed by object, so a repeated name would otherwise
    # collapse into one object silently
    with pytest.raises(CategoryError, match="duplicate object identifiers"):
        build(["a", "b", "a"])


def test_product_object_id_collision_is_rejected():
    # ("a@b", "c") and ("a", "b@c") both encode as "(a@b@c)"
    with pytest.raises(CategoryError, match="product object id collision"):
        product_category(discrete_category(["a@b", "a"]), discrete_category(["c", "b@c"]))


def test_parse_roundtrip():
    for m in range(3):
        for n in range(m, 3):
            for imgs in injections(m, n):
                assert parse_inj(inj_id(m, n, imgs)) == (m, n, imgs)
