"""Shared fixtures: groups, categories, and the indexed-category corpus.

Session scope matters: pullback and weak-pushout caches live on category
instances, so reusing them keeps whole-corpus audits fast.
"""

import random

import pytest

import random_categories
from fibcat import (
    grothendieck,
    identity_functor,
    validate_category,
    validate_functor,
    validate_indexed,
)
from fibcat.generators import (
    block_perm_indexed,
    chain_poset,
    delta_const,
    discrete_category,
    fi_g_direct,
    fi_truncated,
    indexed_gpow,
    slice_indexed,
    square_poset,
    terminal_category,
)
from fibcat.groups import (
    cyclic_group,
    group_as_category,
    inversion_action,
    strict_twisted,
    symmetric_group,
    trivial_group,
    twisted_from_surjection,
    twisted_to_indexed,
    validate_group_hom,
)
from fibcat.theorem import gpow_witness, invertible_arrow_witness


@pytest.fixture(scope="session")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def z3():
    return cyclic_group(3)


@pytest.fixture(scope="session")
def z4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def fi2():
    return fi_truncated(2)


@pytest.fixture(scope="session")
def fi3():
    return fi_truncated(3)


@pytest.fixture(scope="session")
def fi4():
    return fi_truncated(4)


@pytest.fixture(scope="session")
def fi_z2_2_direct(z2):
    return fi_g_direct(z2, 2)


@pytest.fixture(scope="session")
def seeded_categories(fi3, fi_z2_2_direct):
    """The 80 seeded random categories of ``random_categories``: 40
    transformation monoids and 20 generated subcategories each of FI_3 and
    of FI_Z2 with N = 2."""
    rng = random.Random(random_categories.SEED)
    return random_categories.seeded_categories(rng, (fi3, fi_z2_2_direct))


@pytest.fixture(scope="session")
def idempotent_monoid():
    """One object, one idempotent: e∘e = e.  Fails mono and EI."""
    return validate_category(
        ["*"],
        [("1", "*", "*"), ("e", "*", "*")],
        {"*": "1"},
        [("e", "e", "e")],
    )


@pytest.fixture(scope="session")
def parallel_pair():
    """Two parallel arrows x→y and trivial Aut(y): not transitive."""
    return validate_category(
        ["x", "y"],
        [("ix", "x", "x"), ("iy", "y", "y"), ("f1", "x", "y"), ("f2", "x", "y")],
        {"x": "ix", "y": "iy"},
        [],
    )


@pytest.fixture(scope="session")
def z4_to_z2(z4, z2):
    return validate_group_hom(z4, z2, {"0": "0", "1": "1", "2": "0", "3": "1"})


@pytest.fixture(scope="session")
def z4_twisted(z4_to_z2):
    return twisted_from_surjection(z4_to_z2, {"0": "0", "1": "1"})


@pytest.fixture(scope="session")
def swap_indexed(z2):
    """Discrete two-object fiber swapped by the group of order two.

    hom(a, M(g)(a)) is empty for the nontrivial g, so the endomorphism
    invertibility condition holds vacuously.
    """
    base = group_as_category(z2)
    fib = discrete_category(["a0", "a1"])
    swap = validate_functor(
        fib, fib, {"a0": "a1", "a1": "a0"}, {"id_a0": "id_a1", "id_a1": "id_a0"}
    )
    return validate_indexed(base, {"*": fib}, {"0": identity_functor(fib), "1": swap})


@pytest.fixture(scope="session")
def corpus(z2, z3, z4, fi2, z4_twisted, swap_indexed):
    """Named indexed-category corpus; >= 10 instances of all flavours."""
    instances = [
        ("delta_fi2_fi2", delta_const(fi2, fi2)),
        ("delta_chain3_square", delta_const(chain_poset(3), square_poset())),
        ("delta_fi2_terminal", delta_const(fi2, terminal_category())),
        ("gpow_trivial_3", indexed_gpow(trivial_group(), 3)),
        ("gpow_z2_3", indexed_gpow(z2, 3)),
        ("gpow_z3_2", indexed_gpow(z3, 2)),
        ("blocks_2_1", block_perm_indexed(2, 1)),
        ("slice_square_poset", slice_indexed(square_poset())),
        ("slice_fi2", slice_indexed(fi2)),
        ("twisted_z4_over_z2", twisted_to_indexed(z4_twisted)),
        (
            "semidirect_z2_on_z3",
            twisted_to_indexed(strict_twisted(z2, z3, inversion_action(z2, z3))),
        ),
        ("swap_action", swap_indexed),
    ]
    return instances


@pytest.fixture(scope="session")
def groth_corpus(corpus):
    return [(name, M, grothendieck(M)) for name, M in corpus]


@pytest.fixture(scope="session")
def witnessed_corpus(groth_corpus, z2, z3):
    """The sub-corpus that is weakly reversible, with explicit witnesses."""
    groups = {"gpow_trivial_3": trivial_group(), "gpow_z2_3": z2, "gpow_z3_2": z3}
    out = []
    for name, M, gr in groth_corpus:
        if name in groups:
            out.append((name, M, gr, gpow_witness(groups[name], M)))
        elif name.startswith(("delta", "twisted", "semidirect", "swap")):
            out.append((name, M, gr, invertible_arrow_witness(M)))
    return out


@pytest.fixture(scope="session")
def gr_zpow2_3(groth_corpus):
    return next((M, gr) for name, M, gr in groth_corpus if name == "gpow_z2_3")
