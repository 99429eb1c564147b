"""The cartesian mask of ``fibcat.groth`` against the two later oracles.

``groth`` decides every cartesian morphism of a functor at once, by one
labelled sweep and one total per (b, f).  On functors too large for the
per-pair factor search of ``test_groth_reference.py``, each verdict must be
the one that ``groth_reference.is_cartesian_by_counts`` finds by the
per-object counts, one phi at a time.  ``check_fibred_functor`` reads the
code maps and the two masks; it must give what the reference's walk over
the objects and morphisms gives, the same ``Check`` or the same
``TriangleDoesNotCommute``, on every functor of the reference cases with H
the identity and on hand-built triangles that fail on an object, on a
morphism or on a cartesian image.
"""

import groth_reference as ref
from fibcat import generators, groth, grothendieck, validate_functor
from fibcat.functors import identity_functor
from fibcat.groth import TriangleDoesNotCommute
from fibcat.groups import cyclic_group, hom_as_functor, validate_group_hom
from test_groth import six_morphism_functors
from test_groth_reference import _arrow_functors, functors  # noqa: F401  (a fixture)


def _large_functors():
    fi3 = generators.fi_truncated(3)
    return {
        "fi_z2_3_proj": [grothendieck(generators.indexed_gpow(cyclic_group(2), 3)).proj],
        "slice_fi3_proj": [grothendieck(generators.slice_indexed(fi3)).proj],
        "arrow_fi3_dom_cod": _arrow_functors(fi3),
    }


def test_mask_matches_the_counts():
    """Every verdict of the mask is the per-object count's.  Every morphism
    over FI_3 of the FI_Z2 total is cartesian, as its fibers are groupoids;
    the slice projection and the arrow functors have some that are not."""
    morphisms, refused = {}, {}
    for case, Ps in _large_functors().items():
        verdicts = [groth.is_cartesian(P, phi) for P in Ps for phi in P.source.morphisms]
        assert verdicts == [ref.is_cartesian_by_counts(P, phi) for P in Ps for phi in P.source.morphisms], case
        morphisms[case], refused[case] = len(verdicts), verdicts.count(False)
    assert morphisms == {"fi_z2_3_proj": 96, "slice_fi3_proj": 1276, "arrow_fi3_dom_cod": 2552}
    assert refused["fi_z2_3_proj"] == 0 and refused["slice_fi3_proj"] and refused["arrow_fi3_dom_cod"]


def _fibred(H, P, Q, check):
    try:
        return check(H, P, Q)
    except TriangleDoesNotCommute as exc:
        return ("TriangleDoesNotCommute", exc.args)


def test_fibred_functor_matches_reference_with_the_identity(functors):  # noqa: F811
    for P in (P for Ps in functors.values() for P in Ps):
        H = identity_functor(P.source)
        assert _fibred(H, P, P, groth.check_fibred_functor) == _fibred(H, P, P, ref.check_fibred_functor)


def _hand_built():
    """(H, P, Q) triples: over the arrow f of ``six_morphism_functors``, H
    sends the cartesian phi to the non-cartesian theta0, to the cartesian
    theta1, and b to an object over x; over Z2, the doubling of Z4 does not
    commute with the projection on the morphism 1."""
    P, Q = six_morphism_functors()
    A, B = P.source, Q.source
    maps = [
        ({"a": "a0", "b": "bp"}, {"ia": "i0", "ib": "ibp", "phi": "theta0"}),
        ({"a": "a1", "b": "bp"}, {"ia": "i1", "ib": "ibp", "phi": "theta1"}),
        ({"a": "a0", "b": "a1"}, {"ia": "i0", "ib": "i1", "phi": "v"}),
    ]
    triples = [(validate_functor(A, B, obs, mors), P, Q) for obs, mors in maps]
    Z4, Z2 = cyclic_group(4), cyclic_group(2)
    onto = hom_as_functor(validate_group_hom(Z4, Z2, {"0": "0", "1": "1", "2": "0", "3": "1"}))
    double = hom_as_functor(validate_group_hom(Z4, Z4, {"0": "0", "1": "2", "2": "0", "3": "2"}))
    return triples + [(double, onto, onto)]


def test_fibred_functor_matches_reference_on_hand_built_triangles():
    got = [_fibred(*t, groth.check_fibred_functor) for t in _hand_built()]
    assert got == [_fibred(*t, ref.check_fibred_functor) for t in _hand_built()]
    assert [(g.holds, g.counterexample) for g in got[:2]] + got[2:] == [
        (False, "phi"),
        (True, None),
        ("TriangleDoesNotCommute", (("object", "b"),)),
        ("TriangleDoesNotCommute", (("morphism", "1"),)),
    ]
