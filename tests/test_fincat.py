import itertools

import pytest

from clubcat.errors import GuardrailExceeded, InputError
from clubcat.fincat import (FinCategory, Functor, compose_functors,
                            discrete_category, enumerate_functors,
                            enumerate_nat_trans, find_isomorphism,
                            functor_equal, identity_functor, ordinal_category,
                            terminal_category, validate_category,
                            validate_functor, walking_arrow)

from fincat_reference import constant_functor, validate_nat_trans


def brute_force_functor_count(c, d):
    """Independent oracle: filter all raw table assignments by the functor laws."""
    count = 0
    for combo in itertools.product(d.objects, repeat=len(c.objects)):
        omap = dict(zip(c.objects, combo))
        for mcombo in itertools.product(d.mor_ids, repeat=len(c.mor_ids)):
            mmap = dict(zip(c.mor_ids, mcombo))
            if any(d.src[mmap[m]] != omap[c.src[m]] or d.tgt[mmap[m]] != omap[c.tgt[m]]
                   for m in c.mor_ids):
                continue
            if any(mmap[c.identities[x]] != d.identities[omap[x]] for x in c.objects):
                continue
            if any(mmap[gf] != d.comp[(mmap[g], mmap[f])]
                   for (g, f), gf in c.comp.items()):
                continue
            count += 1
    return count


def test_discrete_two_is_valid():
    assert validate_category(discrete_category(["a", "b"])) == []


def test_empty_category_is_valid():
    assert validate_category(discrete_category([])) == []


def test_missing_composite_is_reported():
    c = walking_arrow()
    bad = FinCategory(c.objects, c.morphisms, c.identities,
                      {k: v for k, v in c.comp.items() if k != ("id_y", "a")})
    report = validate_category(bad)
    assert any("comp not total" in r for r in report)


def test_walking_arrow_is_valid():
    assert validate_category(walking_arrow()) == []


def test_broken_associativity_is_reported():
    # two-object monoid-ish table with an associativity defect
    objects = ["x"]
    morphisms = [("e", "x", "x"), ("a", "x", "x"), ("b", "x", "x")]
    identities = {"x": "e"}
    comp = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a",
            ("e", "b"): "b", ("b", "e"): "b",
            ("a", "a"): "b", ("a", "b"): "e", ("b", "a"): "b",
            ("b", "b"): "a"}
    report = validate_category(FinCategory(objects, morphisms, identities, comp))
    assert any("associativity" in r for r in report)


def test_compose_functors_identity_laws():
    c = walking_arrow()
    f = identity_functor(c)
    g = Functor(c, c, {"x": "y", "y": "y"},
                {"id_x": "id_y", "id_y": "id_y", "a": "id_y"})
    assert validate_functor(g) == []
    assert compose_functors(g, f).omap == g.omap
    assert compose_functors(f, g).mmap == g.mmap


def test_compose_constant_functors():
    c = walking_arrow()
    d = discrete_category(["u", "v"])
    f = constant_functor(c, d, "u")
    g = constant_functor(d, d, "v")
    h = compose_functors(g, f)
    assert set(h.omap.values()) == {"v"}


def test_compose_functors_mismatch_raises():
    c = walking_arrow()
    d = discrete_category(["u"])
    with pytest.raises(InputError):
        compose_functors(constant_functor(c, c, "x"), constant_functor(c, d, "u"))


def test_enumerate_functors_discrete_counts():
    two = discrete_category(["a", "b"])
    assert len(enumerate_functors(two, two)) == 4
    one = terminal_category()
    assert len(enumerate_functors(one, one)) == 1


def test_enumerate_functors_from_empty():
    assert len(enumerate_functors(discrete_category([]), walking_arrow())) == 1


def test_enumerate_functors_matches_brute_force():
    c = walking_arrow()
    fs = enumerate_functors(c, c)
    assert len(fs) == brute_force_functor_count(c, c) == 3
    keys = {(tuple(sorted(f.omap.items())), tuple(sorted(f.mmap.items()))) for f in fs}
    assert len(keys) == len(fs)
    for f in fs:
        assert validate_functor(f) == []


def test_enumerate_functors_brute_force_small_grid():
    cats = [discrete_category(["a"]), discrete_category(["a", "b"]), walking_arrow()]
    for c in cats:
        for d in cats:
            assert len(enumerate_functors(c, d)) == brute_force_functor_count(c, d)


def test_enumerate_functors_guardrail():
    big = discrete_category([f"o{i}" for i in range(70)])
    with pytest.raises(GuardrailExceeded):
        enumerate_functors(big, big)


def test_nat_trans_identity_on_discrete():
    two = discrete_category(["a", "b"])
    f = identity_functor(two)
    nts = enumerate_nat_trans(f, f)
    assert len(nts) == 1
    assert validate_nat_trans(nts[0]) == []


def test_nat_trans_between_distinct_constants_is_empty():
    two = discrete_category(["a", "b"])
    one = terminal_category()
    f = constant_functor(one, two, "a")
    g = constant_functor(one, two, "b")
    assert enumerate_nat_trans(f, g) == []


def test_nat_trans_matches_componentwise_oracle():
    c = walking_arrow()
    fs = enumerate_functors(c, c)
    for f in fs:
        for g in fs:
            got = enumerate_nat_trans(f, g)
            # oracle: all component families filtered by naturality
            cands = [c.hom_set(f.omap[x], g.omap[x]) for x in c.objects]
            expected = 0
            for combo in itertools.product(*cands):
                comp = dict(zip(c.objects, combo))
                if all(c.comp[(g.mmap[m], comp[c.src[m]])] == c.comp[(comp[c.tgt[m]], f.mmap[m])]
                       for m in c.nonidentity_morphisms()):
                    expected += 1
            assert len(got) == expected
            for n in got:
                assert validate_nat_trans(n) == []


def test_find_isomorphism_identity():
    c = walking_arrow()
    iso = find_isomorphism(c, c)
    assert iso is not None
    assert validate_functor(iso) == []


def test_find_isomorphism_size_mismatch():
    assert find_isomorphism(terminal_category(), discrete_category(["a", "b"])) is None


def _permuted_arrow():
    """The walking arrow with other ids and its objects listed in reverse."""
    return FinCategory(
        ["q", "p"],
        [("f", "p", "q"), ("1q", "q", "q"), ("1p", "p", "p")],
        {"p": "1p", "q": "1q"},
        {("1p", "1p"): "1p", ("1q", "1q"): "1q",
         ("f", "1p"): "f", ("1q", "f"): "f"},
    )


def test_find_isomorphism_permuted_presentation():
    permuted = _permuted_arrow()
    assert validate_category(permuted) == []
    iso = find_isomorphism(walking_arrow(), permuted)
    assert iso is not None
    assert validate_functor(iso) == []
    assert len(set(iso.omap.values())) == 2
    assert len(set(iso.mmap.values())) == 3


def _monoid(square):
    """One object, identity e and one more endomorphism s with s∘s = square."""
    return FinCategory(["x"], [("e", "x", "x"), ("s", "x", "x")], {"x": "e"},
                       {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s",
                        ("s", "s"): square})


def test_find_isomorphism_symmetry():
    cats = [terminal_category(), discrete_category(["a", "b"]), walking_arrow(),
            ordinal_category(3), _permuted_arrow(), _monoid("e"), _monoid("s")]
    for c in cats:
        for d in cats:
            iso = find_isomorphism(c, d)
            assert (iso is None) == (find_isomorphism(d, c) is None)
            # the first found isomorphism is the first bijective functor in
            # enumeration order
            bijective = [f for f in enumerate_functors(c, d)
                         if len(set(f.omap.values())) == len(c.objects) == len(d.objects)
                         and len(set(f.mmap.values())) == len(c.mor_ids) == len(d.mor_ids)]
            if bijective:
                assert iso is not None and functor_equal(iso, bijective[0])
            else:
                assert iso is None


def test_non_isomorphic_same_counts():
    # three objects discrete vs. 1+arrow-with-collapsed... use monoid C2 vs discrete
    c2 = _monoid("e")
    assert validate_category(c2) == []
    idem = _monoid("s")
    assert validate_category(idem) == []
    assert find_isomorphism(c2, idem) is None
    assert find_isomorphism(idem, c2) is None
