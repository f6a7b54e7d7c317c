import itertools
import random

import pytest

from clubcat import simpset
from clubcat.errors import InputError
from clubcat.simpset import (MonotoneMap, NormalForm, all_monotone_maps,
                             apply_operator, boundary, compose_maps,
                             compose_smaps, degeneracy_map, disjoint_union,
                             _smap_search, ez_factor, face_map, horn,
                             identity_map, identity_smap, is_injective,
                             is_kan_fibration, iso_sset, joint_factor, nf_id,
                             nondeg, one_point, product, simplex_category,
                             smap_equal, standard_simplex,
                             surjections, SimplicialMap, SimplicialSet,
                             validate_smap, validate_sset)
from clubcat.fincat import validate_category
from clubcat.generate import random_family
from clubcat.sset_club import compose, constant_family

from bisimplicial_reference import (bisimplicial_of, diag,
                                    validate_bisimplicial)


# ---------------------------------------------------------------------------
# monotone maps and EZ factorization

def test_ez_factor_identity():
    i = identity_map(3)
    d, s = ez_factor(i)
    assert d.is_identity() and s.is_identity()


def test_ez_factor_surjection():
    t = degeneracy_map(1, 0)   # [2] ->> [1]
    d, s = ez_factor(t)
    assert d.is_identity()
    assert s == t


def test_ez_factor_example_and_uniqueness():
    theta = MonotoneMap(2, [0, 0, 2])
    d, s = ez_factor(theta)
    assert d.values == (0, 2)
    assert s.values == (0, 0, 1)
    assert compose_maps(d, s) == theta
    # uniqueness by enumeration: any injective∘surjective factorization agrees
    found = []
    for mid in range(3):
        for dv in itertools.combinations(range(3), mid + 1):
            dcand = MonotoneMap(2, dv)
            for scand in surjections(2, mid):
                if compose_maps(dcand, scand) == theta:
                    found.append((dcand, scand))
    assert found == [(d, s)]


def test_surjection_counts():
    # #surj([m] ->> [j]) = C(m, m-j)
    from math import comb
    for m in range(5):
        for j in range(m + 1):
            assert len(surjections(m, j)) == comb(m, m - j)


def test_all_monotone_maps_is_one_tuple_per_dimension_pair():
    for m in range(5):
        for n in range(5):
            maps = all_monotone_maps(m, n)
            assert isinstance(maps, tuple)
            assert all_monotone_maps(m, n) is maps
            want = itertools.combinations_with_replacement(range(n + 1), m + 1)
            assert [t.values for t in maps] == list(want)


def test_equal_maps_are_one_interned_object():
    m = MonotoneMap(3, [0, 1, 2, 3])
    assert MonotoneMap(3, (0, 1, 2, 3)) is m
    assert MonotoneMap(3, range(4)) is m
    assert identity_map(3) is m
    assert hash(m) == hash((3, (0, 1, 2, 3)))
    assert compose_maps(face_map(2, 1), degeneracy_map(1, 0)) is MonotoneMap(2, [0, 0, 2])


def test_rejected_maps_leave_no_interned_entry():
    interned = simpset._INTERNED
    for bad in ([0, 8], [5, 4], [], [0, True], [0.0, 1], [[0]], "01", 3):
        before = len(interned)
        with pytest.raises(InputError):
            MonotoneMap(7, bad)
        assert len(interned) == before
    assert (7, (0, 8)) not in interned
    assert MonotoneMap(7, [0, 7]).values == (0, 7)
    assert MonotoneMap(7, [4, 5]).values == (4, 5)


def test_equal_normal_forms_are_one_interned_object():
    eta = degeneracy_map(1, 0)
    nf = NormalForm(eta, "01")
    assert NormalForm(eta, "01") is nf
    assert NormalForm(MonotoneMap(1, [0, 0, 1]), "01") is nf
    assert NormalForm(eta, "12") is not nf
    for k in range(4):
        assert nondeg("x", k) is NormalForm(identity_map(k), "x")
    s = standard_simplex(1, 2)
    assert apply_operator(s, nondeg("01", 1), eta) is nf


def test_rejected_normal_forms_leave_no_interned_entry():
    table = simpset._NORMAL_FORMS
    for eta in (face_map(2, 0), MonotoneMap(3, [0, 1])):
        before = len(table)
        for _ in range(2):
            with pytest.raises(InputError):
                NormalForm(eta, "b")
        assert len(table) == before
        assert (eta._index, "b") not in table


def test_equal_values_with_other_codomains_give_other_forms():
    # the surjective [2] ->> [1] is interned first; the same value list into
    # [2] is a different map, not surjective, and is still refused
    onto = MonotoneMap(1, [0, 0, 1])
    assert NormalForm(onto, "b").eta is onto
    into = MonotoneMap(2, [0, 0, 1])
    assert into is not onto and into.values == onto.values
    for _ in range(2):
        with pytest.raises(InputError):
            NormalForm(into, "b")


def test_nf_id_is_the_base_tagged_by_a_degenerate_operator():
    for trunc in range(1, 5):
        for s in listing_fixtures(trunc):
            for k in range(trunc + 1):
                for nf in s.all_simplices(k):
                    want = (nf.base if nf.eta.is_identity()
                            else nf.base + "@" + nf.eta.label)
                    assert nf_id(nf) == want
                    assert NormalForm(nf.eta, nf.base) is nf


def test_compose_maps_checks_composability_after_memo_is_warm():
    g, f = face_map(2, 0), face_map(1, 0)
    assert compose_maps(g, f).values == (2,)
    for _ in range(2):
        with pytest.raises(InputError):
            compose_maps(g, identity_map(2))
        with pytest.raises(InputError):
            compose_maps(f, g)
    assert compose_maps(g, f) is MonotoneMap(2, [2])


def test_apply_operator_rejects_bad_operators_on_every_call():
    s = standard_simplex(2, 2)
    x = nondeg("012", 2)
    assert apply_operator(s, x, face_map(2, 0)) == nondeg("12", 1)
    for _ in range(2):
        with pytest.raises(InputError):
            apply_operator(s, x, face_map(1, 0))       # acts on dimension 1
        with pytest.raises(InputError):
            apply_operator(s, x, degeneracy_map(2, 0))  # lands above trunc 2


def test_generator_maps_are_memoized_and_reject_bad_indices_every_time():
    for n in range(4):
        assert identity_map(n) is MonotoneMap(n, list(range(n + 1)))
        for i in range(n + 1):
            assert degeneracy_map(n, i) is MonotoneMap(
                n, sorted(list(range(n + 1)) + [i]))
            if n:
                assert face_map(n, i) is MonotoneMap(
                    n, [v for v in range(n + 1) if v != i])
    for _ in range(2):
        for bad in [(0, 0), (2, 3), (2, -1)]:
            with pytest.raises(InputError):
                face_map(*bad)
        for bad in [(1, 2), (1, -1)]:
            with pytest.raises(InputError):
                degeneracy_map(*bad)


# ---------------------------------------------------------------------------
# the per-set memos and interned simplicial maps

def fresh_simplices(s, k):
    """The k-simplices of s in canonical order, built without the memo."""
    out = [NormalForm(eta, base) for j in range(k, -1, -1)
           for eta in surjections(k, j) for base in s.nondeg[j]]
    out.sort(key=lambda nf: (nf.eta.m - (len(set(nf.eta.values)) - 1),
                             nf.base, nf.eta.values))
    return out


def test_memoized_simplices_generators_and_identity_equal_a_fresh_build():
    for s in [standard_simplex(2, 3), boundary(2, 2), horn(2, 1, 3),
              one_point(3)]:
        for k in range(s.trunc + 1):
            got = s.all_simplices(k)
            assert isinstance(got, tuple)
            assert list(got) == fresh_simplices(s, k)
            assert s.all_simplices(k) is got
            gens = s.generators(k)
            assert list(gens) == (
                [face_map(k, i) for i in range(k + 1) if k]
                + [degeneracy_map(k, i) for i in range(k + 1) if k < s.trunc])
            assert s.generators(k) is gens
        ident = identity_smap(s)
        assert (ident.src, ident.tgt, ident.name) == (s, s, "id")
        assert ident.images == {x: nondeg(x, k) for k in range(s.trunc + 1)
                                for x in s.nondeg[k]}
        assert identity_smap(s) is ident
        with pytest.raises(InputError):
            s.all_simplices(s.trunc + 1)


def listing_fixtures(trunc):
    """Δ[0]-Δ[3], ∂Δ[2], Λ²₁, a product and a composite at one truncation."""
    interval = standard_simplex(1, trunc)
    return [*(standard_simplex(n, trunc) for n in range(4)), boundary(2, trunc),
            horn(2, 1, trunc), product(interval, interval),
            compose(constant_family(interval, boundary(2, trunc))).sset]


def test_listings_equal_the_nested_loops_they_replace():
    for trunc in range(1, 5):
        for s in listing_fixtures(trunc):
            listing = s.listing()
            assert isinstance(listing, tuple)
            assert listing == tuple((x, k) for k in range(s.trunc + 1)
                                    for x in s.nondeg[k])
            assert s.listing() is listing
            slots = s.face_slots()
            assert isinstance(slots, tuple)
            assert slots == tuple((x, i) for k in range(1, s.trunc + 1)
                                  for x in s.nondeg[k] for i in range(k + 1))
            assert s.face_slots() is slots
            for k in range(s.trunc + 2):
                ops = s.operators_into(k)
                assert isinstance(ops, tuple)
                assert ops == tuple(theta for m in range(s.trunc + 1)
                                    for theta in all_monotone_maps(m, k))
                assert s.operators_into(k) is ops


def test_an_id_listed_twice_is_visited_twice():
    s = SimplicialSet(1, {0: ["a", "b"], 1: ["a"]},
                      {"a": [nondeg("b", 0), nondeg("b", 0)]})
    assert s.listing() == (("a", 0), ("b", 0), ("a", 1))
    assert s.face_slots() == (("a", 0), ("a", 1))
    assert "duplicate simplex id 'a'" in validate_sset(s)


def test_interned_maps_and_memoized_composites_match_a_fresh_build():
    maps = []
    for seed in range(12):
        fam = random_family(random.Random(seed), 2)
        maps.extend(fam.face_maps.values())
        maps.extend(identity_smap(v) for v in fam.values.values())
    assert maps
    for f in maps:
        assert SimplicialMap(f.src, f.tgt, dict(f.images), f.name) is f
        for g in maps:
            if g.src is not f.tgt:
                continue
            want = {x: apply_operator(g.tgt, g.images[nf.base], nf.eta)
                    for x, nf in f.images.items()}
            gf = compose_smaps(g, f)
            assert (gf.src, gf.tgt, gf.name) == (f.src, g.tgt, "")
            assert list(gf.images.items()) == list(want.items())
            assert compose_smaps(g, f) is gf
            assert SimplicialMap(f.src, g.tgt, want) is gf


def test_equal_looking_sets_never_share_a_map():
    a, b = standard_simplex(1, 2), standard_simplex(1, 2)
    assert identity_smap(a) is not identity_smap(b)
    assert identity_smap(a).images == identity_smap(b).images
    images = dict(identity_smap(a).images)
    assert SimplicialMap(a, a, images) is not SimplicialMap(b, b, images)
    assert SimplicialMap(a, a, images) is not SimplicialMap(a, b, images)
    assert SimplicialMap(a, a, images) is not SimplicialMap(a, a, images, "id")
    assert SimplicialMap(a, a, images, "id") is identity_smap(a)
    assert smap_equal(SimplicialMap(a, b, images), SimplicialMap(a, a, images))
    ab = SimplicialMap(a, b, images)
    assert compose_smaps(identity_smap(b), ab) is ab
    assert compose_smaps(ab, identity_smap(a)) is ab


# ---------------------------------------------------------------------------
# standard complexes and operators

def test_standard_simplex_counts():
    from math import comb
    d2 = standard_simplex(2, 3)
    assert validate_sset(d2) == []
    assert [len(d2.nondeg[k]) for k in range(4)] == [3, 3, 1, 0]
    for k in range(3):
        assert len(d2.nondeg[k]) == comb(3, k + 1)


def test_apply_identity_is_noop():
    d2 = standard_simplex(2, 2)
    x = nondeg("012", 2)
    assert apply_operator(d2, x, identity_map(2)) == x


def test_faces_of_top_simplex():
    d2 = standard_simplex(2, 2)
    x = nondeg("012", 2)
    got = [apply_operator(d2, x, face_map(2, i)) for i in range(3)]
    assert [nf_id(nf) for nf in got] == ["12", "02", "01"]


def test_degenerate_of_degenerate_composes():
    d1 = standard_simplex(1, 3)
    e = nondeg("01", 1)
    s0e = apply_operator(d1, e, degeneracy_map(1, 0))
    assert s0e == NormalForm(degeneracy_map(1, 0), "01")
    s1s0e = apply_operator(d1, s0e, degeneracy_map(2, 1))
    assert s1s0e.base == "01"
    assert s1s0e.eta == compose_maps(degeneracy_map(1, 0), degeneracy_map(2, 1))


def test_operator_functoriality_exhaustive_small():
    s = boundary(2, 2)
    assert validate_sset(s) == []
    for k in range(3):
        for x in s.all_simplices(k):
            for m in range(3):
                for theta in all_monotone_maps(m, k):
                    y = apply_operator(s, x, theta)
                    for l in range(3):
                        for theta2 in all_monotone_maps(l, m):
                            lhs = apply_operator(s, y, theta2)
                            rhs = apply_operator(s, x, compose_maps(theta, theta2))
                            assert lhs == rhs


def test_validate_rejects_secretly_degenerate():
    # a fake edge whose two faces coincide with itself collapsed
    s = one_point(1)
    bad = type(s)(1, {0: ["pt"], 1: ["loop"]},
                  {"loop": [nondeg("pt", 0), nondeg("pt", 0)]})
    # loop is a genuine non-degenerate circle edge; should validate fine
    assert validate_sset(bad) == []
    # but an "edge" equal to the degeneracy of pt must be rejected: that edge
    # cannot be expressed with honest face data... simulate via simplicial
    # identity breakage instead at dimension 2
    d2 = standard_simplex(2, 2)
    faces = dict(d2.faces)
    faces["012"] = [faces["012"][0], faces["012"][0], faces["012"][2]]
    bad2 = type(s)(2, d2.nondeg, faces)
    assert validate_sset(bad2) != []


def test_simplex_counts_closed_form():
    # total k-simplices = sum_j #nondeg_j * #surj([k] ->> [j])
    from math import comb
    s = standard_simplex(2, 3)
    for k in range(4):
        expected = sum(len(s.nondeg[j]) * comb(k, k - j) for j in range(k + 1))
        assert len(s.all_simplices(k)) == expected


# ---------------------------------------------------------------------------
# the category of simplices

def test_simplex_category_point_trunc1():
    s = one_point(1)
    cat = simplex_category(s)
    assert validate_category(cat) == []
    assert len(cat.objects) == 2
    s1 = nf_id(apply_operator(s, nondeg("pt", 0), degeneracy_map(0, 0)))
    assert len(cat.hom_set(s1, s1)) == len(all_monotone_maps(1, 1)) == 3


def test_simplex_category_two_points():
    s = disjoint_union(one_point(0), one_point(0))
    cat = simplex_category(s)
    assert validate_category(cat) == []
    assert len(cat.objects) == 2
    assert len(cat.mor_ids) == 2


def test_simplex_category_interval_trunc1():
    s = standard_simplex(1, 1)
    cat = simplex_category(s)
    assert validate_category(cat) == []
    assert len(cat.objects) == 5  # 2 vertices + nondeg edge + 2 degenerate edges


def test_simplex_category_operator_table_inverts_operator_of():
    cat = simplex_category(product(standard_simplex(1, 2), boundary(2, 2)))
    assert [cat.mor_of[cat.src[m]][cat.operator_of[m]]
            for m in cat.mor_ids] == cat.mor_ids
    assert sum(len(row) for row in cat.mor_of.values()) == len(cat.mor_ids)


def eager_simplex_composites(cat):
    """Every composite of a category of simplices, composed in advance: the
    reference for the table that ``simplex_category`` computes on read."""
    by_src = {}
    for (mid, a, _) in cat.morphisms:
        by_src.setdefault(a, []).append(mid)
    comp = {}
    for (mid1, a, b) in cat.morphisms:
        for mid2 in by_src.get(b, []):
            comp[(mid2, mid1)] = cat.mor_id(
                a, compose_maps(cat.operator_of[mid1], cat.operator_of[mid2]))
    return comp


@pytest.mark.parametrize("make", [
    lambda: one_point(3),
    lambda: standard_simplex(1, 2),
    lambda: product(standard_simplex(1, 2), boundary(2, 2)),
    lambda: random_family(random.Random(0), 2).base,
    lambda: random_family(random.Random(5), 2).base,
    lambda: random_family(random.Random(9), 2).base,
], ids=["point", "interval", "product", "random-0", "random-5", "random-9"])
def test_simplex_composites_match_the_eager_table(make):
    cat = simplex_category(make())
    expected = eager_simplex_composites(cat)
    assert len(cat.comp) == len(expected)
    assert list(cat.comp) == list(expected)
    assert list(cat.comp.items()) == list(expected.items())
    f, g = next((f, g) for f in cat.mor_ids for g in cat.mor_ids
                if cat.tgt[f] != cat.src[g])
    assert (g, f) not in cat.comp
    with pytest.raises(InputError):
        cat.compose(g, f)


# ---------------------------------------------------------------------------
# products, unions

def test_product_with_point_is_identity():
    s = boundary(2, 2)
    p = product(one_point(2), s)
    assert validate_sset(p) == []
    iso = iso_sset(p, s)
    assert iso is not None
    assert validate_smap(iso) == []


def test_square_counts_match_joint_oracle():
    # independent oracle: count jointly non-degenerate pairs of monotone maps
    d1 = standard_simplex(1, 2)
    p = product(d1, d1)
    assert validate_sset(p) == []

    def oracle(k):
        count = 0
        for x in itertools.product(*[all_monotone_maps(k, 1)] * 2):
            a, b = x
            jointly = all(not (a.values[i] == a.values[i + 1]
                               and b.values[i] == b.values[i + 1])
                          for i in range(k))
            count += jointly
        return count

    # vertices are pairs of vertices: 4; edges: 5; triangles: 2
    assert [len(p.nondeg[k]) for k in range(3)] == [4, 5, 2]
    assert [oracle(k) for k in range(3)] == [4, 5, 2]


def test_joint_factor_splits_exactly_the_shared_repeats():
    def repeats(eta):
        return {i for i in range(eta.m) if eta.values[i] == eta.values[i + 1]}

    for k in range(6):
        onto = [eta for j in range(k + 1) for eta in surjections(k, j)]
        for eta1, eta2 in itertools.product(onto, repeat=2):
            sigma, e1, e2 = joint_factor(eta1, eta2)
            assert compose_maps(e1, sigma) == eta1
            assert compose_maps(e2, sigma) == eta2
            assert sigma.is_surjective()
            assert not repeats(e1) & repeats(e2)
            assert repeats(sigma) == repeats(eta1) & repeats(eta2)


def test_disjoint_union_counts():
    s = standard_simplex(1, 1)
    u = disjoint_union(s, s)
    assert validate_sset(u) == []
    assert [len(u.nondeg[k]) for k in range(2)] == [4, 2]


# ---------------------------------------------------------------------------
# bisimplicial sets and the diagonal

def _external_product(s, t):
    """The bisimplicial set with (m, n)-elements S_m x T_n: the pairs of the
    constant family with value t over s."""
    return bisimplicial_of(constant_family(s, t))


def test_external_product_diag_is_product():
    for (a, b) in [(standard_simplex(1, 2), standard_simplex(1, 2)),
                   (standard_simplex(2, 2), one_point(2)),
                   (boundary(2, 2), standard_simplex(1, 2))]:
        bis = _external_product(a, b)
        assert validate_bisimplicial(bis) == []
        d, _ = diag(bis)
        assert validate_sset(d) == []
        p = product(a, b)
        iso = iso_sset(d, p)
        assert iso is not None, (d, p)
        assert validate_smap(iso) == []


def test_diag_of_constant_point():
    bis = _external_product(one_point(2), one_point(2))
    d, _ = diag(bis)
    iso = iso_sset(d, one_point(2))
    assert iso is not None


def test_diag_commutes_with_disjoint_union():
    a = standard_simplex(1, 2)
    b = boundary(2, 2)
    t = one_point(2)
    left, _ = diag(_external_product(disjoint_union(a, b), t))
    right = disjoint_union(diag(_external_product(a, t))[0],
                           diag(_external_product(b, t))[0])
    assert iso_sset(left, right) is not None


# ---------------------------------------------------------------------------
# injectivity and Kan fibrations

def test_identity_is_injective():
    s = standard_simplex(2, 2)
    assert is_injective(identity_smap(s))


def test_collapse_is_not_injective():
    s = standard_simplex(1, 1)
    t = one_point(1)
    collapse = SimplicialMap(s, t, {"0": nondeg("pt", 0), "1": nondeg("pt", 0),
                                    "01": NormalForm(degeneracy_map(0, 0), "pt")})
    assert not is_injective(collapse)


def test_boundary_inclusion_is_injective():
    b = boundary(2, 2)
    d2 = standard_simplex(2, 2)
    incl = SimplicialMap(b, d2, {x: nondeg(x, k)
                                 for k in range(3) for x in b.nondeg[k]})
    assert validate_smap(incl) == []
    assert is_injective(incl)


def test_point_to_point_is_fibration():
    p = one_point(3)
    ok, witness = is_kan_fibration(identity_smap(p), 2)
    assert ok and witness is None


def test_discrete_over_point_is_fibration():
    s = disjoint_union(one_point(3), one_point(3))
    t = one_point(3)
    f = SimplicialMap(s, t, {"0:pt": nondeg("pt", 0), "1:pt": nondeg("pt", 0)})
    assert validate_smap(f) == []
    ok, witness = is_kan_fibration(f, 2)
    assert ok


def test_interval_over_point_fails_with_witness():
    s = standard_simplex(1, 3)
    t = one_point(3)
    f = SimplicialMap(s, t, {"0": nondeg("pt", 0), "1": nondeg("pt", 0),
                             "01": NormalForm(degeneracy_map(0, 0), "pt")})
    assert validate_smap(f) == []
    ok, witness = is_kan_fibration(f, 2)
    assert not ok
    assert witness["horn"][0] == 2  # inner dimension-1 horns lift; a 2-horn fails
    # frozen expected failing square, derived by hand: the outer horn whose
    # two edges would need the non-monotone chain 0 -> 1 -> 0
    assert witness["horn"] == (2, 0)


def test_iso_sset_on_renamed_square():
    p = product(standard_simplex(1, 2), standard_simplex(1, 2))
    q = product(standard_simplex(1, 2), standard_simplex(1, 2))
    iso = iso_sset(p, q)
    assert iso is not None
    assert is_injective(iso)


def _count_smaps(a, b):
    return sum(1 for _ in _smap_search(a, b, b.all_simplices, distinct=False))


def test_map_search_counts_interval_to_point():
    s = standard_simplex(1, 1)
    assert _count_smaps(s, one_point(1)) == 1
    assert _count_smaps(one_point(1), s) == 2


def test_normalization_idempotent_on_all_simplices():
    s = boundary(2, 3)
    for k in range(4):
        for x in s.all_simplices(k):
            again = apply_operator(s, x, identity_map(k))
            assert again == x
            # re-normalizing the stored face tables is also stable
            if x.is_nondegenerate() and k >= 1:
                for i in range(k + 1):
                    face = s.faces[x.base][i]
                    assert apply_operator(s, face, identity_map(k - 1)) == face


def test_random_fiber_semidirect_validates():
    from clubcat.generate import random_diagram
    from clubcat.semidirect import fiber_semidirect
    from clubcat.fincat import enumerate_functors, validate_category
    rng = random.Random(17)
    checked = 0
    while checked < 6:
        left = random_diagram(rng)
        right = random_diagram(rng)
        d = left.base.objects[0]
        cands = enumerate_functors(left.fiber_obj[d], right.base)
        if not cands:
            continue
        psi = cands[rng.randrange(len(cands))]
        cat = fiber_semidirect(left, d, psi, right).cat
        assert validate_category(cat) == []
        checked += 1
