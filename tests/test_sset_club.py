import itertools
import json
import pathlib
import random

import pytest

from clubcat import simpset, sset_club, suites
from clubcat.algebra import two_stage_colimit_check
from clubcat.fincat import FinCategory, validate_category, validate_functor
from clubcat.generate import random_family, random_two_level
from clubcat.simpset import (SimplicialMap, all_monotone_maps,
                             apply_operator, boundary, compose_maps,
                             compose_smaps, degeneracy_map, disjoint_union,
                             identity_smap, is_injective, iso_sset, nf_id,
                             nondeg, one_point, product, smap_equal,
                             standard_simplex, validate_smap, validate_sset)
from clubcat.sset_club import (ClubMorphismSSet, ClubObjectFamily,
                               SimplexFamily, associativity_check, compose,
                               compose_club_morphisms, compose_morphism,
                               constant_family, constant_inner,
                               constant_two_level,
                               delta_functor, delta_is_isomorphism,
                               delta_naturality_check, identity_club_morphism,
                               pair_category_sset, sset_equal,
                               unit_law_point_base, unit_law_point_values,
                               validate_club_morphism, validate_family,
                               validate_two_level)

import bisimplicial_reference
from bisimplicial_reference import (bisimplicial_of, reference_compose,
                                    reference_delta_naturality_check,
                                    reference_functoriality_failures,
                                    reference_naturality_failures,
                                    reference_pair_category_sset,
                                    s_transport, validate_bisimplicial)
from mutants import with_component, with_face_map


def collapse_map(s, t):
    """The unique map to the point complex."""
    images = {}
    for k in range(s.trunc + 1):
        for x in s.nondeg[k]:
            nf = nondeg("pt", 0)
            for j in range(k):
                nf = apply_operator(t, nf, degeneracy_map(j, 0))
            images[x] = nf
    return SimplicialMap(s, t, images)


def chain_sset(trunc, sizes):
    """Disjoint points of the given sizes with collapse-to-first maps."""
    out = []
    for size in sizes:
        s = one_point(trunc)
        for _ in range(size - 1):
            s = disjoint_union(one_point(trunc), s)
        out.append(s)
    return out


def minvertex_of(simplex_id):
    return int(simplex_id[0])


def minvertex_family(s, chain, chain_maps):
    """Values by least vertex of the base simplex, maps along a chain.

    ``chain[i]`` is the value at least-vertex i; ``chain_maps[i]`` maps
    chain[i] to chain[i+1].  Valid for the subset-named standard complexes.
    """
    def step(i, j):
        m = identity_smap(chain[i])
        for l in range(i, j):
            m_next = chain_maps[l]
            m = SimplicialMap(chain[i], chain[j
                              ] if l + 1 == j else chain[l + 1],
                              {x: m_next.apply(nf) for x, nf in m.images.items()})
        return m

    values, face_maps = {}, {}
    for k in range(s.trunc + 1):
        for y in s.nondeg[k]:
            values[y] = chain[minvertex_of(y)]
    for k in range(1, s.trunc + 1):
        for y in s.nondeg[k]:
            for i in range(k + 1):
                a = minvertex_of(y)
                b = minvertex_of(s.faces[y][i].base)
                values[y] = chain[a]
                face_maps[(y, i)] = step(a, b)
    return SimplexFamily(s, values, face_maps, name="minv")


# ---------------------------------------------------------------------------
# families

def test_constant_family_is_valid():
    s = standard_simplex(1, 2)
    fam = constant_family(s, standard_simplex(1, 2))
    assert validate_family(fam) == []


def test_minvertex_family_is_valid():
    s = standard_simplex(1, 2)
    k0 = standard_simplex(1, 2)
    k1 = one_point(2)
    fam = minvertex_family(s, [k0, k1], [collapse_map(k0, k1)])
    assert validate_family(fam) == []


def invalid_family():
    """The least-vertex family over the interval with one face map corrupted:
    an identity with wrong endpoints swapped in."""
    s = standard_simplex(1, 2)
    k0 = standard_simplex(1, 2)
    k1 = one_point(2)
    fam = minvertex_family(s, [k0, k1], [collapse_map(k0, k1)])
    return with_face_map(fam, ("01", 0), identity_smap(k0))


def test_invalid_family_is_rejected():
    assert validate_family(invalid_family()) != []


# ---------------------------------------------------------------------------
# the pair bisimplicial set and composition

def test_bidegree_counts_match_enumeration():
    s = standard_simplex(2, 2)
    k0 = standard_simplex(1, 2)
    k1 = one_point(2)
    fam = minvertex_family(s, [k0, k1, k1], [collapse_map(k0, k1),
                                             identity_smap(k1)])
    assert validate_family(fam) == []
    b = bisimplicial_of(fam)
    assert validate_bisimplicial(b) == []
    for m in range(3):
        for n in range(3):
            expected = sum(len(fam.values[x.base].all_simplices(n))
                           for x in s.all_simplices(m))
            assert len(b.elements[(m, n)]) == expected


def test_compose_constant_family_is_product():
    for (s, t) in [(standard_simplex(1, 2), standard_simplex(1, 2)),
                   (standard_simplex(2, 2), standard_simplex(1, 2)),
                   (boundary(2, 2), one_point(2))]:
        res = compose(constant_family(s, t))
        assert validate_sset(res.sset) == []
        p = product(s, t)
        assert iso_sset(res.sset, p) is not None


def test_compose_square_counts():
    s = standard_simplex(1, 3)
    res = compose(constant_family(s, standard_simplex(1, 3)))
    assert [len(res.sset.nondeg[k]) for k in range(3)] == [4, 5, 2]


def test_unit_laws_small():
    assert unit_law_point_values(standard_simplex(1, 2)) == []
    assert unit_law_point_values(boundary(2, 2)) == []
    assert unit_law_point_base(standard_simplex(1, 2)) == []
    assert unit_law_point_base(one_point(2)) == []


def test_compose_nonconstant_family():
    s = standard_simplex(1, 2)
    k0 = standard_simplex(1, 2)
    k1 = one_point(2)
    fam = minvertex_family(s, [k0, k1], [collapse_map(k0, k1)])
    res = compose(fam)
    assert validate_sset(res.sset) == []
    # vertices: (vertex, vertex-of-value): 2 over "0", 1 over "1"
    assert len(res.sset.nondeg[0]) == 3


# ---------------------------------------------------------------------------
# the comparison functor

def test_delta_is_functor_but_not_iso():
    s = one_point(1)
    fam = constant_family(s, standard_simplex(1, 1))
    res = compose(fam)
    pairs = pair_category_sset(res.source)
    assert validate_category(pairs.cat) == []
    f = delta_functor(res, pairs)
    assert validate_functor(f) == []
    assert not delta_is_isomorphism(res, pairs)


def corrupted_pair_functor():
    """The comparison functor over the point with value the interval, into
    its pair category with one composite sent to another morphism, and the
    pair (g, h) whose composite it no longer preserves."""
    s = one_point(1)
    res = compose(constant_family(s, standard_simplex(1, 1)))
    pairs = pair_category_sset(res.source)
    f = delta_functor(res, pairs)
    g, h = next(key for key in f.src.comp
                if not (f.src.is_identity(key[0]) or f.src.is_identity(key[1])))
    key = (f.mmap[g], f.mmap[h])
    c = pairs.cat
    other = next(m for m in c.mor_ids if m != c.comp[key])
    corrupted = FinCategory(c.objects, c.morphisms, c.identities,
                            {**c.comp, key: other}, name=c.name)
    return delta_functor(res, pairs._replace(cat=corrupted)), (g, h)


def test_corrupted_pair_category_fails_the_functor_check():
    # the comparison is still built, and the functor check reports the law
    f, (g, h) = corrupted_pair_functor()
    report = validate_functor(f)
    assert f"composition not preserved at ({g!r}, {h!r})" in report


def comparison_fixture():
    """The family of the suite's comparison-functor check: the constant
    family with value the interval over the point, at truncation 2."""
    s = one_point(2)
    return constant_family(s, standard_simplex(1, 2))


def eager_pair_composites(pairs):
    """Every composite of the pair category, composed in advance: the
    reference for the table that ``pair_category_sset`` computes on read."""
    by_src = {}
    for (mid, a, _) in pairs.cat.morphisms:
        by_src.setdefault(a, []).append(mid)
    comp = {}
    for (mid1, a, b) in pairs.cat.morphisms:
        th_a, tv_a = pairs.mor_data[mid1]
        for mid2 in by_src.get(b, []):
            th_b, tv_b = pairs.mor_data[mid2]
            comp[(mid2, mid1)] = pairs.mor_id[(a, compose_maps(th_a, th_b),
                                               compose_maps(tv_a, tv_b))]
    return comp


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_pair_composites_match_the_eager_table(seed):
    x = (comparison_fixture() if seed is None
         else random_family(random.Random(seed), 1))
    pairs = pair_category_sset(x)
    expected = eager_pair_composites(pairs)
    assert len(pairs.cat.comp) == len(expected)
    assert list(pairs.cat.comp.items()) == list(expected.items())
    f, g = next((f, g) for f in pairs.cat.mor_ids for g in pairs.cat.mor_ids
                if pairs.cat.tgt[f] != pairs.cat.src[g])
    assert (g, f) not in pairs.cat.comp


def test_pair_category_composes_only_what_is_read(monkeypatch):
    calls = 0

    def counting_compose_maps(g, f):
        nonlocal calls
        calls += 1
        return compose_maps(g, f)

    monkeypatch.setattr(sset_club, "compose_maps", counting_compose_maps)
    fixture = comparison_fixture()
    res = compose(fixture)
    calls = 0
    pairs = pair_category_sset(fixture)
    assert calls <= 100
    calls = 0
    assert validate_functor(delta_functor(res, pairs)) == []
    assert calls <= 2 * len(res.sset.category().comp)


def grid_psi_object():
    """The base family psi of the grid two-level family over the
    interval, at truncation 1."""
    s = standard_simplex(1, 1)
    k0, k1 = standard_simplex(1, 1), one_point(1)
    tlf = grid_two_level(s, standard_simplex(1, 1), [k0, k1, k1],
                         [collapse_map(k0, k1), identity_smap(k1)])
    return tlf.psi


def assert_same_pair_tables(pairs, ref, composites=None):
    """Equal objects, morphism list, identities, obj_id, obj_data, mor_id and
    mor_data, each in order, and the first ``composites`` composites (all of
    them when None) in key order."""
    assert pairs.cat.objects == ref.cat.objects
    assert pairs.cat.morphisms == ref.cat.morphisms
    assert list(pairs.cat.identities.items()) == list(ref.cat.identities.items())
    assert list(pairs.obj_id.items()) == list(ref.obj_id.items())
    assert list(pairs.obj_data.items()) == list(ref.obj_data.items())
    assert list(pairs.mor_id.items()) == list(ref.mor_id.items())
    assert list(pairs.mor_data.items()) == list(ref.mor_data.items())
    assert len(pairs.cat.comp) == len(ref.cat.comp)
    assert (list(itertools.islice(pairs.cat.comp.items(), composites))
            == list(itertools.islice(ref.cat.comp.items(), composites)))


@pytest.mark.parametrize("case", ["fixture", "grid"] + [
    (seed, trunc) for trunc in (1, 2) for seed in range(4)], ids=str)
def test_pair_category_matches_the_per_morphism_reference(case):
    if case == "fixture":
        x = comparison_fixture()
    elif case == "grid":
        x = grid_psi_object()
    else:
        seed, trunc = case
        x = random_family(random.Random(seed), trunc)
    pairs = pair_category_sset(x)
    # the trunc-2 families have millions of composable pairs: compare a prefix
    limit = 5000 if isinstance(case, tuple) and case[1] == 2 else None
    assert_same_pair_tables(pairs, reference_pair_category_sset(x), limit)


def suite_naturality_samples(monkeypatch, seed):
    """The morphisms ``sset-laws`` checks for comparison naturality at
    truncation 2 with one sample."""
    seen = []
    real = suites.delta_naturality_check

    def recording(samples):
        seen.extend(samples)
        return real(samples)

    monkeypatch.setattr(suites, "delta_naturality_check", recording)
    suites.run_suite("sset-laws", seed=seed, samples=1, trunc=2)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("seed", [0, 1])
def test_delta_naturality_matches_the_reference_on_suite_samples(monkeypatch,
                                                                 seed):
    samples = suite_naturality_samples(monkeypatch, seed)
    assert len(samples) == 4
    assert delta_naturality_check(samples) == []
    assert reference_delta_naturality_check(samples) == []


def test_delta_naturality_negative_control_matches_the_reference(monkeypatch):
    # the induced map of composites is built from the same components as
    # the componentwise route, so no well-typed phi breaks the square: the
    # corrupted image is read by the componentwise route only
    samples = suite_naturality_samples(monkeypatch, 0)
    idx, good, y, comp, x, alt = next(
        (idx, m, y, comp, x, alt) for idx, m in enumerate(samples)
        for y, comp in m.phi.items() for x, img in comp.images.items()
        for alt in comp.tgt.all_simplices(img.dim) if alt != img)
    phi = dict(good.phi)
    phi[y] = SimplicialMap(comp.src, comp.tgt, {**comp.images, x: alt},
                           name="corrupted")
    bad = ClubMorphismSSet(good.src, good.tgt, good.f, phi)
    samples[idx] = bad
    real = sset_club.compose_morphism

    def induced_from_good(m, res_src, res_tgt):
        return real(good if m is bad else m, res_src, res_tgt)

    monkeypatch.setattr(sset_club, "compose_morphism", induced_from_good)
    monkeypatch.setattr(bisimplicial_reference, "compose_morphism",
                        induced_from_good)
    report = delta_naturality_check(samples)
    assert report
    assert all(r.startswith(f"sample {idx}: comparison square fails at ")
               for r in report)
    assert report == reference_delta_naturality_check(samples)


def test_delta_naturality_builds_no_category_of_simplices(monkeypatch):
    samples = suite_naturality_samples(monkeypatch, 0)
    calls = 0
    real = simpset.simplex_category

    def counting(s):
        nonlocal calls
        calls += 1
        return real(s)

    monkeypatch.setattr(simpset, "simplex_category", counting)
    assert delta_naturality_check(samples) == []
    assert calls == 0


# ---------------------------------------------------------------------------
# morphisms of club objects

def test_identity_morphism_composes_to_identity():
    s = standard_simplex(1, 2)
    x = constant_family(s, standard_simplex(1, 2))
    m = identity_club_morphism(x)
    assert validate_club_morphism(m) == []
    res = compose(x)
    g = compose_morphism(m, res, res)
    assert validate_smap(g) == []
    assert g.images == identity_smap(res.sset).images


def test_constant_inclusion_morphism():
    s = standard_simplex(1, 2)
    t_small = one_point(2)
    t_big = standard_simplex(1, 2)
    incl = SimplicialMap(t_small, t_big, {"pt": nondeg("0", 0)})
    assert validate_smap(incl) == []
    x = constant_family(s, t_small)
    y = constant_family(s, t_big)
    phi = {z: incl for k in range(3) for z in s.nondeg[k]}
    m = ClubMorphismSSet(x, y, identity_smap(s), phi)
    assert validate_club_morphism(m) == []
    g = compose_morphism(m, compose(x), compose(y))
    assert validate_smap(g) == []
    assert is_injective(g)


def test_base_map_between_other_bases_is_reported():
    # every component is a valid identity over the right value, but the
    # base map is the identity of the triangle's boundary, not of the base
    s = standard_simplex(1, 2)
    x = constant_family(s, one_point(2))
    m = identity_club_morphism(x)._replace(f=identity_smap(boundary(2, 2)))
    assert validate_club_morphism(m) == ["base map has wrong endpoints"]


def test_compose_morphism_functorial():
    s = standard_simplex(1, 2)
    t0, t1 = one_point(2), standard_simplex(1, 2)
    incl0 = SimplicialMap(t0, t1, {"pt": nondeg("0", 0)})
    x = constant_family(s, t0)
    y = constant_family(s, t1)
    m1 = ClubMorphismSSet(x, y, identity_smap(s),
                          {z: incl0 for k in range(3) for z in s.nondeg[k]})
    m2 = identity_club_morphism(y)
    both = ClubMorphismSSet(
        x, y, compose_smaps(m2.f, m1.f),
        {z: compose_smaps(m2.phi[m1.f.images[z].base], m1.phi[z])
         for k in range(3) for z in s.nondeg[k]})
    rx, ry = compose(x), compose(y)
    lhs = compose_morphism(both, rx, ry)
    rhs = compose_smaps(compose_morphism(m2, ry, ry), compose_morphism(m1, rx, ry))
    assert lhs.images == rhs.images


def test_delta_naturality_on_samples():
    s = standard_simplex(1, 2)
    t0, t1 = one_point(2), standard_simplex(1, 2)
    incl0 = SimplicialMap(t0, t1, {"pt": nondeg("0", 0)})
    x = constant_family(s, t0)
    y = constant_family(s, t1)
    m1 = ClubMorphismSSet(x, y, identity_smap(s),
                          {z: incl0 for k in range(3) for z in s.nondeg[k]})
    samples = [identity_club_morphism(x), m1]
    assert delta_naturality_check(samples) == []


# ---------------------------------------------------------------------------
# associativity

def test_constant_two_level_is_valid():
    tlf = constant_two_level(standard_simplex(1, 2), one_point(2),
                             standard_simplex(1, 2))
    assert validate_two_level(tlf) == []


def test_associativity_all_points():
    s = standard_simplex(1, 2)
    tlf = constant_two_level(s, one_point(2), one_point(2))
    assert associativity_check(tlf) == []


def test_associativity_constant_is_triple_product():
    s = standard_simplex(1, 2)
    t = standard_simplex(1, 2)
    u = one_point(2)
    tlf = constant_two_level(s, t, u)
    assert associativity_check(tlf) == []
    # both orders agree with the three-fold product
    res1 = compose(tlf.psi)
    from clubcat.sset_club import _flattened_family
    flat = _flattened_family(tlf, res1)
    left = compose(flat)
    triple = product(product(s, t), u)
    assert iso_sset(left.sset, triple) is not None


def grid_two_level(s, t, chain, chain_maps):
    """Constant psi at t; inner values varying by least vertices of s and t."""

    def level(i):
        return min(i, len(chain) - 1)

    def step(i, j):
        i, j = level(i), level(j)
        m = identity_smap(chain[i])
        for l in range(i, j):
            nxt = chain_maps[l]
            m = SimplicialMap(chain[i], nxt.tgt,
                              {x: nxt.apply(nf) for x, nf in m.images.items()})
        return m

    chi = {}
    for k in range(s.trunc + 1):
        for y in s.nondeg[k]:
            off = minvertex_of(y)
            values = {z: chain[level(off + minvertex_of(z))]
                      for kk in range(t.trunc + 1) for z in t.nondeg[kk]}
            face_maps = {}
            for kk in range(1, t.trunc + 1):
                for z in t.nondeg[kk]:
                    for i in range(kk + 1):
                        a = level(off + minvertex_of(z))
                        b = level(off + minvertex_of(t.faces[z][i].base))
                        face_maps[(z, i)] = step(a, b)
            chi[y] = SimplexFamily(t, values, face_maps, name=f"chi{y}")
    steps = {}
    for k in range(1, s.trunc + 1):
        for y in s.nondeg[k]:
            for i in range(k + 1):
                face = s.faces[y][i].base
                a, b = minvertex_of(y), minvertex_of(face)
                phi = {z: step(a + minvertex_of(z), b + minvertex_of(z))
                       for kk in range(t.trunc + 1) for z in t.nondeg[kk]}
                steps[(y, i)] = ClubMorphismSSet(chi[y], chi[face],
                                                 identity_smap(t), phi)
    return ClubObjectFamily(s, chi, steps, name="grid")


def test_grid_two_level_valid_and_associative():
    s = standard_simplex(1, 2)
    t = standard_simplex(1, 2)
    k0 = standard_simplex(1, 2)
    k1 = one_point(2)
    tlf = grid_two_level(s, t, [k0, k1, k1],
                         [collapse_map(k0, k1), identity_smap(k1)])
    assert validate_two_level(tlf) == []
    assert associativity_check(tlf) == []


def outer_fixtures():
    """Valid two-level families: random ones at trunc 2 and 3, a grid over
    the 2-simplex, and constant inner values over a psi whose face maps move
    t (every generated psi is constant)."""
    fams = [random_two_level(random.Random(seed), trunc)
            for trunc in (2, 3) for seed in range(12)]
    s2 = standard_simplex(2, 2)
    k0, k1 = standard_simplex(1, 2), one_point(2)
    chain, chain_maps = [k0, k1, k1], [collapse_map(k0, k1), identity_smap(k1)]
    fams.append(grid_two_level(s2, standard_simplex(1, 2), chain, chain_maps))
    fams.append(constant_inner(minvertex_family(s2, chain, chain_maps),
                               two_points(2)))
    return fams


def test_outer_transport_matches_the_per_t_recursion():
    for tlf in outer_fixtures():
        assert validate_two_level(tlf) == []
        s = tlf.base
        for k in range(s.trunc + 1):
            for x in s.all_simplices(k):
                v = tlf.psi.values[x.base]
                for m in range(s.trunc + 1):
                    for theta in all_monotone_maps(m, k):
                        step = tlf.transport(x, theta)
                        for n in range(v.trunc + 1):
                            for t in v.nondeg[n]:
                                tn = nondeg(t, n)
                                want, moved = s_transport(tlf, x, tn, theta)
                                assert smap_equal(step.phi[t], want)
                                assert step.f.apply(tn) == moved


def test_composed_face_transports_are_club_morphisms():
    pairs = 0
    for tlf in outer_fixtures():
        s, steps = tlf.base, tlf.face_maps
        for (y, i), m in steps.items():
            for (face, _), g in steps.items():
                if face != s.faces[y][i].base:
                    continue
                gm = compose_club_morphisms(g, m)
                assert validate_club_morphism(gm) == []
                assert compose_club_morphisms(identity_club_morphism(m.tgt), m) is m
                assert compose_club_morphisms(m, identity_club_morphism(m.src)) is m
                ra, rb, rc = compose(m.src), compose(m.tgt), compose(g.tgt)
                lhs = compose_morphism(gm, ra, rc)
                rhs = compose_smaps(compose_morphism(g, rb, rc),
                                    compose_morphism(m, ra, rb))
                assert lhs.images == rhs.images
                pairs += 1
    assert pairs == 36    # 24 in the random families, 6 in each fixture


def test_sset_equal_detects_difference():
    a = standard_simplex(1, 2)
    b = boundary(2, 2)
    assert not sset_equal(a, b)
    assert sset_equal(a, standard_simplex(1, 2))


def test_two_level_full_pair_functoriality():
    """The generator-wise transport checks pin down the full composition law:
    verify it directly on the materialized pair category of a small family."""
    from clubcat.simpset import apply_operator, compose_smaps, smap_equal
    from clubcat.sset_club import pair_category_sset

    s = standard_simplex(1, 1)
    t = standard_simplex(1, 1)
    k0 = standard_simplex(1, 1)
    k1 = one_point(1)
    tlf = grid_two_level(s, t, [k0, k1, k1],
                         [collapse_map(k0, k1), identity_smap(k1)])
    assert validate_two_level(tlf) == []
    pairs = pair_category_sset(tlf.psi)

    def chi_of(mid):
        th, tv = pairs.mor_data[mid]
        pid = pairs.cat.src[mid]
        snf, tnf = pairs.obj_data[pid]
        step = tlf.transport(snf, th)
        m1, moved = step.phi[tnf.base], step.f.apply(tnf)
        s2 = apply_operator(s, snf, th)
        m2 = tlf.values[s2.base].transport(moved, tv)
        return compose_smaps(m2, m1)

    tables = {mid: chi_of(mid) for mid in pairs.cat.mor_ids}
    for (m2, m1), m12 in pairs.cat.comp.items():
        assert smap_equal(tables[m12], compose_smaps(tables[m2], tables[m1]))


def test_family_with_empty_value():
    from clubcat.simpset import SimplicialSet
    s = standard_simplex(1, 2)
    empty = SimplicialSet(2, {}, {}, name="empty")
    k1 = one_point(2)
    fam = minvertex_family(s, [empty, k1], [SimplicialMap(empty, k1, {})])
    assert validate_family(fam) == []
    res = compose(fam)
    assert validate_sset(res.sset) == []
    # only the pairs over the vertex with a point fiber survive
    assert len(res.sset.nondeg[0]) == 1


# ---------------------------------------------------------------------------
# the direct diagonal and columns against the whole bisimplicial set

def assert_same_sset(a, b):
    """Two simplicial sets agree table for table, in order."""
    assert (a.name, a.trunc) == (b.name, b.trunc)
    assert list(a.nondeg.items()) == list(b.nondeg.items())
    assert list(a.faces.items()) == list(b.faces.items())


def assert_same_presentation(got, want):
    """Two (SimplicialSet, nf_of) pairs agree table for table, in order."""
    assert_same_sset(got[0], want[0])
    assert list(got[1].items()) == list(want[1].items())


def assert_compose_matches_reference(x, part_fn=None):
    res = compose(x, part_fn=part_fn)
    sset, nf_of, base_pair = reference_compose(x, part_fn=part_fn)
    assert_same_presentation((res.sset, res.nf_of), (sset, nf_of))
    assert list(res.base_pair.items()) == list(base_pair.items())
    for (_, elt), nf in nf_of.items():
        snf, tnf = res.pair_of(nf)
        assert (nf_id(snf), nf_id(tnf)) == elt


def hand_families(trunc):
    """Valid families that no generator draws: the amalgam of two points
    along S^0 over the interval, S^0 over the interval with one face map the
    swap, and S^0 over the boundary of the triangle with the swap on face 0
    of the edge 01."""
    pt, s0 = one_point(trunc), two_points(trunc)
    d1 = standard_simplex(1, trunc)
    amalgam = SimplexFamily(d1, {"0": pt, "1": pt, "01": s0},
                            {("01", i): collapse_map(s0, pt) for i in range(2)})
    twisted = with_face_map(constant_family(d1, s0), ("01", 0), swap_map(s0))
    circle = with_face_map(constant_family(boundary(2, trunc), s0), ("01", 0),
                           swap_map(s0))
    for fam in (amalgam, twisted, circle):
        assert validate_family(fam) == []
    return [amalgam, twisted, circle]


@pytest.mark.parametrize("trunc", [1, 2, 3, 4])
def test_compose_matches_the_bisimplicial_diagonal(trunc):
    families = [random_family(random.Random(seed), trunc) for seed in range(12)]
    if trunc <= 3:
        families += hand_families(trunc)
    for x in families:
        assert_compose_matches_reference(x)
        assert_compose_matches_reference(
            x, part_fn=lambda elt: (elt[1], "/", elt[0]))


def test_c5_composites_match_the_bisimplicial_diagonal(monkeypatch):
    """Every composite that the C5 associativity loop forms, with its own
    part naming: the base pairs, the outer and inner-first composites and
    the per-simplex inner composites."""
    calls = []

    def recording_compose(x, part_fn=None):
        calls.append((x, part_fn))
        return compose(x, part_fn=part_fn)

    monkeypatch.setattr(sset_club, "compose", recording_compose)
    rng = random.Random(5)
    for _ in range(20):
        assert associativity_check(random_two_level(rng, 3)) == []
    monkeypatch.undo()
    assert any(part_fn is not None for _, part_fn in calls)
    for x, part_fn in calls:
        assert_compose_matches_reference(x, part_fn=part_fn)


# ---------------------------------------------------------------------------
# negative controls for the law loops: a valid map with the right endpoints,
# swapped in where the laws need another one

def two_points(trunc):
    return disjoint_union(one_point(trunc), one_point(trunc))


def swap_map(t):
    """The automorphism of two points exchanging them."""
    return SimplicialMap(t, t, {"0:pt": nondeg("1:pt", 0),
                                "1:pt": nondeg("0:pt", 0)})


def swapped_face_family():
    """The constant family of two points over the 2-simplex with the face
    map at (012, 0) the swap."""
    s = standard_simplex(2, 2)
    t = two_points(2)
    return with_face_map(constant_family(s, t), ("012", 0), swap_map(t))


def test_swapped_face_map_breaks_functoriality():
    fam = swapped_face_family()
    assert validate_smap(fam.face_maps[("012", 0)]) == []
    report = validate_family(fam)
    assert report
    assert all(r.startswith("functoriality fails") for r in report)


def swapped_component_two_level(trunc=1):
    """One transport component over the interval swapped: a face map that
    is not natural."""
    u = two_points(trunc)
    tlf = constant_two_level(standard_simplex(1, trunc),
                             standard_simplex(1, trunc), u)
    return with_component(tlf, ("01", 0), "01", swap_map(u))


def swapped_face_components_two_level():
    """Every transport component along one face of the 2-simplex swapped
    alike: natural face maps whose two routes around the 2-simplex
    disagree."""
    u = two_points(2)
    tlf = constant_two_level(standard_simplex(2, 2), one_point(2), u)
    return with_component(tlf, ("012", 0), "pt", swap_map(u))


def test_swapped_s_map_breaks_transport_naturality():
    report = validate_two_level(swapped_component_two_level())
    assert report
    assert all(r.startswith("transport naturality fails") for r in report)


def test_swapped_face_components_break_transport_coherence():
    report = validate_two_level(swapped_face_components_two_level())
    assert report
    assert all(r.startswith("transport coherence fails") for r in report)


def missing_component_two_level():
    """The constant two-level family over the interval with the transport
    component at (01, 0, 01) removed."""
    s = standard_simplex(1, 1)
    tlf = constant_two_level(s, standard_simplex(1, 1), one_point(1))
    step = tlf.face_maps[("01", 0)]
    phi = {t: m for t, m in step.phi.items() if t != "01"}
    return with_face_map(tlf, ("01", 0), step._replace(phi=phi))


def wrong_endpoint_two_level():
    """The constant two-level family over the interval with one transport
    component a valid map into the wrong value."""
    s = standard_simplex(1, 1)
    u = one_point(1)
    tlf = constant_two_level(s, standard_simplex(1, 1), u)
    wrong = SimplicialMap(u, standard_simplex(1, 1), {"pt": nondeg("0", 0)})
    assert validate_smap(wrong) == []
    return with_component(tlf, ("01", 0), "01", wrong)


def test_missing_s_map_is_one_missing_transport_component():
    assert validate_two_level(missing_component_two_level()) == [
        "transport component missing at '01' along ('01', 0)"]


def test_s_map_into_the_wrong_value_has_wrong_endpoints():
    assert validate_two_level(wrong_endpoint_two_level()) == [
        "transport component at '01' has wrong endpoints along ('01', 0)"]


def test_face_map_from_another_club_object_has_wrong_endpoints():
    # a valid morphism of club objects with the right base map, from a
    # family equal to the value at 01 but not that value
    u = one_point(1)
    tlf = constant_two_level(standard_simplex(1, 1), standard_simplex(1, 1), u)
    step = tlf.face_maps[("01", 0)]
    stranger = step._replace(src=constant_family(step.src.base, u))
    assert validate_club_morphism(stranger) == []
    fam = ClubObjectFamily(tlf.base, tlf.values,
                           {**tlf.face_maps, ("01", 0): stranger})
    assert validate_two_level(fam) == [
        "transport along ('01', 0) has wrong endpoints"]


# ---------------------------------------------------------------------------
# built values are frozen: their tables refuse writes, and a value with one
# entry changed is built anew, with its derived tables

def test_built_tables_refuse_writes():
    d1 = standard_simplex(1, 1)
    tlf = constant_two_level(d1, d1, one_point(1))
    f = tlf.face_maps[("01", 0)].f
    assert SimplicialMap(f.src, f.tgt, f.images, f.name) is f
    comp = d1.category().comp
    for table, key in [(tlf.values, "01"), (tlf.face_maps, ("01", 0)),
                       (f.images, "0"), (comp, next(iter(comp)))]:
        with pytest.raises(TypeError):
            table[key] = table[key]


def test_a_face_map_over_another_base_map_has_its_own_psi():
    # the face map at (01, 0) of the constant two-level family over the
    # interval, moved over the base map constant at 0; psi is built from
    # the new face map, so both checks see the same family
    d1 = standard_simplex(1, 1)
    tlf = constant_two_level(d1, d1, one_point(1))
    const0 = SimplicialMap(d1, d1, {
        "0": nondeg("0", 0), "1": nondeg("0", 0),
        "01": apply_operator(d1, nondeg("0", 0), degeneracy_map(0, 0))})
    assert validate_smap(const0) == []
    moved = tlf.face_maps[("01", 0)]._replace(f=const0)
    fam = ClubObjectFamily(tlf.base, tlf.values,
                           {**tlf.face_maps, ("01", 0): moved})
    assert fam.psi.face_maps[("01", 0)] is const0
    assert validate_two_level(fam) == []
    assert associativity_check(fam) == []


# ---------------------------------------------------------------------------
# the law walks, memoized on normal forms, against the unmemoized reference

def swapped_face_families(n):
    """The constant family of two points over the n-simplex, at truncation
    n, with one face map swapped: one family for each face map."""
    s, t = standard_simplex(n, n), two_points(n)
    fam = constant_family(s, t)
    return [with_face_map(fam, key, swap_map(t)) for key in fam.face_maps]


def test_law_walks_match_the_unmemoized_reference():
    s2 = standard_simplex(2, 2)
    k0, k1 = standard_simplex(1, 2), one_point(2)
    families = [minvertex_family(s2, [k0, k1, k1],
                                 [collapse_map(k0, k1), identity_smap(k1)])]
    families += [fam for trunc in (1, 2, 3) for fam in hand_families(trunc)]
    families += [random_family(random.Random(seed), trunc)
                 for trunc in (2, 3) for seed in range(8)]
    families += swapped_face_families(2) + swapped_face_families(3)
    # outer_fixtures holds random_two_level seeds 0-11 at trunc 2 and 3
    two_levels = outer_fixtures() + [swapped_component_two_level(1),
                                     swapped_component_two_level(2),
                                     swapped_face_components_two_level()]
    morphisms = []
    for tlf in two_levels:
        families += [tlf.psi, *tlf.values.values(), tlf]
        morphisms += tlf.face_maps.values()
    failures = []
    for fam in families:
        got = list(fam.functoriality_failures())
        assert got == list(reference_functoriality_failures(fam))
        failures += got
    unnatural = []
    for m in morphisms:
        got = validate_club_morphism(m)
        assert got == reference_naturality_failures(m)
        unnatural += got
    # a failure at a degenerate simplex is one the memo answers for a key
    # first met at another simplex
    assert any(not x.is_nondegenerate() for x, _, _ in failures)
    assert any("@" in r for r in unnatural)


# ---------------------------------------------------------------------------
# full reports on two-level families, compared line by line with the ones
# in golden/two_level_reports.json

TWO_LEVEL_GOLDEN = pathlib.Path(__file__).parent / "golden" / "two_level_reports.json"


def two_level_report_cases():
    """(case id, thunk) for every recorded report: ``validate_two_level`` and
    ``associativity_check`` on the hand-built and random two-level families,
    and ``two_stage_colimit_check`` on the discrete ones that ``algebra-laws``
    draws at truncation 2 and on the swapped control of test_algebra.py,
    which is ``swapped_face_components_two_level()``."""
    named = [("swapped-component-trunc1", lambda: swapped_component_two_level(1)),
             ("swapped-component-trunc2", lambda: swapped_component_two_level(2)),
             ("swapped-face-components", swapped_face_components_two_level),
             ("missing-component", missing_component_two_level),
             ("wrong-endpoint", wrong_endpoint_two_level),
             ("grid", grid_interval_two_level)]
    named += [(f"random-trunc{trunc}-seed{seed}",
               lambda seed=seed, trunc=trunc:
               random_two_level(random.Random(seed), trunc))
              for trunc in (2, 3) for seed in range(12)]
    cases = []
    for name, make in named:
        cases.append((f"validate_two_level:{name}",
                      lambda make=make: validate_two_level(make())))
        cases.append((f"associativity_check:{name}",
                      lambda make=make: associativity_check(make())))
    cases += [(f"two_stage_colimit_check:random-discrete-seed{seed}",
               lambda seed=seed: two_stage_colimit_check(
                   random_two_level(random.Random(seed), 2, discrete=True)))
              for seed in range(20)]
    cases.append(("two_stage_colimit_check:swapped-face-components",
                  lambda: two_stage_colimit_check(
                      swapped_face_components_two_level())))
    return cases


def grid_interval_two_level():
    """The grid two-level family of ``test_grid_two_level_valid_and_associative``."""
    k0, k1 = standard_simplex(1, 2), one_point(2)
    return grid_two_level(standard_simplex(1, 2), standard_simplex(1, 2),
                          [k0, k1, k1], [collapse_map(k0, k1), identity_smap(k1)])


def test_two_level_reports_match_the_golden():
    golden = json.loads(TWO_LEVEL_GOLDEN.read_text(encoding="utf-8"))
    cases = two_level_report_cases()
    assert [name for name, _ in cases] == list(golden)
    for name, report in cases:
        assert report() == golden[name], name
    # the controls fail, each with the reports recorded for it
    assert golden["validate_two_level:swapped-face-components"]
    assert golden["two_stage_colimit_check:swapped-face-components"]


if __name__ == "__main__":
    # re-record only when a report changes on purpose
    TWO_LEVEL_GOLDEN.write_text(
        json.dumps({name: report() for name, report in two_level_report_cases()},
                   indent=1) + "\n", encoding="utf-8")
