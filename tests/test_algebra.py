import json
import random

import pytest

from clubcat import algebra, formats
from clubcat.algebra import (AlgebraMorphism, AlgebraObject,
                             FinSetDiagram, IPoint, act_category,
                             colimit_act, colimit_finset,
                             constant_algebra_object, i_points,
                             i_points_sset, induced_map, is_fibration,
                             sset_stability_check,
                             two_stage_colimit_check,
                             validate_algebra_morphism,
                             validate_finset_diagram)
from clubcat.fincat import discrete_category, find_isomorphism, validate_category
from clubcat.generate import (discrete_sset, minvertex_chain_family,
                              random_chain, random_stability_sample,
                              random_two_level)
from clubcat.operads import associative_operad, encode_ns
from clubcat.diagram import unit_diagram
from clubcat.simpset import (MonotoneMap, NormalForm, SimplexCategory,
                             SimplicialMap, boundary, compose_smaps,
                             degeneracy_map, disjoint_union, horn, identity_smap,
                             is_kan_fibration, nf_id, nondeg, one_point,
                             standard_simplex, validate_sset)
from clubcat.sset_club import (ClubMorphismSSet, ClubObjectFamily,
                               associativity_check, compose, compose_morphism,
                               constant_family, constant_inner,
                               constant_two_level, identity_club_morphism,
                               validate_two_level)
from finset_reference import (reference_i_points_with_nf,
                              reference_is_kan_fibration,
                              reference_two_stage_colimit_check,
                              reference_validate_finset_diagram)
from mutants import with_component


def test_ipoint_hashes_as_its_fields():
    # sets of probes iterate in the order their hashes give
    assert hash(IPoint(1, "x", (0,))) == hash((1, "x", (0,)))
    assert IPoint(1, "x", (0,)) == IPoint(1, "x", (0,))


def test_act_category_unit_is_identity():
    m = discrete_category(["a", "b"])
    cat = act_category(unit_diagram(), m)
    assert validate_category(cat) == []
    assert find_isomorphism(cat, m) is not None


def test_act_category_operad_counts():
    c = encode_ns(associative_operad(2, with_nullary=True)).diagram
    m = discrete_category(["a", "b"])
    cat = act_category(c, m)
    assert len(cat.objects) == 1 + 2 + 4


def test_act_category_point_target():
    from clubcat.fincat import terminal_category
    c = encode_ns(associative_operad(2, with_nullary=True)).diagram
    cat = act_category(c, terminal_category())
    assert find_isomorphism(cat, c.base) is not None


# ---------------------------------------------------------------------------
# colimits

def test_colimit_constant_over_connected_shape():
    x = constant_algebra_object(standard_simplex(2, 2), ["u", "v"])
    assert validate_finset_diagram(x.diagram) == []
    reps = colimit_act(x)
    assert len(reps) == 2


def test_colimit_constant_over_two_points():
    shape = disjoint_union(one_point(1), one_point(1))
    x = constant_algebra_object(shape, ["u"])
    reps = colimit_act(x)
    assert len(reps) == 2


def test_colimit_pushout_shape():
    # over the interval: edge value {m}, vertex values {a0, b0} and {a1}
    shape = standard_simplex(1, 1)
    cat = shape.category()
    values, maps = {}, {}
    for oid in cat.objects:
        nf = cat.simplex_of[oid]
        if nf.base == "01":
            values[oid] = ["m"]
        elif nf.base == "0":
            values[oid] = ["a0", "b0"]
        else:
            values[oid] = ["a1"]
    for mid in cat.mor_ids:
        src, tgt = cat.src[mid], cat.tgt[mid]
        f = {}
        for e in values[src]:
            if values[tgt] == values[src]:
                f[e] = e
            elif e == "m":
                f[e] = values[tgt][0]   # edge value collapses to first element
            else:
                f[e] = "m"
        maps[mid] = f
    d = FinSetDiagram(cat, values, maps)
    report = validate_finset_diagram(d)
    assert report == []
    reps, _ = colimit_finset(d)
    # m ~ a0 and m ~ a1, so classes are {m, a0, a1} and {b0}
    assert len(reps) == 2


# ---------------------------------------------------------------------------
# point complexes

def test_points_of_constant_over_vertex():
    x = constant_algebra_object(one_point(1), ["u", "v"])
    pts = i_points(x, ("*",), 0)
    assert len(pts) == 2


def test_points_of_empty_values():
    x = constant_algebra_object(one_point(1), [])
    sset = i_points_sset(x, ("*",))
    assert all(not sset.nondeg[k] for k in range(2))


def test_points_count_matches_family_enumeration():
    # non-constant diagram over the interval with a collapsing edge map
    shape = standard_simplex(1, 1)
    cat = shape.category()
    values, maps = {}, {}
    for oid in cat.objects:
        nf = cat.simplex_of[oid]
        values[oid] = ["p", "q"] if nf.base == "01" else ["z"] if nf.base == "0" else ["w1", "w2"]
    for mid in cat.mor_ids:
        src, tgt = cat.src[mid], cat.tgt[mid]
        f = {}
        for e in values[src]:
            if values[src] == values[tgt]:
                f[e] = e
            elif e in ("p", "q"):
                f[e] = values[tgt][0] if e == "p" else values[tgt][-1]
            else:
                f[e] = values[tgt][0]
        maps[mid] = f
    d = FinSetDiagram(cat, values, maps)
    assert validate_finset_diagram(d) == []
    x = AlgebraObject(shape, d)
    # oracle: brute-force natural families over the standard-simplex operators
    for n in range(2):
        got = i_points(x, ("*",), n)
        count = 0
        for xnf in shape.all_simplices(n):
            # a natural family is determined by naturality from the top value,
            # so enumerate all choices and filter explicitly
            objs = [(m, theta) for m in range(2)
                    for theta in __import__("clubcat.simpset", fromlist=["all_monotone_maps"]).all_monotone_maps(m, n)]
            tops = d.values[nf_id(xnf)]
            for top in tops:
                ok = True
                family = {}
                for (m, theta) in objs:
                    mid = nf_id(xnf) + "!" + ".".join(str(v) for v in theta.values)
                    family[(m, tuple(theta.values))] = d.maps[mid][top]
                # check naturality of the induced family on one further step
                for (m, theta) in objs:
                    target = nf_id(__import__("clubcat.simpset", fromlist=["apply_operator"]).apply_operator(shape, xnf, theta))
                    for m2 in range(2):
                        for theta2 in __import__("clubcat.simpset", fromlist=["all_monotone_maps"]).all_monotone_maps(m2, m):
                            mid2 = target + "!" + ".".join(str(v) for v in theta2.values)
                            from clubcat.simpset import compose_maps
                            comp = compose_maps(theta, theta2)
                            midc = nf_id(xnf) + "!" + ".".join(str(v) for v in comp.values)
                            if d.maps[mid2][family[(m, tuple(theta.values))]] != d.maps[midc][top]:
                                ok = False
                if ok:
                    count += 1
        assert len(got) == count


def test_points_sset_validates():
    x = constant_algebra_object(standard_simplex(1, 2), ["u", "v"])
    sset = i_points_sset(x, ("*",))
    assert validate_sset(sset) == []


def test_identity_morphism_is_fibration():
    x = constant_algebra_object(standard_simplex(1, 2), ["u"])
    cat = x.shape.category()
    m = AlgebraMorphism(x, x, identity_smap(x.shape),
                        {oid: {"u": "u"} for oid in cat.objects})
    assert validate_algebra_morphism(m) == []
    ok, _ = is_fibration(m, [("*",)])
    assert ok


def test_collapsing_morphism_is_not_fibration():
    src = constant_algebra_object(disjoint_union(one_point(2), one_point(2)), ["u"])
    tgt = constant_algebra_object(one_point(2), ["u"])
    f = SimplicialMap(src.shape, tgt.shape,
                      {"0:pt": nondeg("pt", 0), "1:pt": nondeg("pt", 0)})
    cat = src.shape.category()
    m = AlgebraMorphism(src, tgt, f, {oid: {"u": "u"} for oid in cat.objects})
    assert validate_algebra_morphism(m) == []
    ok, info = is_fibration(m, [("*",)])
    assert not ok
    assert info["reason"] == "base map not injective"


def test_induced_map_on_points():
    x = constant_algebra_object(one_point(1), ["u", "v"])
    y = constant_algebra_object(one_point(1), ["u"])
    cat = x.shape.category()
    m = AlgebraMorphism(x, y, identity_smap(x.shape),
                        {oid: {"u": "u", "v": "u"} for oid in cat.objects})
    g = induced_map(m, ("*",))
    from clubcat.simpset import validate_smap, is_injective
    assert validate_smap(g) == []
    assert not is_injective(g)


# ---------------------------------------------------------------------------
# two-stage evaluation

def test_two_stage_constant_points():
    s = standard_simplex(1, 2)
    tlf = constant_two_level(s, one_point(2), one_point(2))
    assert two_stage_colimit_check(tlf) == []


def test_two_stage_constant_sets():
    s = standard_simplex(1, 2)
    t = standard_simplex(1, 2)
    u = disjoint_union(one_point(2), one_point(2))
    tlf = constant_two_level(s, t, u)
    assert two_stage_colimit_check(tlf) == []


def test_two_stage_rejects_nondiscrete():
    s = standard_simplex(1, 2)
    tlf = constant_two_level(s, one_point(2), standard_simplex(1, 2))
    from clubcat.errors import InputError
    with pytest.raises(InputError):
        two_stage_colimit_check(tlf)


# ---------------------------------------------------------------------------
# stability

def test_stability_identity_samples():
    s = standard_simplex(1, 2)
    x = constant_family(s, one_point(2))
    assert sset_stability_check([identity_club_morphism(x)]) == []


def test_stability_injective_composite():
    s = standard_simplex(1, 2)
    t0, t1 = one_point(2), standard_simplex(1, 2)
    incl = SimplicialMap(t0, t1, {"pt": nondeg("0", 0)})
    x = constant_family(s, t0)
    y = constant_family(s, t1)
    m = ClubMorphismSSet(x, y, identity_smap(s),
                         {z: incl for k in range(3) for z in s.nondeg[k]})
    assert sset_stability_check([m]) == []


def test_colimit_invariant_under_shape_isomorphism():
    from clubcat.simpset import iso_sset, nf_id
    a = standard_simplex(1, 1)
    b = standard_simplex(1, 1)
    iso = iso_sset(a, b)
    assert iso is not None
    xa = constant_algebra_object(a, ["u", "v"])
    # transport the diagram along the isomorphism: values pulled back
    cat_b = b.category()
    values = {oid: ["u", "v"] for oid in cat_b.objects}
    maps = {mid: {"u": "u", "v": "v"} for mid in cat_b.mor_ids}
    xb = AlgebraObject(b, FinSetDiagram(cat_b, values, maps))
    reps_a = colimit_act(xa)
    reps_b = colimit_act(xb)
    assert len(reps_a) == len(reps_b) == 2


def test_probes_separate_fixtures():
    shape = standard_simplex(1, 1)
    small = constant_algebra_object(shape, ["u"])
    big = constant_algebra_object(shape, ["u", "v"])
    n_small = len(i_points(small, ("*",), 0))
    n_big = len(i_points(big, ("*",), 0))
    assert n_small != n_big


def test_algebra_associativity_check_wrapper():
    from clubcat.algebra import algebra_associativity_check
    s = standard_simplex(1, 2)
    samples = [constant_two_level(s, one_point(2), one_point(2)),
               constant_two_level(s, one_point(2),
                                  disjoint_union(one_point(2), one_point(2)))]
    assert algebra_associativity_check(samples) == []


# ---------------------------------------------------------------------------
# the checks against their references

def checked_diagrams(monkeypatch, tlf):
    """The diagrams that ``two_stage_colimit_check`` validates on tlf."""
    seen = []
    real = algebra.validate_finset_diagram

    def recording(d):
        seen.append(d)
        return real(d)

    monkeypatch.setattr(algebra, "validate_finset_diagram", recording)
    two_stage_colimit_check(tlf)
    monkeypatch.undo()
    return seen


def pool_diagrams(monkeypatch):
    """The one-stage and outer diagrams of the two-level families that
    ``algebra-laws`` draws at truncation 2, seeds 0-19."""
    out = []
    for seed in range(20):
        tlf = random_two_level(random.Random(seed), 2, discrete=True)
        out.extend(checked_diagrams(monkeypatch, tlf))
    return out


def test_finset_validation_matches_the_reference_on_the_pool(monkeypatch):
    diagrams = pool_diagrams(monkeypatch)
    assert [d.name for d in diagrams] == ["one-stage", "two-stage"] * 20
    for d in diagrams:
        assert validate_finset_diagram(d) == reference_validate_finset_diagram(d)


def identity_map_mutant(diagrams):
    """The first pool diagram with two elements at an object, one of them
    moved at that object's identity; and the object."""
    d, o = next((d, o) for d in diagrams for o in d.cat.objects
                if len(d.values[o]) >= 2)
    i = d.cat.identity(o)
    e0, e1 = d.values[o][:2]
    return FinSetDiagram(d.cat, d.values, {**d.maps, i: {**d.maps[i], e0: e1}}), o


def degenerate_map_mutant(diagrams):
    """The first pool diagram with one element moved at a morphism out of a
    degenerate simplex into a value of two or more elements."""
    d, m = next((d, m) for d in diagrams for m in d.cat.nonidentity_morphisms()
                if not d.cat.simplex_of[d.cat.src[m]].is_nondegenerate()
                and len(d.values[d.cat.tgt[m]]) >= 2)
    e = d.values[d.cat.src[m]][0]
    moved = next(x for x in d.values[d.cat.tgt[m]] if x != d.maps[m][e])
    return FinSetDiagram(d.cat, d.values, {**d.maps, m: {**d.maps[m], e: moved}})


def overridden_composite_diagram(diagrams):
    """The first valid pool diagram with one composite (g, f) sent to another
    morphism out of the source of f that moves an element, over a category
    of simplices of its own; and (g, f)."""
    d, key, other = next(
        (d, (g, f), other) for d in diagrams
        for (g, f), gf in d.cat.comp.items()
        for other in d.cat.mor_ids if d.cat.src[other] == d.cat.src[f]
        and any(d.maps[other][e] != d.maps[gf][e]
                for e in d.values[d.cat.src[f]]))
    assert validate_finset_diagram(d) == []
    c = d.cat
    cat = SimplexCategory(c.objects, c.morphisms, c.identities,
                          {**c.comp, key: other}, c.simplex_of, c.operator_of,
                          c.mor_of, name=c.name)
    return FinSetDiagram(cat, d.values, d.maps, name=d.name), key


def test_finset_validation_matches_the_reference_on_map_mutants(monkeypatch):
    diagrams = pool_diagrams(monkeypatch)
    mutant, o = identity_map_mutant(diagrams)
    report = validate_finset_diagram(mutant)
    assert f"identity map is not the identity at {o!r}" in report
    assert any(r.startswith("functoriality fails") for r in report)
    assert report == reference_validate_finset_diagram(mutant)
    mutant = degenerate_map_mutant(diagrams)
    report = validate_finset_diagram(mutant)
    assert report and all(r.startswith("functoriality fails") for r in report)
    assert report == reference_validate_finset_diagram(mutant)


def test_finset_validation_reads_an_overridden_composite(monkeypatch):
    d, key = overridden_composite_diagram(pool_diagrams(monkeypatch))
    report = validate_finset_diagram(d)
    assert any(r.startswith(f"functoriality fails at {key!r}") for r in report)
    assert report == reference_validate_finset_diagram(d)


def counted_check(monkeypatch, tlf):
    """The report of ``two_stage_colimit_check`` on tlf and the names of the
    diagrams it collapses, in order."""
    names = []
    real = algebra.colimit_finset

    def counting(d):
        names.append(d.name)
        return real(d)

    monkeypatch.setattr(algebra, "colimit_finset", counting)
    report = two_stage_colimit_check(tlf)
    monkeypatch.undo()
    return report, names


def test_two_stage_builds_one_inner_colimit_per_base_simplex(monkeypatch):
    for seed in range(20):
        tlf = random_two_level(random.Random(seed), 2, discrete=True)
        report, names = counted_check(monkeypatch, tlf)
        s = tlf.base
        inner = [f"inner({y})" for k in range(s.trunc + 1) for y in s.nondeg[k]]
        assert names == ["one-stage", *inner, "two-stage"]
        assert report == reference_two_stage_colimit_check(tlf) == []


def test_two_stage_negative_control_matches_the_reference(monkeypatch):
    # swapping the two points along one face of the triangle, and along no
    # other, breaks functoriality of the one-stage diagram
    s = standard_simplex(2, 2)
    u = disjoint_union(one_point(2), one_point(2))
    a, b = u.nondeg[0]
    tlf = with_component(constant_two_level(s, one_point(2), u), ("012", 0),
                         "pt", SimplicialMap(u, u, {a: nondeg(b, 0), b: nondeg(a, 0)}))
    report, names = counted_check(monkeypatch, tlf)
    assert names == []
    assert report and all(r.startswith("one-stage diagram: functoriality fails")
                          for r in report)
    assert report == reference_two_stage_colimit_check(tlf)


def moving_outer_cases():
    """(family, control) pairs over Δ[1], Δ[2] and ∂Δ[2] at truncation 2:
    psi takes point sets along a chain of vertex functions, so an outer
    transport moves t, and every inner value is one discrete u.  The control
    permutes the points of u in one component of one face map."""
    rng = random.Random(38)
    for s in (standard_simplex(1, 2), standard_simplex(2, 2), boundary(2, 2)):
        for _ in range(12):
            psi = minvertex_chain_family(s, *random_chain(rng, 2, discrete=True))
            u = discrete_sset(2, rng.randint(2, 3), prefix="u")
            tlf = constant_inner(psi, u)
            key = rng.choice(sorted(tlf.face_maps))
            t = rng.choice(psi.values[key[0]].nondeg[0])
            points = u.nondeg[0]
            cycle = SimplicialMap(u, u, {p: nondeg(points[i - 1], 0)
                                         for i, p in enumerate(points)})
            yield tlf, with_component(tlf, key, t, cycle)


def test_two_stage_on_outer_transports_that_move_t():
    reports = []
    for tlf, control in moving_outer_cases():
        assert validate_two_level(tlf) == []
        assert any(f.src is not f.tgt for f in tlf.psi.face_maps.values())
        for case in (tlf, control):
            report = two_stage_colimit_check(case)
            assert report == reference_two_stage_colimit_check(case)
            reports.append(report)
    assert len(reports) == 72
    # every family passes; some controls fail
    assert not any(reports[::2]) and any(reports[1::2])


def face_swapping_family():
    """A valid two-level family over Δ[2] whose inner components differ by t.

    psi is A at the simplices that contain vertex 1 and B at the others: two
    discrete 2-point sets with the same vertex ids, every face map A -> B the
    swap and every other face map the identity.  The inner value at y is the
    constant family of two discrete points u over psi's value at y.  The
    component of the face map (y, i) at t is σ(face, f(t))⁻¹ ∘ σ(y, t), f
    psi's face map and σ the swap of u at ("02", the second point) and the
    identity elsewhere, so every composite of face maps is path-independent."""
    s = standard_simplex(2, 2)
    a, b = discrete_sset(2, 2, prefix="p"), discrete_sset(2, 2, prefix="p")
    u = discrete_sset(2, 2, prefix="u")
    p0, p1 = a.nondeg[0]
    u0, u1 = u.nondeg[0]
    swap = SimplicialMap(a, b, {p0: nondeg(p1, 0), p1: nondeg(p0, 0)})
    swap_u = SimplicialMap(u, u, {u0: nondeg(u1, 0), u1: nondeg(u0, 0)})

    def sigma(y, t):
        return swap_u if (y, t) == ("02", p1) else identity_smap(u)

    psi_values = {y: a if "1" in y else b for y, _ in s.listing()}
    inner = {y: constant_family(v, u) for y, v in psi_values.items()}
    face_maps = {}
    for y, i in s.face_slots():
        face = s.faces[y][i].base
        src, tgt = psi_values[y], psi_values[face]
        f = swap if src is not tgt else identity_smap(src)
        phi = {t: compose_smaps(sigma(face, f.images[t].base), sigma(y, t))
               for t in (p0, p1)}
        face_maps[(y, i)] = ClubMorphismSSet(inner[y], inner[face], f, phi)
    return ClubObjectFamily(s, inner, face_maps, name="face-swapping")


def test_face_swapping_family_passes_both_laws():
    tlf = face_swapping_family()
    assert validate_two_level(tlf) == []
    assert associativity_check(tlf) == []
    assert two_stage_colimit_check(tlf) == reference_two_stage_colimit_check(tlf) == []


def test_composing_with_the_component_at_the_wrong_t_fails_both_laws(monkeypatch):
    def at_wrong_t(g, m):
        """``compose_club_morphisms`` reading g's component at y instead of
        at m's image of y."""
        if m is m.src._club_identity:
            return g
        if g is g.src._club_identity:
            return m
        phi = {y: compose_smaps(g.phi[y], comp) for y, comp in m.phi.items()}
        return ClubMorphismSSet(m.src, g.tgt, compose_smaps(g.f, m.f), phi)

    # transports are cached per family, so the family is built after the patch
    monkeypatch.setattr(ClubObjectFamily, "_compose", staticmethod(at_wrong_t))
    tlf = face_swapping_family()
    assert validate_two_level(tlf)[0] == (
        "transport coherence fails at ('012', (0, 2), (0,))")
    report = two_stage_colimit_check(tlf)
    assert report and all(r.startswith("two-stage diagram: functoriality fails")
                          for r in report)


def split_class(reps, classes):
    """The last member of the first class with two or more members made a
    class of its own."""
    members = {}
    for e, r in classes.items():
        members.setdefault(r, []).append(e)
    r, ms = next((r, ms) for r, ms in members.items() if len(ms) >= 2)
    m = next(e for e in reversed(ms) if e != r)
    return sorted(reps + [m]), {**classes, m: m}


def move_element(reps, classes):
    """A non-representative member of the first class with two or more
    members moved to the class of another representative."""
    members = {}
    for e, r in classes.items():
        members.setdefault(r, []).append(e)
    r, ms = next((r, ms) for r, ms in members.items() if len(ms) >= 2)
    m = next(e for e in ms if e != r)
    return reps, {**classes, m: next(x for x in reps if x != r)}


def test_two_stage_comparison_reports_injected_faults(monkeypatch):
    # the comparison stage sees the two-stage colimit with one fault; the
    # one-stage and inner colimits are left alone
    real = algebra.colimit_finset
    reports = []
    for fault in (split_class, move_element):
        for seed in (0, 1):
            tlf = random_two_level(random.Random(seed), 2, discrete=True)
            assert two_stage_colimit_check(tlf) == []

            def faulted(d):
                reps, classes = real(d)
                return fault(reps, classes) if d.name == "two-stage" else (
                    reps, classes)

            monkeypatch.setattr(algebra, "colimit_finset", faulted)
            report = two_stage_colimit_check(tlf)
            monkeypatch.undo()
            assert report
            reports.extend(report)
    for prefix in ("comparison not well-defined at class ",
                   "colimit sizes differ: ", "comparison misses "):
        assert any(r.startswith(prefix) for r in reports)


def sweep_objects():
    """Constant algebra objects over six small shapes at truncation 1-3,
    with 1-3 elements, each with the generators of 0-2 elements."""
    for trunc in (1, 2, 3):
        shapes = [standard_simplex(1, trunc), standard_simplex(2, trunc),
                  boundary(2, trunc), horn(2, 1, trunc), one_point(trunc),
                  disjoint_union(one_point(trunc), standard_simplex(1, trunc))]
        for shape in shapes:
            for size in (1, 2, 3):
                x = constant_algebra_object(shape, [f"e{i}" for i in range(size)])
                for gen in ((), ("g0",), ("g0", "g1")):
                    yield x, gen


def degenerate_loop_object():
    """Over the point at truncation 1: {u} at the vertex and {u, w} at its
    degenerate edge, every other operator sending everything to u.  The
    degeneracy is not a bijection, and the probe (s0 pt, w) is a
    non-degenerate loop."""
    shape = one_point(1)
    cat = shape.category()
    values = {o: ["u"] if cat.simplex_of[o].is_nondegenerate() else ["u", "w"]
              for o in cat.objects}
    maps = {m: ({e: e for e in values[cat.src[m]]} if m == cat.identity(cat.src[m])
                else {e: "u" for e in values[cat.src[m]]})
            for m in cat.mor_ids}
    return AlgebraObject(shape, FinSetDiagram(cat, values, maps))


def point_complex_bytes(pair):
    sset, nf_of = pair
    return (json.dumps(formats.sset_to_json(sset)), sset.name, repr(list(nf_of.items())))


def test_point_complexes_match_the_extensional_reference():
    cases = list(sweep_objects())
    assert len(cases) == 162
    loop = degenerate_loop_object()
    assert validate_finset_diagram(loop.diagram) == []
    cases += [(loop, gen) for gen in ((), ("g0",), ("g0", "g1"))]
    for x, gen in cases:
        assert (point_complex_bytes(algebra._i_points_with_nf(x, gen))
                == point_complex_bytes(reference_i_points_with_nf(x, gen)))


def test_a_non_bijective_degeneracy_gives_a_non_degenerate_loop():
    x = degenerate_loop_object()
    sset, nf_of = algebra._i_points_with_nf(x, ("g0",))
    edge = nf_id(x.shape.all_simplices(1)[0])
    loop = nf_of[(1, (edge, ("w",)))]
    assert loop.is_nondegenerate()
    assert not nf_of[(1, (edge, ("u",)))].is_nondegenerate()
    vertex = nf_of[(0, ("pt", ("u",)))]
    assert sset.faces[loop.base] == [vertex, vertex]
    assert [len(sset.nondeg[k]) for k in (0, 1)] == [1, 1]


def kan_verdicts_agree(f, max_dim):
    got = is_kan_fibration(f, max_dim)
    assert got == reference_is_kan_fibration(f, max_dim)
    return got


def test_horn_lifting_matches_the_reference_on_stability_composites():
    verdicts = []
    for trunc in (2, 3):
        for seed in range(20):
            m = random_stability_sample(random.Random(seed), trunc)
            composed = compose_morphism(m, compose(m.src), compose(m.tgt))
            verdicts.append(kan_verdicts_agree(composed, trunc - 1)[0])
    assert True in verdicts and False in verdicts


def test_horn_lifting_matches_the_reference_on_induced_maps():
    # the identity, the collapse of the values and the collapse onto the
    # point, on each swept object above truncation 1 with at most one
    # generator element
    verdicts = []
    for x, gen in sweep_objects():
        shape = x.shape
        if shape.trunc == 1 or len(gen) == 2:
            continue
        cat = shape.category()
        first = x.diagram.values[cat.objects[0]][0]
        pt = one_point(shape.trunc)
        to_point = SimplicialMap(shape, pt, {
            y: NormalForm(MonotoneMap(0, [0] * (k + 1)), "pt")
            for k in range(shape.trunc + 1) for y in shape.nondeg[k]})
        for tgt, f, phi in (
                (x, identity_smap(shape), lambda e: e),
                (constant_algebra_object(shape, [first]), identity_smap(shape),
                 lambda e: first),
                (constant_algebra_object(pt, [first]), to_point,
                 lambda e: first)):
            m = AlgebraMorphism(x, tgt, f,
                                {oid: {e: phi(e) for e in x.diagram.values[oid]}
                                 for oid in cat.objects})
            assert validate_algebra_morphism(m) == []
            verdicts.append(kan_verdicts_agree(
                induced_map(m, gen), shape.trunc - 1)[0])
    assert True in verdicts and False in verdicts


def test_horn_lifting_matches_the_reference_on_the_interval_over_a_point():
    pt = one_point(3)
    to_point = SimplicialMap(standard_simplex(1, 3), pt, {
        "0": nondeg("pt", 0), "1": nondeg("pt", 0),
        "01": NormalForm(degeneracy_map(0, 0), "pt")})
    ok, witness = kan_verdicts_agree(to_point, 2)
    assert not ok and witness["horn"] == (2, 0)
