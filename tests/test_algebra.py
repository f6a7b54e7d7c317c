import pytest

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
from clubcat.operads import associative_operad, encode_ns
from clubcat.diagram import unit_diagram
from clubcat.simpset import (SimplicialMap, disjoint_union, identity_smap,
                             nf_id, nondeg, one_point, standard_simplex,
                             validate_sset)
from clubcat.sset_club import (ClubMorphismSSet, ClubObjectSSet,
                               constant_family, constant_two_level,
                               identity_club_morphism)


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
    cat_d1 = cat
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
    x = ClubObjectSSet(s, constant_family(s, one_point(2)))
    assert sset_stability_check([identity_club_morphism(x)]) == []


def test_stability_injective_composite():
    s = standard_simplex(1, 2)
    t0, t1 = one_point(2), standard_simplex(1, 2)
    incl = SimplicialMap(t0, t1, {"pt": nondeg("0", 0)})
    x = ClubObjectSSet(s, constant_family(s, t0))
    y = ClubObjectSSet(s, constant_family(s, t1))
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
