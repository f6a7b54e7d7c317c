import itertools
import random
import re

import pytest

import clubcat.operads as operads_module
import clubcat.semidirect as semidirect_module
from clubcat import suites
from clubcat.config import DEFAULT_GUARDRAILS, Guardrails
from clubcat.diagram import (DiagramInCat, DiagramMorphism,
                             compose_diagram_morphisms, constantify,
                             diagram_morphism_equal,
                             identity_diagram_morphism, unit_diagram,
                             validate_diagram, validate_diagram_morphism)
from clubcat.errors import GuardrailExceeded
from clubcat.fincat import (FinCategory, Functor, discrete_category,
                            enumerate_functors, find_isomorphism, functor_key,
                            identity_functor, terminal_category,
                            validate_category, walking_arrow)
from clubcat.generate import random_diagram, random_triple
from clubcat.operads import (SymOperad, _club_from_encoding, _square_within_cap,
                             associative_operad, commutative_operad,
                             cyclic_group_operad, encode_ns, encode_sym,
                             free_operad, ns_iso_check, operad_to_club,
                             swap_pair_operad, sym_operad_to_club,
                             symmetric_associative_operad)
from clubcat.semidirect import (ClubStructure, Products, SemidirectProduct,
                                _verify_iso, associator, build_semidirect,
                                club_check, fiber_semidirect, pentagon_check,
                                product_objects, semidirect,
                                semidirect_on_morphisms, triangle_check,
                                trivial_club, unitors)

import semidirect_reference
import unit_law_reference
from fincat_reference import constant_functor
from mutants import with_gamma


def arrow_diagram():
    base = walking_arrow()
    two = discrete_category(["p", "q"])
    one = terminal_category()
    collapse = constant_functor(two, one, "*")
    return DiagramInCat(base, {"x": two, "y": one},
                        {"id_x": identity_functor(two),
                         "id_y": identity_functor(one), "a": collapse},
                        name="arrowD")


def discrete_diagram(base_objs, fiber_sizes):
    base = discrete_category(base_objs)
    fibers = {d: discrete_category([f"{d}f{i}" for i in range(n)])
              for d, n in zip(base_objs, fiber_sizes)}
    fiber_mor = {base.identity(d): identity_functor(fibers[d]) for d in base_objs}
    return DiagramInCat(base, fibers, fiber_mor, name="disc")


# ---------------------------------------------------------------------------
# fibers

def test_fiber_over_discrete_two_is_disjoint_union():
    left = discrete_diagram(["d"], [2])
    right = arrow_diagram()
    fib = left.fiber_obj["d"]
    psi = Functor(fib, right.base, {"df0": "x", "df1": "y"},
                  {fib.identity("df0"): "id_x", fib.identity("df1"): "id_y"})
    cat = fiber_semidirect(left, "d", psi, right).cat
    assert validate_category(cat) == []
    # fibers over x (2 objects) and over y (1 object), no cross morphisms
    assert len(cat.objects) == 3
    assert len(cat.mor_ids) == 3


def test_fiber_over_point_collapses():
    left = discrete_diagram(["d"], [1])
    right = arrow_diagram()
    fib = left.fiber_obj["d"]
    psi = Functor(fib, right.base, {"df0": "x"}, {fib.identity("df0"): "id_x"})
    cat = fiber_semidirect(left, "d", psi, right).cat
    assert find_isomorphism(cat, right.fiber_obj["x"]) is not None


def test_fiber_pair_counts_brute_force():
    # base fiber = walking arrow, both right fibers = walking arrow
    base = discrete_category(["d"])
    arrow = walking_arrow()
    left = DiagramInCat(base, {"d": arrow}, {"id_d": identity_functor(arrow)})
    rbase = discrete_category(["u"])
    right = DiagramInCat(rbase, {"u": arrow}, {"id_u": identity_functor(arrow)})
    psi = constant_functor(arrow, rbase, "u")
    cat = fiber_semidirect(left, "d", psi, right).cat
    assert validate_category(cat) == []
    # brute force: objects are pairs, morphisms are (alpha, beta) with
    # beta from the transported source (transport is the identity here)
    objs = [(a, b) for a in arrow.objects for b in arrow.objects]
    mors = [(al, b1, be) for al in arrow.mor_ids for b1 in arrow.objects
            for be in arrow.mor_ids if arrow.src[be] == b1]
    assert len(cat.objects) == len(objs) == 4
    assert len(cat.mor_ids) == len(mors) == 9


# ---------------------------------------------------------------------------
# the product

def test_nonsymmetry_witness_counts():
    # left: one object with a two-object fiber; right: two objects, point fibers
    x = discrete_diagram(["d"], [2])
    y = discrete_diagram(["u", "v"], [1, 1])
    p_xy = semidirect(x, y)
    p_yx = semidirect(y, x)
    assert validate_diagram(p_xy) == []
    assert validate_diagram(p_yx) == []
    assert len(p_xy.base.objects) == 4
    assert len(p_yx.base.objects) == 2
    assert find_isomorphism(p_xy.base, p_yx.base) is None


def test_object_count_formula_discrete():
    x = discrete_diagram(["d1", "d2"], [2, 1])
    y = discrete_diagram(["u", "v", "w"], [1, 0, 2])
    p = semidirect(x, y)
    expected = sum(len(y.base.objects) ** len(x.fiber_obj[d].objects)
                   for d in x.base.objects)
    assert len(p.base.objects) == expected == 9 + 3


def test_product_with_nonconstant_fibers_validates():
    x = arrow_diagram()
    y = arrow_diagram()
    p = semidirect(x, y)
    assert validate_diagram(p) == []


def test_guardrail_on_product_size():
    x = discrete_diagram(["d"], [8])
    y = discrete_diagram(["u", "v", "w"], [1, 1, 1])
    with pytest.raises(GuardrailExceeded):
        semidirect(x, y, Guardrails(max_product_objects=100))


def test_guardrails_repr_and_equality():
    assert repr(Guardrails()) == (
        "Guardrails(max_base_objects=16, max_fiber_morphisms=8, "
        "max_product_objects=4096, max_enum_morphisms=64)")
    assert Guardrails() == Guardrails()
    assert Guardrails(max_product_objects=100) != Guardrails()
    assert Guardrails(max_product_objects=100) == Guardrails(
        max_product_objects=100)


def test_product_objects_refuse_what_the_build_refuses():
    import random
    from clubcat.generate import random_diagram
    tight = Guardrails(max_base_objects=2, max_fiber_morphisms=2,
                       max_product_objects=4)
    rng = random.Random(3)
    refusals = set()
    built = 0
    for _ in range(60):
        x, y = random_diagram(rng), random_diagram(rng)
        try:
            objects = product_objects(x, y, tight)
        except GuardrailExceeded as exc:
            with pytest.raises(GuardrailExceeded) as info:
                build_semidirect(x, y, tight)
            assert str(info.value) == str(exc)
            refusals.add(str(exc).split()[0])
            continue
        p = build_semidirect(x, y, tight)
        assert list(objects) == p.diagram.base.objects
        assert ({oid: (d, functor_key(psi)) for oid, (d, psi) in objects.items()}
                == {oid: (d, functor_key(psi))
                    for oid, (d, psi) in p.obj_data.items()})
        built += 1
    # the base, fiber and product-size limits each refused some pair
    assert refusals == {"base", "fiber", "product"} and built


def _encode(op):
    return encode_sym(op) if isinstance(op, SymOperad) else encode_ns(op)


def _psi_sweep_targets():
    """The encoding bases of the named operads, seeded random diagram bases
    and the bases of seeded random products."""
    operads = [associative_operad(4), associative_operad(3, with_nullary=True),
               free_operad({2: ["g"]}, 4), free_operad({2: ["g"], 3: ["t"]}, 3),
               cyclic_group_operad(3), commutative_operad(2), swap_pair_operad(),
               symmetric_associative_operad(2), symmetric_associative_operad(3)]
    targets = [_encode(op).diagram.base for op in operads]
    rng = random.Random(37)
    targets += [random_diagram(rng).base for _ in range(8)]
    # a product base past max_base_objects is never a right base; the first
    # of these has 68 morphisms, past the functor enumeration's limit
    rng = random.Random(0)
    while len(targets) < 24:
        x, y = random_diagram(rng), random_diagram(rng)
        base = build_semidirect(x, y).diagram.base
        if len(base.objects) <= DEFAULT_GUARDRAILS.max_base_objects:
            targets.append(base)
    return targets


def _psi_sweep_fibers():
    """Discrete fibers of 0 to 3 objects, the walking arrow and a discrete
    fiber whose morphisms are listed in reverse object order."""
    objects = ["a", "b", "c"]
    reversed_ids = FinCategory(objects, [(f"id_{o}", o, o) for o in objects[::-1]],
                               {o: f"id_{o}" for o in objects},
                               {(f"id_{o}", f"id_{o}"): f"id_{o}" for o in objects})
    return [discrete_category(objects[:n]) for n in range(4)] + [
        walking_arrow(), reversed_ids]


def _psi_outcome(enumerate_psis, fiber, target, keep, stop=None):
    """The (rank, key, object map, morphism map) of each psi, up to ``stop``
    of them, or the refusal."""
    try:
        return [(rank, functor_key(psi), list(psi.omap.items()),
                 list(psi.mmap.items()))
                for rank, psi in itertools.islice(
                    enumerate_psis(fiber, target, keep, DEFAULT_GUARDRAILS), stop)]
    except GuardrailExceeded as exc:
        return ("refused", str(exc))


def _no_functor_keys(fiber, target, keys):
    """Keys that name no functor fiber -> target: an object outside the
    target, tuples of the wrong length, and known objects with a morphism
    map that does not match them."""
    n = len(fiber.objects)
    bogus = {(("zz",) * n, ("id_zz",) * len(fiber.mor_ids)),
             (tuple(target.objects[:1]) * (n + 1), ()),
             (tuple(target.objects[:1]) * max(n - 1, 0), ())}
    for objs, mors in keys[:3]:
        bogus.add((objs, mors[::-1] + ("nope",)))
        bogus.add((objs, mors[1:] + mors[:1]))
    return bogus - set(keys)


def _assert_psis_match(fiber, target, keep):
    """Both enumerations agree on their first psi, their first three and all
    of them; returns the reference's full outcome."""
    for stop in (1, 3, None):
        want = _psi_outcome(semidirect_reference._enumerate_psis, fiber,
                            target, keep, stop)
        assert _psi_outcome(semidirect_module._enumerate_psis, fiber, target,
                            keep, stop) == want
    return want


def test_psis_match_the_backtracking_reference():
    rng = random.Random(11)
    refused = 0
    for target in _psi_sweep_targets():
        for fiber in _psi_sweep_fibers():
            full = _assert_psis_match(fiber, target, None)
            refused += full[0] == "refused"
            keys = [] if full[0] == "refused" else [item[1] for item in full]
            bogus = _no_functor_keys(fiber, target, keys)
            for keep in [set(), bogus] + [
                    set(rng.sample(keys, rng.randint(0, len(keys))))
                    | set(rng.sample(sorted(bogus), rng.randint(0, len(bogus))))
                    for _ in range(3)]:
                _assert_psis_match(fiber, target, keep)
    # the walking arrow is refused over the product bases past the
    # enumeration's morphism limit
    assert refused


@pytest.mark.parametrize("op", [associative_operad(3), free_operad({2: ["g"]}, 4),
                                cyclic_group_operad(3), swap_pair_operad(),
                                symmetric_associative_operad(3)])
def test_truncated_square_psis_match_the_reference(op, monkeypatch):
    enc = _encode(op)
    kept = []
    monkeypatch.setattr(operads_module, "build_semidirect",
                        lambda x, y, guard, keep: kept.append(keep))
    _square_within_cap(enc, op.cap, DEFAULT_GUARDRAILS)
    (keep,) = kept
    for oid, keys in keep.items():
        fiber = enc.diagram.fiber_obj[oid]
        # every key the square keeps names a functor
        assert len(_assert_psis_match(fiber, enc.diagram.base, keys)) == len(keys)


# ---------------------------------------------------------------------------
# functoriality on morphisms

def test_id_product_is_id():
    x = arrow_diagram()
    y = discrete_diagram(["u"], [1])
    products = Products()
    m = semidirect_on_morphisms(identity_diagram_morphism(x),
                                identity_diagram_morphism(y), products)
    assert diagram_morphism_equal(
        m, identity_diagram_morphism(products(x, y).diagram))


def test_interchange_on_composites():
    x = constantify(walking_arrow())
    one = terminal_category()
    f = Functor(x.base, x.base, {"x": "y", "y": "y"},
                {"id_x": "id_y", "id_y": "id_y", "a": "id_y"})
    from clubcat.diagram import DiagramMorphism
    a1 = DiagramMorphism(x, x, f, {d: identity_functor(one) for d in x.base.objects})
    a2 = DiagramMorphism(x, x, identity_functor(x.base),
                         {d: identity_functor(one) for d in x.base.objects})
    y = discrete_diagram(["u", "v"], [1, 1])
    b1 = identity_diagram_morphism(y)
    b2 = identity_diagram_morphism(y)
    products = Products()
    lhs = semidirect_on_morphisms(compose_diagram_morphisms(a2, a1),
                                  compose_diagram_morphisms(b2, b1), products)
    rhs = compose_diagram_morphisms(
        semidirect_on_morphisms(a2, b2, products),
        semidirect_on_morphisms(a1, b1, products))
    assert diagram_morphism_equal(lhs, rhs)
    assert validate_diagram_morphism(lhs) == []


# ---------------------------------------------------------------------------
# unitors and associator

def test_unitors_on_small_diagrams():
    for x in [unit_diagram(), arrow_diagram(), discrete_diagram(["a", "b"], [2, 0]),
              discrete_diagram(["a", "b"], [1, 2])]:
        left, right = unitors(x, Products())
        assert validate_diagram_morphism(left.forward) == []
        assert validate_diagram_morphism(right.forward) == []
        assert left.problems == right.problems == []


def test_unitors_coincide_on_unit():
    u = unit_diagram()
    left, right = unitors(u, Products())
    assert diagram_morphism_equal(left.forward, right.forward)


def test_associator_identity_case():
    u = unit_diagram()
    res = associator(u, u, u, Products())
    assert validate_diagram_morphism(res.iso.forward) == []
    assert res.iso.problems == []


def test_associator_on_mixed_diagrams():
    x = discrete_diagram(["a"], [2])
    y = discrete_diagram(["u", "v"], [1, 0])
    z = discrete_diagram(["w"], [1])
    res = associator(x, y, z, Products())
    assert validate_diagram_morphism(res.iso.forward) == []
    assert res.iso.problems == []


def test_associator_with_base_morphisms():
    x = arrow_diagram()
    y = discrete_diagram(["u", "v"], [1, 1])
    z = discrete_diagram(["w"], [1])
    res = associator(x, y, z, Products())
    assert validate_diagram_morphism(res.iso.forward) == []
    assert res.iso.problems == []


def _table_inverse(a):
    """The inverse of a diagram morphism read off its tables: the base
    functor and every rho component with their maps reversed."""
    def flip(fun):
        return Functor(fun.tgt, fun.src, {v: k for k, v in fun.omap.items()},
                       {v: k for k, v in fun.mmap.items()})
    base = flip(a.base_functor)
    return DiagramMorphism(a.tgt, a.src, base,
                           {e: flip(a.rho[base.omap[e]])
                            for e in a.tgt.base.objects})


def _random_triple_isos():
    """The associator and the unitors of X for random triples 0 to 5."""
    for seed in range(6):
        x, y, z, products = random_triple(random.Random(seed))
        yield f"seed {seed} associator", associator(x, y, z, products).iso
        left, right = unitors(x, products)
        yield f"seed {seed} left unitor", left
        yield f"seed {seed} right unitor", right


def _coherence_isos():
    """(label, result) of each coherence isomorphism of the fixtures above,
    of the random triples and of the pair-to-tuple map of the associative
    operad at arity 4."""
    for x in [unit_diagram(), arrow_diagram(),
              discrete_diagram(["a", "b"], [2, 0]),
              discrete_diagram(["a", "b"], [1, 2])]:
        left, right = unitors(x, Products())
        yield f"left unitor of {x.name}", left
        yield f"right unitor of {x.name}", right
    u = unit_diagram()
    for x, y, z in [(u, u, u),
                    (discrete_diagram(["a"], [2]),
                     discrete_diagram(["u", "v"], [1, 0]),
                     discrete_diagram(["w"], [1])),
                    (arrow_diagram(), discrete_diagram(["u", "v"], [1, 1]),
                     discrete_diagram(["w"], [1]))]:
        yield "associator", associator(x, y, z, Products()).iso
    yield from _random_triple_isos()
    yield "pair-to-tuple", ns_iso_check(associative_operad(4))


def test_coherence_isomorphisms_invert_by_their_tables():
    for label, iso in _coherence_isos():
        fwd = iso.forward
        assert iso.problems == [], label
        inv = _table_inverse(fwd)
        assert validate_diagram_morphism(inv) == [], label
        assert diagram_morphism_equal(compose_diagram_morphisms(inv, fwd),
                                      identity_diagram_morphism(fwd.src)), label
        assert diagram_morphism_equal(compose_diagram_morphisms(fwd, inv),
                                      identity_diagram_morphism(fwd.tgt)), label


def _single_entry_mutants(a):
    """Each copy of ``a`` with one entry of the base functor's tables or of
    a rho component's tables sent to the next id of its target, in the
    target's order and cyclically; entries whose target has one id stay."""
    def mutants(fun):
        for table, ids in ((fun.omap, fun.tgt.objects),
                           (fun.mmap, fun.tgt.mor_ids)):
            if len(ids) < 2:
                continue
            for key, value in table.items():
                other = ids[(ids.index(value) + 1) % len(ids)]
                changed = {**table, key: other}
                yield (Functor(fun.src, fun.tgt, changed, fun.mmap)
                       if table is fun.omap else
                       Functor(fun.src, fun.tgt, fun.omap, changed))
    for base in mutants(a.base_functor):
        yield DiagramMorphism(a.src, a.tgt, base, a.rho)
    for d, comp in a.rho.items():
        for fun in mutants(comp):
            yield DiagramMorphism(a.src, a.tgt, a.base_functor,
                                  {**a.rho, d: fun})


def test_verify_iso_reports_every_single_entry_mutant():
    total = reported = 0
    for label, iso in _random_triple_isos():
        for mutant in _single_entry_mutants(iso.forward):
            total += 1
            reported += bool(_verify_iso(mutant))
        assert _verify_iso(iso.forward) == [], label
    print(f"coherence negative controls: {reported}/{total} reported")
    assert total > 0
    assert reported == total


def test_verify_iso_reports_valid_morphisms_that_are_not_bijective():
    # a single-entry mutant already breaks validity; these four morphisms
    # are valid, so only the bijectivity of their tables reports them
    two = discrete_diagram(["a", "b"], [1, 1])
    u = unit_diagram()
    collapse = DiagramMorphism(two, u, constant_functor(two.base, u.base, "*"),
                               {d: constant_functor(u.fiber_obj["*"],
                                                    two.fiber_obj[d], f"{d}f0")
                                for d in ("a", "b")})
    include = DiagramMorphism(
        u, two, Functor(u.base, two.base, {"*": "a"},
                        {"id_*": two.base.identity("a")}),
        {"*": constant_functor(two.fiber_obj["a"], u.fiber_obj["*"], "*")})
    one = discrete_diagram(["a"], [1])
    wide = discrete_diagram(["a"], [2])
    fold = DiagramMorphism(one, wide, identity_functor(one.base),
                           {"a": constant_functor(wide.fiber_obj["a"],
                                                  one.fiber_obj["a"], "af0")})
    arrow, pair = walking_arrow(), discrete_category(["x", "y"])
    on_arrow = DiagramInCat(discrete_category(["d"]), {"d": arrow},
                            {"id_d": identity_functor(arrow)})
    on_pair = DiagramInCat(discrete_category(["d"]), {"d": pair},
                           {"id_d": identity_functor(pair)})
    miss = DiagramMorphism(on_arrow, on_pair, identity_functor(on_arrow.base),
                           {"d": Functor(pair, arrow, {"x": "x", "y": "y"},
                                         {pair.identity(o): arrow.identity(o)
                                          for o in ("x", "y")})})
    for a, want in [(collapse, "base functor is not bijective on objects"),
                    (include, "base functor is not bijective on objects"),
                    (fold, "rho at 'a' is not bijective on objects"),
                    (miss, "rho at 'd' is not bijective on morphisms")]:
        assert validate_diagram_morphism(a) == []
        assert want in _verify_iso(a)


def test_triangle_identity():
    x = discrete_diagram(["a"], [1])
    y = discrete_diagram(["u", "v"], [1, 0])
    assert triangle_check(x, y, Products())
    assert triangle_check(arrow_diagram(), y, Products())


def test_pentagon_small():
    w = discrete_diagram(["a"], [1])
    x = discrete_diagram(["b", "c"], [1, 1])
    y = discrete_diagram(["u"], [1])
    z = discrete_diagram(["v", "z0"], [0, 1])
    products = Products()
    assert pentagon_check(associator(w, x, y, products), z, products)


def test_associator_naturality():
    # naturality square against a morphism in the middle slot
    x = discrete_diagram(["a"], [1])
    z = discrete_diagram(["w"], [1])
    y = constantify(walking_arrow())
    one = terminal_category()
    f = Functor(y.base, y.base, {"x": "y", "y": "y"},
                {"id_x": "id_y", "id_y": "id_y", "a": "id_y"})
    from clubcat.diagram import DiagramMorphism
    b = DiagramMorphism(y, y, f, {d: identity_functor(one) for d in y.base.objects})
    a = identity_diagram_morphism(x)
    cmor = identity_diagram_morphism(z)
    products = Products()
    res = associator(x, y, z, products)
    prod_ab = semidirect_on_morphisms(a, b, products)
    lhs = compose_diagram_morphisms(
        res.iso.forward, semidirect_on_morphisms(prod_ab, cmor, products))
    prod_bc = semidirect_on_morphisms(b, cmor, products)
    rhs = compose_diagram_morphisms(
        semidirect_on_morphisms(a, prod_bc, products), res.iso.forward)
    assert diagram_morphism_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# clubs

def test_trivial_club_passes():
    assert club_check(trivial_club()) == []


def test_corrupted_club_fails_with_witness():
    club = trivial_club()
    # remap the only rho component to a broken functor by swapping mu's rho
    bad_mu = club.mu
    from clubcat.diagram import DiagramMorphism
    broken = DiagramMorphism(bad_mu.src, bad_mu.tgt, bad_mu.base_functor,
                             {next(iter(bad_mu.rho)): Functor(
                                 bad_mu.rho[next(iter(bad_mu.rho))].src,
                                 bad_mu.rho[next(iter(bad_mu.rho))].tgt,
                                 {}, {})})
    from clubcat.semidirect import ClubStructure
    bad = ClubStructure(club.product, broken, club.eta)
    assert club_check(bad) != []


def test_mu_out_of_another_product_is_reported():
    from clubcat.operads import free_operad, operad_to_club
    from clubcat.semidirect import ClubStructure
    club = operad_to_club(free_operad({2: ["g"]}, 3))
    other = operad_to_club(associative_operad(3, with_nullary=True))
    bad = ClubStructure(other.product, club.mu, club.eta)
    assert club_check(bad) == ["mu does not start at the product"]


def test_random_products_always_validate():
    import random
    from clubcat.generate import random_diagram
    from clubcat.semidirect import build_semidirect
    from clubcat.errors import GuardrailExceeded
    rng = random.Random(99)
    checked = 0
    while checked < 8:
        x = random_diagram(rng)
        y = random_diagram(rng)
        try:
            p = build_semidirect(x, y)
        except GuardrailExceeded:
            continue
        assert validate_diagram(p.diagram) == []
        for oid in p.diagram.base.objects:
            assert validate_category(p.fibers[oid].cat) == []
        checked += 1


def test_club_check_reports_remapped_object():
    from clubcat.operads import free_operad, operad_to_club
    from clubcat.semidirect import ClubStructure
    from clubcat.fincat import Functor
    club = operad_to_club(free_operad({2: ["g"]}, 2))
    mu = club.mu
    # remap one multiplication entry to a different object of the same arity:
    # cap-2 levels are singletons, so divert an arity-1 result to the unit's
    # level mate by breaking an arity-2 result instead
    omap = dict(mu.base_functor.omap)
    target_oid = next(oid for oid in club.product.diagram.base.objects
                      if omap[oid] == "2:g__")
    omap[target_oid] = "1:_"
    broken = ClubStructure(
        club.product,
        type(mu)(mu.src, mu.tgt,
                 Functor(mu.base_functor.src, mu.base_functor.tgt, omap,
                         dict(mu.base_functor.mmap)),
                 dict(mu.rho)),
        club.eta)
    report = club_check(broken, stop_early=True)
    assert report != []


def test_club_check_reports_an_eta_into_another_carrier():
    # each club's unit paired with the other's product and multiplication:
    # eta is a valid diagram morphism from the unit diagram, but into a
    # carrier that mu does not land in, so it is reported, never raised
    from clubcat.operads import associative_operad, free_operad, operad_to_club
    from clubcat.semidirect import ClubStructure
    club = operad_to_club(free_operad({2: ["g"]}, 3))
    other = operad_to_club(associative_operad(3, with_nullary=True))
    for a, b in ((club, other), (other, club)):
        assert club_check(ClubStructure(a.product, a.mu, b.eta)) == [
            "eta does not land in the carrier"]


def _golden_unit_law_cases():
    import json
    import pathlib
    path = pathlib.Path(__file__).parent / "golden" / "unit_law_reports.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _golden_unit_law_cases(),
                         ids=lambda case: f"{case['op']}{tuple(case['args'])}")
def test_unit_law_reports_match_golden(case):
    # one gamma entry of the associative operad with a nullary element sent
    # to a0 breaks the left unit law, the right one or both; the full report
    # is compared line by line, in order
    from clubcat.operads import associative_operad, operad_to_club
    op = with_gamma(associative_operad(3, with_nullary=True),
                    (case["op"], tuple(case["args"])), case["result"])
    assert club_check(operad_to_club(op)) == case["violations"]


# ---------------------------------------------------------------------------
# the unit laws, read from the carrier

def _club_check_suite_clubs(monkeypatch):
    """Every club the ``club-check`` suite checks: its six fixtures and its
    corrupted control."""
    clubs = []

    def recording_check(club, *args, **kwargs):
        clubs.append(club)
        return club_check(club, *args, **kwargs)

    monkeypatch.setattr(suites, "club_check", recording_check)
    suites.run_suite("club-check")
    monkeypatch.undo()
    return clubs


def _gamma_mutants(op):
    """Every operad that differs from op in one gamma entry."""
    elems = [e for n in range(op.cap + 1) for e in op.levels[n]]
    for key in sorted(op.gamma):
        for result in elems:
            if result != op.gamma[key]:
                yield with_gamma(op, key, result)


def _rho_mutants(club):
    """club with one mu.rho component changed: two fiber-object images
    swapped, or one fiber-object or fiber-morphism image dropped."""
    mu = club.mu
    for oid, rho in mu.rho.items():
        objs = rho.src.objects
        changed = [{**rho.omap, a: rho.omap[b], b: rho.omap[a]}
                   for i, a in enumerate(objs) for b in objs[i + 1:]]
        changed += [{x: y for x, y in rho.omap.items() if x != a} for a in objs]
        tables = [(omap, rho.mmap) for omap in changed]
        tables += [(rho.omap, {x: y for x, y in rho.mmap.items() if x != m})
                   for m in rho.src.mor_ids]
        for omap, mmap in tables:
            broken = Functor(rho.src, rho.tgt, omap, mmap)
            yield ClubStructure(
                club.product,
                DiagramMorphism(mu.src, mu.tgt, mu.base_functor,
                                {**mu.rho, oid: broken}, name=mu.name),
                club.eta)


def _unit_law_sweep(monkeypatch):
    """Clubs whose unit laws hold or fail in every way a note can say: the
    suite's, the named operads', every single-entry gamma mutant of three
    hosts, rho mutants, and products or multiplications that break a unit
    composite."""
    yield from _club_check_suite_clubs(monkeypatch)
    named = [associative_operad(3, with_nullary=True),
             free_operad({2: ["g"]}, 3), free_operad({2: ["g"], 3: ["t"]}, 3),
             cyclic_group_operad(3)]
    yield from (operad_to_club(op) for op in named)
    sym_named = [commutative_operad(2), swap_pair_operad(),
                 symmetric_associative_operad(2)]
    yield from (sym_operad_to_club(op) for op in sym_named)
    for host in (associative_operad(2), cyclic_group_operad(3),
                 free_operad({2: ["g"]}, 3)):
        enc = encode_ns(host)
        square = _square_within_cap(enc, host.cap, DEFAULT_GUARDRAILS)
        yield from (_club_from_encoding(mutant, enc, square)
                    for mutant in _gamma_mutants(host))
    for club in (operad_to_club(cyclic_group_operad(3)),
                 operad_to_club(associative_operad(3, with_nullary=True)),
                 sym_operad_to_club(commutative_operad(2)), _join_club()):
        yield from _rho_mutants(club)
    # products that lack a unit composite: the join club's without one of
    # its objects, and without one morphism id
    ends = [(d, y) for d in "xy" for y in "xy"]
    for dropped in ends:
        yield _join_club({d: {((y,), (f"id_{y}",)) for e, y in ends
                              if e == d and (e, y) != dropped}
                          for d in "xy"})
    # mu sending every base morphism astray, over a base whose morphisms
    # list by source and target in another order than by target and source
    for club in (_join_club(order=_chain(["x", "y", "z"])), _symmetric_club()):
        base = club.mu.base_functor
        astray = Functor(base.src, base.tgt, base.omap,
                         {m: "astray" for m in base.mmap})
        yield club._replace(mu=DiagramMorphism(club.mu.src, club.mu.tgt,
                                               astray, club.mu.rho))
    club = _join_club()
    p = club.product
    for key in p.mor_id:
        lacking = SemidirectProduct(
            p.left, p.right, p.diagram, p.obj_data, p.obj_id, p.mor_data,
            {k: mid for k, mid in p.mor_id.items() if k != key}, p.fibers)
        yield club._replace(product=lacking)


def _unit_notes(unit_laws, club, stop_early, *tables):
    """The notes and the return value of one unit-law check of club."""
    notes = []

    def note(msg):
        notes.append(msg)
        return stop_early

    e_obj = club.eta.base_functor.omap["*"]
    stopped = unit_laws(club, club.product, *tables, note, e_obj)
    return notes, stopped


@pytest.mark.parametrize("stop_early", [True, False])
def test_unit_laws_match_the_unitor_reference(monkeypatch, stop_early):
    # the reference builds 1 ⋉ C and C ⋉ 1 and both unitors, once per carrier
    tables = {}
    passing, seen = 0, set()
    for club in _unit_law_sweep(monkeypatch):
        products = tables.setdefault(id(club.carrier),
                                     (club.carrier, Products()))[1]
        want = _unit_notes(unit_law_reference._unit_laws, club, stop_early,
                           products)
        assert _unit_notes(semidirect_module._unit_laws, club, stop_early) == want
        passing += want == ([], False)
        seen.update(re.sub(r" (at|on|over|:) .*", "", msg) for msg in want[0])
    assert passing > 0
    # every message either side can note, somewhere in the sweep
    assert seen == {f"{side} unit {what}" for side in ("left", "right")
                    for what in ("composite leaves the domain",
                                 "law fails", "composite morphism leaves the domain")}


def test_club_check_builds_no_product(monkeypatch):
    clubs = _club_check_suite_clubs(monkeypatch)
    assert len(clubs) == 7
    calls = []

    def counting(name):
        original = getattr(semidirect_module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    for name in ("build_semidirect", "product_objects"):
        monkeypatch.setattr(semidirect_module, name, counting(name))
    for club in clubs:
        club_check(club)
    assert calls == []


# ---------------------------------------------------------------------------
# product morphism ids and the reuse of a verified associator

def _all_pairs_morphisms(p):
    """Reference: the morphism list and mor_id table of p.diagram's base as
    built by looping over every pair of product objects."""
    from clubcat.fincat import compose_functors, enumerate_nat_trans
    x = p.left
    objects = p.diagram.base.objects
    morphisms, mor_id = [], {}
    for oid1 in objects:
        d1, psi1 = p.obj_data[oid1]
        for oid2 in objects:
            d2, psi2 = p.obj_data[oid2]
            for f in x.base.hom_set(d1, d2):
                shifted = compose_functors(psi2, x.fiber_mor[f])
                for phi in enumerate_nat_trans(psi1, shifted):
                    mid = f"m{len(morphisms)}"
                    morphisms.append((mid, oid1, oid2))
                    key = (oid1, oid2, f,
                           tuple(phi.components[a] for a in psi1.src.objects))
                    mor_id[key] = mid
    return morphisms, mor_id


def _symmetric_club():
    # its carrier base has the transposition of arity 2, a non-identity
    # morphism, so its products have non-discrete bases
    from clubcat.operads import commutative_operad, sym_operad_to_club
    return sym_operad_to_club(commutative_operad(2))


def _id_fixture_products():
    import random
    from clubcat.generate import random_triple
    from clubcat.operads import free_operad, operad_to_club
    arrow = walking_arrow()
    non_discrete = DiagramInCat(discrete_category(["d"]), {"d": arrow},
                                {"id_d": identity_functor(arrow)})
    yield "arrow", build_semidirect(arrow_diagram(), arrow_diagram())
    yield "non-discrete fiber", build_semidirect(non_discrete, arrow_diagram())
    # the transport along x -> y is not onto, so over the discrete base the
    # four psis over y have two shifted object tuples: the morphism index
    # has buckets with more than one target end
    one, two = terminal_category(), discrete_category(["p", "q"])
    into = DiagramInCat(walking_arrow(), {"x": one, "y": two},
                        {"id_x": identity_functor(one),
                         "id_y": identity_functor(two),
                         "a": Functor(one, two, {"*": "p"}, {"id_*": "id_p"})})
    yield "shared index bucket", build_semidirect(
        into, discrete_diagram(["u", "v"], [1, 1]))
    yield "keep-restricted operad product", operad_to_club(
        free_operad({2: ["g"]}, 3)).product
    yield "symmetric operad product", _symmetric_club().product
    rng = random.Random(5)
    while True:
        x, y, z, products = random_triple(rng)
        try:
            res = associator(x, y, z, products)
        except GuardrailExceeded:
            continue
        break
    yield "random triple p_xy", res.p_xy
    yield "random triple p_yz", res.p_yz
    yield "random triple p_xy_z", products(res.p_xy.diagram, z)
    yield "random triple p_x_yz", products(x, res.p_yz.diagram)


def test_product_morphism_ids_match_all_pairs_reference():
    for label, p in _id_fixture_products():
        morphisms, mor_id = _all_pairs_morphisms(p)
        assert morphisms, label
        assert p.diagram.base.morphisms == morphisms, label
        assert p.mor_id == mor_id, label


def test_pairs_without_components_have_no_transformation():
    # the pairs build_semidirect skips before composing: some object of the
    # fiber has an empty hom-set from psi1(a) to (psi2 ∘ R(f))(a)
    from clubcat.fincat import compose_functors, enumerate_nat_trans
    skipped = {}
    for label, p in _id_fixture_products():
        x, y = p.left, p.right
        skipped[label] = 0
        for oid1, (d1, psi1) in p.obj_data.items():
            for oid2, (d2, psi2) in p.obj_data.items():
                for f in x.base.hom_set(d1, d2):
                    shifted = compose_functors(psi2, x.fiber_mor[f])
                    if all(y.base.hom_set(psi1.omap[a], shifted.omap[a])
                           for a in psi1.src.objects):
                        continue
                    assert enumerate_nat_trans(psi1, shifted) == [], label
                    skipped[label] += 1
    assert skipped["symmetric operad product"] > 0


def _all_pairs_thetas(club):
    """Reference: every (mid, chi1, chi2, theta) of club_check's morphism
    pass, by enumerating the chis of both ends for every morphism and every
    transformation chi1 => chi2 ∘ transport, as keys in check order."""
    from clubcat.fincat import compose_functors, enumerate_nat_trans
    p, c = club.product, club.carrier
    base = p.diagram.base
    cases = []
    for mid in base.mor_ids:
        fib1 = p.fibers[base.src[mid]].cat
        fib2 = p.fibers[base.tgt[mid]].cat
        transport = p.diagram.fiber_mor[mid]
        for chi1 in enumerate_functors(fib1, c.base):
            for chi2 in enumerate_functors(fib2, c.base):
                shifted = compose_functors(chi2, transport)
                for theta in enumerate_nat_trans(chi1, shifted):
                    cases.append((mid, functor_key(chi1), functor_key(chi2),
                                  tuple(theta.components[a] for a in fib1.objects)))
    return cases


def _chain(objects):
    """The total order on ``objects`` as a category, x < y named "x<y"."""
    below = [(x, y) for i, y in enumerate(objects) for x in objects[:i + 1]]
    name = {(x, y): f"id_{x}" if x == y else f"{x}<{y}" for x, y in below}
    return FinCategory(
        objects, [(name[x, y], x, y) for x, y in below],
        {x: f"id_{x}" for x in objects},
        {(name[y, z], name[x, y]): name[x, z]
         for x, y in below for y2, z in below if y2 == y}, name="chain")


def _join_club(keep=None, order=None):
    """The monoid ({x < y}, join, x) as a club with one-object fibers, its
    product restricted by ``keep`` as in ``build_semidirect``.  Its carrier
    base is the walking arrow, or the total order ``order`` with x first, so
    a theta of club_check's morphism pass can have a component between
    different objects."""
    arrow = walking_arrow() if order is None else order
    one = terminal_category()
    c = constantify(arrow)
    p = build_semidirect(c, c, keep=keep)
    base = p.diagram.base
    omap = {oid: max(d, psi.omap["*"]) for oid, (d, psi) in p.obj_data.items()}
    mmap = {m: arrow.hom_set(omap[base.src[m]], omap[base.tgt[m]])[0]
            for m in base.mor_ids}
    rho = {oid: Functor(one, p.fibers[oid].cat, {"*": p.fibers[oid].cat.objects[0]},
                        {"id_*": p.fibers[oid].cat.mor_ids[0]})
           for oid in base.objects}
    mu = DiagramMorphism(p.diagram, c, Functor(base, arrow, omap, mmap), rho)
    eta = DiagramMorphism(unit_diagram(), c,
                          Functor(one, arrow, {"*": "x"}, {"id_*": "id_x"}),
                          {"*": identity_functor(one)})
    return ClubStructure(p, mu, eta)


def _golden_mutant_club():
    from clubcat.operads import associative_operad, operad_to_club
    case = _golden_unit_law_cases()[0]
    mutant = with_gamma(associative_operad(3, with_nullary=True),
                        (case["op"], tuple(case["args"])), case["result"])
    return operad_to_club(mutant)


def _free_binary_club():
    from clubcat.operads import free_operad, operad_to_club
    return operad_to_club(free_operad({2: ["g"]}, 3))


def _free_binary_ternary_club():
    from clubcat.operads import free_operad, operad_to_club
    return operad_to_club(free_operad({2: ["g"], 3: ["t"]}, 3))


@pytest.mark.parametrize("make_club", [_free_binary_club, _golden_mutant_club,
                                       _symmetric_club, _join_club,
                                       _free_binary_ternary_club],
                         ids=lambda make: make.__name__.strip("_"))
def test_club_check_morphism_pass_matches_all_pairs_reference(make_club, monkeypatch):
    import clubcat.semidirect as module
    club = make_club()
    want = _all_pairs_thetas(club)
    real = module._assoc_single_morphism
    real_morphisms = module._product_morphisms
    chi_of = {}    # id of an end -> its chi, read from club_check's ``over``
    seen = []

    def reading_ends(x, target, over):
        chi_of.update((id(end), chi) for ends in over.values()
                      for end, chi in ends)
        return real_morphisms(x, target, over)

    def recording(s, p, mid, end1, end2, theta):
        seen.append((mid, functor_key(chi_of[id(end1)]),
                     functor_key(chi_of[id(end2)]),
                     tuple(theta.components[a] for a in theta.src.src.objects)))
        return real(s, p, mid, end1, end2, theta)

    monkeypatch.setattr(module, "_product_morphisms", reading_ends)
    monkeypatch.setattr(module, "_assoc_single_morphism", recording)
    report = club_check(club)
    assert want
    assert seen == want
    assert (report == []) == (make_club is not _golden_mutant_club)


def test_passing_club_check_describes_no_object(monkeypatch):
    import clubcat.semidirect as module
    real = module.SemidirectProduct.describe_object
    calls = []

    def counting(self, oid):
        calls.append(oid)
        return real(self, oid)

    monkeypatch.setattr(module.SemidirectProduct, "describe_object", counting)
    assert club_check(_free_binary_club()) == []
    assert calls == []


def test_club_check_stops_at_the_first_failing_theta(monkeypatch):
    import clubcat.semidirect as module
    real = module._assoc_single_morphism
    calls = []

    def failing_third(*args):
        calls.append(args)
        if len(calls) == 3:
            return "planted failure"
        return real(*args)

    monkeypatch.setattr(module, "_assoc_single_morphism", failing_third)
    assert club_check(_free_binary_club(), stop_early=True) == ["planted failure"]
    assert len(calls) == 3


def test_join_club_has_thetas_between_different_objects():
    club = _join_club()
    arrow = club.carrier.base
    assert any(arrow.src[m] != arrow.tgt[m]
               for case in _all_pairs_thetas(club) for m in case[3])


def test_pentagon_trips_guardrail_at_once(monkeypatch):
    import clubcat.semidirect as module
    # (W⋉X)⋉Y has 9 * 2**2 = 36 objects, above the 16-object base limit,
    # while W⋉X (9), X⋉Y (6) and W ⋉ (X⋉Y) stay buildable
    w = discrete_diagram(["a"], [2])
    x = discrete_diagram(["b", "c", "e"], [1, 1, 1])
    y = discrete_diagram(["u", "v"], [1, 1])
    z = discrete_diagram(["t"], [1])
    products = Products()
    a_wxy = associator(w, x, y, products)
    assert len(products(a_wxy.p_xy.diagram, y).diagram.base.objects) == 36
    real = module.build_semidirect
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "build_semidirect", counting)
    with pytest.raises(GuardrailExceeded):
        pentagon_check(a_wxy, z, products)
    assert len(calls) <= 1


def test_product_refusal_stops_enumerating_psis(monkeypatch):
    import clubcat.semidirect as module
    # a five-object discrete fiber over a 16-object discrete base has 16**5
    # psis; the product is refused once it passes max_product_objects, so
    # no more than one psi past that bound may be built
    x = discrete_diagram(["d"], [5])
    y = discrete_diagram([f"b{i}" for i in range(16)], [1] * 16)
    real = module.Functor
    built = []

    def counting(*args, **kwargs):
        built.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "Functor", counting)
    with pytest.raises(GuardrailExceeded):
        product_objects(x, y)
    assert len(built) <= Guardrails().max_product_objects + 1


def test_one_table_builds_each_product_once(monkeypatch):
    import clubcat.semidirect as module
    from clubcat.formats import diagram_to_json, to_json_string
    x = discrete_diagram(["a"], [1])
    y = arrow_diagram()
    z = discrete_diagram(["u", "v"], [1, 0])
    w = discrete_diagram(["t"], [2])
    real = module.build_semidirect
    built = []

    def recording(left, right, *args, **kwargs):
        built.append(to_json_string([diagram_to_json(left),
                                     diagram_to_json(right)]))
        return real(left, right, *args, **kwargs)

    monkeypatch.setattr(module, "build_semidirect", recording)
    products = Products()
    res = associator(x, y, z, products)
    unitors(x, products)
    assert triangle_check(x, y, products)
    assert pentagon_check(res, w, products)
    # X⋉Y, (X⋉Y)⋉Z, Y⋉Z, X⋉(Y⋉Z); 1⋉X, X⋉1; (X⋉1)⋉Y, 1⋉Y, X⋉(1⋉Y); and
    # the eight products of the pentagon that involve W
    assert len(built) == 17
    assert len(set(built)) == len(built)
