"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and sample count is pinned here.
"""

import random
import time

from clubcat import formats
from clubcat import generate as gen
from clubcat.fincat import (discrete_category, find_isomorphism, identity_functor,
                            validate_functor)
from clubcat.diagram import DiagramInCat
from clubcat.semidirect import club_check, semidirect
from clubcat.operads import (associative_operad, club_to_operad,
                             commutative_operad, free_operad, ns_iso_check,
                             operad_to_club, swap_pair_operad, sym_inclusion,
                             sym_operad_to_club, symmetric_associative_operad,
                             validate_ns_operad, validate_sym_operad)
from clubcat.simpset import (SimplicialMap, apply_operator, boundary,
                             degeneracy_map, disjoint_union,
                             is_kan_fibration, iso_sset, nondeg, one_point,
                             product, standard_simplex)
from clubcat.sset_club import (associativity_check, compose, constant_family,
                               delta_functor, delta_is_isomorphism,
                               pair_category_sset, unit_law_point_base,
                               unit_law_point_values)
from clubcat.algebra import (colimit_act, constant_algebra_object,
                             sset_stability_check, two_stage_colimit_check)
from clubcat.suites import run_suite


def _verdict(tag, ok, detail=""):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    return ok


def _discrete_diagram(base_objs, fiber_sizes):
    base = discrete_category(base_objs)
    fibers = {d: discrete_category([f"{d}f{i}" for i in range(n)])
              for d, n in zip(base_objs, fiber_sizes)}
    fiber_mor = {base.identity(d): identity_functor(fibers[d])
                 for d in base_objs}
    return DiagramInCat(base, fibers, fiber_mor)


def test_c1_monoidal_laws_on_random_triples():
    """>= 100 random triples: rebracketing and unit isomorphisms verified,
    five-term and unit-triangle identities hold, in under 60 seconds."""
    started = time.monotonic()
    report = run_suite("monoidal-laws", seed=2026, samples=100)
    elapsed = time.monotonic() - started
    check = next(c for c in report["checks"]
                 if c["law"] == "rebracketing-and-unit-isomorphisms")
    details = check["details"]
    ok = (check["status"] == "pass" and not details["failures"]
          and details["samples"] >= 100 and elapsed < 60.0)
    assert _verdict("C1", ok,
                    f"{details['samples']} triples, {details['resampled']} "
                    f"resampled, {len(details['failures'])} failures, "
                    f"{elapsed:.1f}s")


def test_c2_non_symmetry_witness():
    """The one-object/two-fiber example: 4 objects one way, 2 the other,
    and no isomorphism between the bases."""
    x = _discrete_diagram(["d"], [2])
    y = _discrete_diagram(["u", "v"], [1, 1])
    p_xy = semidirect(x, y)
    p_yx = semidirect(y, x)
    counts = (len(p_xy.base.objects), len(p_yx.base.objects))
    no_iso = find_isomorphism(p_xy.base, p_yx.base) is None
    ok = counts == (4, 2) and no_iso
    assert _verdict("C2", ok, f"counts {counts}, isomorphism found: {not no_iso}")


def test_c3_operad_correspondence_and_mutations():
    """Composite-collection correspondence and exact club round-trips for the
    word operad at arity 4 and >= 20 random collections/operads; 50 seeded
    law-breaking single-entry mutations all fail the club axiom check."""
    rng = random.Random(7)
    assert ns_iso_check(associative_operad(4)).problems == []
    collections = 0
    for _ in range(20):
        if not ns_iso_check(gen.random_collection(rng)).problems:
            collections += 1

    pool = [associative_operad(4), free_operad({2: ["g"]}, 4)]
    pool += [gen.random_operad(rng) for _ in range(20)]
    roundtrip_failures = []
    for idx, op in enumerate(pool):
        club = operad_to_club(op)
        back = club_to_operad(club)
        if (back.gamma != op.gamma or back.unit != op.unit
                or back.levels != op.levels or back.cap != op.cap):
            roundtrip_failures.append(idx)

    hosts = [free_operad({2: ["g"]}, 3), free_operad({2: ["g"], 3: ["t"]}, 3),
             gen.random_operad(random.Random(11))]
    mutations = []
    for host in hosts:
        mutations += gen.law_breaking_mutations(rng, host, 17)
    mutations = mutations[:50]
    surviving = []
    for (key, replacement, mutant) in mutations:
        assert validate_ns_operad(mutant) != []
        if club_check(operad_to_club(mutant), stop_early=True) == []:
            surviving.append((key, replacement))
    ok = (collections == 20 and not roundtrip_failures
          and len(mutations) == 50 and not surviving)
    assert _verdict("C3", ok,
                    f"{collections} collections, {len(pool)} round-trips "
                    f"({len(roundtrip_failures)} bad), {len(mutations)} "
                    f"mutations ({len(surviving)} survived)")


def test_c4_symmetric_case():
    """The arity-3 permutation operad includes injectively but not
    surjectively into its composite; the symmetric clubs pass the axioms."""
    op = symmetric_associative_operad(3)
    assert validate_sym_operad(op) == []
    res = sym_inclusion(op)
    inj, nonsur = res.injective, not res.surjective_on_objects
    witness = res.missing_objects[:1]
    com_report = club_check(sym_operad_to_club(commutative_operad(2)))
    swap_report = club_check(sym_operad_to_club(swap_pair_operad()))
    ok = inj and nonsur and witness and com_report == [] and swap_report == []
    assert _verdict("C4", ok,
                    f"injective={inj}, non-surjective={nonsur} "
                    f"(missing {len(res.missing_objects)}), "
                    f"com_violations={len(com_report)}, "
                    f"swap_violations={len(swap_report)}")


def test_c5_sset_club_laws_trunc3():
    """Unit laws at truncation 3 for the four standard shapes; strict
    associativity on >= 20 random two-level families; constant composite
    equals the product with the derived square counts (4, 5, 2)."""
    trunc = 3
    unit_failures = []
    for name, s in [("point", standard_simplex(0, trunc)),
                    ("interval", standard_simplex(1, trunc)),
                    ("triangle", standard_simplex(2, trunc)),
                    ("triangle-boundary", boundary(2, trunc))]:
        if unit_law_point_values(s) or unit_law_point_base(s):
            unit_failures.append(name)

    rng = random.Random(5)
    assoc_failures = 0
    for _ in range(20):
        tlf = gen.random_two_level(rng, trunc)
        if associativity_check(tlf):
            assoc_failures += 1

    s = standard_simplex(1, trunc)
    t = standard_simplex(1, trunc)
    res = compose(constant_family(s, t))
    counts = tuple(len(res.sset.nondeg[k]) for k in range(3))
    product_iso = iso_sset(res.sset, product(s, t)) is not None
    ok = (not unit_failures and assoc_failures == 0
          and counts == (4, 5, 2) and product_iso)
    assert _verdict("C5", ok,
                    f"unit failures {unit_failures}, "
                    f"{assoc_failures}/20 associativity failures, "
                    f"square counts {counts}")


def test_c6_comparison_functor_not_invertible():
    """The diagonal comparison is a verified functor and verified not to be
    an isomorphism."""
    fixture = constant_family(one_point(2), standard_simplex(1, 2))
    res = compose(fixture)
    pairs = pair_category_sset(fixture)
    assert validate_functor(delta_functor(res, pairs)) == []
    not_iso = not delta_is_isomorphism(res, pairs)
    diag_objects = sum(len(res.sset.all_simplices(k))
                      for k in range(res.sset.trunc + 1))
    pair_objects = len(pairs.cat.objects)
    ok = not_iso and pair_objects > diag_objects
    assert _verdict("C6", ok,
                    f"functor verified; {diag_objects} diagonal vs "
                    f"{pair_objects} pair objects")


def test_c7_algebra_laws():
    """Collapse identities plus two-stage evaluation on >= 20 sampled
    discrete two-level families with value sizes <= 3, in under 120 s."""
    started = time.monotonic()
    trunc = 2
    x = constant_algebra_object(standard_simplex(2, trunc), ["u", "v"])
    constant_ok = len(colimit_act(x)) == 2
    shape = disjoint_union(one_point(trunc), one_point(trunc))
    coproduct_ok = len(colimit_act(constant_algebra_object(shape, ["u"]))) == 2

    rng = random.Random(13)
    failures = 0
    for _ in range(20):
        tlf = gen.random_two_level(rng, trunc, discrete=True)
        if two_stage_colimit_check(tlf):
            failures += 1
    elapsed = time.monotonic() - started
    ok = constant_ok and coproduct_ok and failures == 0 and elapsed < 120.0
    assert _verdict("C7", ok,
                    f"constant={constant_ok}, coproduct={coproduct_ok}, "
                    f"{failures}/20 two-stage failures, {elapsed:.1f}s")


def test_c8_fibration_machinery():
    """Horn lifting holds for discrete-over-point, fails with a witness for
    the interval over the point; 50 seeded stability samples report zero
    violations at truncation 2."""
    pt = one_point(3)
    two = disjoint_union(one_point(3), one_point(3))
    collapse = SimplicialMap(two, pt, {"0:pt": nondeg("pt", 0),
                                       "1:pt": nondeg("pt", 0)})
    ok_discrete, _ = is_kan_fibration(collapse, 2)

    interval = standard_simplex(1, 3)
    to_point = SimplicialMap(interval, pt, {
        "0": nondeg("pt", 0), "1": nondeg("pt", 0),
        "01": apply_operator(pt, nondeg("pt", 0), degeneracy_map(0, 0))})
    ok_interval, witness = is_kan_fibration(to_point, 2)

    rng = random.Random(42)
    samples = [gen.random_stability_sample(rng, 2) for _ in range(50)]
    violations = sset_stability_check(samples)
    ok = (ok_discrete and not ok_interval and witness is not None
          and violations == [])
    assert _verdict("C8", ok,
                    f"discrete-over-point={ok_discrete}, "
                    f"interval witness={witness and witness['horn']}, "
                    f"{len(violations)} stability violations in 50 samples")


def test_c9_suite_determinism():
    """Every suite run twice with the same seed produces byte-identical
    reports."""
    settings = {
        "monoidal-laws": {"samples": 5},
        "club-check": {},
        "operad-bijection": {"samples": 4},
        "sset-laws": {"samples": 3, "trunc": 2},
        "algebra-laws": {"samples": 4},
        "stability": {"samples": 8},
    }
    mismatched = []
    for name, kwargs in settings.items():
        first = formats.to_json_string(run_suite(name, seed=9, **kwargs))
        second = formats.to_json_string(run_suite(name, seed=9, **kwargs))
        if first != second:
            mismatched.append(name)
    ok = not mismatched
    assert _verdict("C9", ok, f"{len(settings)} suites, mismatched: {mismatched}")
