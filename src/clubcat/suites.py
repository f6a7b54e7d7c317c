"""Runnable law-check suites with deterministic machine-readable reports.

Every suite draws its fixtures from a seeded generator, runs a fixed list of
checks, and returns a plain dict: the same seed and configuration always
produce byte-identical serialized reports.  Each check carries a
self-describing law identifier, a pass/fail status and witness details.
"""

from __future__ import annotations

import random

from .config import DEFAULT_GUARDRAILS, SCHEMA_VERSION
from .errors import GuardrailExceeded, InputError
from .diagram import DiagramInCat
from .fincat import (discrete_category, find_isomorphism, identity_functor,
                     validate_functor)
from . import generate as gen
from .operads import (NsOperad, _club_from_encoding, _square_within_cap,
                      associative_operad, club_round_trips,
                      commutative_operad, cyclic_group_operad, encode_ns,
                      free_operad, ns_iso_check, operad_to_club,
                      swap_pair_operad, sym_inclusion, sym_operad_to_club,
                      symmetric_associative_operad)
from .semidirect import (associator, club_check, pentagon_check, semidirect,
                         triangle_check, trivial_club, unitors)
from .simpset import (SimplicialMap, apply_operator, boundary,
                      degeneracy_map, disjoint_union, iso_sset,
                      is_kan_fibration, nondeg, one_point, product,
                      standard_simplex)
from .sset_club import (associativity_check, compose, constant_family,
                        delta_functor, delta_is_isomorphism,
                        delta_naturality_check, identity_club_morphism,
                        pair_category_sset, unit_law_point_base,
                        unit_law_point_values)
from .algebra import (act_category, algebra_associativity_check,
                      colimit_act, constant_algebra_object, i_points,
                      sset_stability_check)


class Report:
    """The checks of one run and the report around them.

    ``header`` names the run: ``suite`` and ``config`` for a suite,
    ``command`` (and ``kind`` for ``validate``) for a CLI command.
    """

    def __init__(self, **header):
        self.header = header
        self.checks = []

    def record(self, law, ok, details=None):
        self.checks.append({
            "law": law,
            "status": "pass" if ok else "fail",
            "details": details if details is not None else {},
        })

    def report(self):
        passed = sum(1 for c in self.checks if c["status"] == "pass")
        return {
            "tool": "clubcat",
            "schema": SCHEMA_VERSION,
            **self.header,
            "checks": self.checks,
            "summary": {
                "passed": passed,
                "failed": len(self.checks) - passed,
                "total": len(self.checks),
            },
        }


def _monoidal_laws(suite, config):
    rng = random.Random(config["seed"])
    samples = config["samples"]
    guard = DEFAULT_GUARDRAILS

    # the one-object/two-object witness that the product has no symmetry
    left = semidirect(
        _pointed_diagram(["d"], [2]), _pointed_diagram(["u", "v"], [1, 1]))
    right = semidirect(
        _pointed_diagram(["u", "v"], [1, 1]), _pointed_diagram(["d"], [2]))
    suite.record("product-non-symmetry",
                 len(left.base.objects) == 4 and len(right.base.objects) == 2
                 and find_isomorphism(left.base, right.base) is None,
                 {"left_objects": len(left.base.objects),
                  "right_objects": len(right.base.objects)})

    done = 0
    resampled = 0
    failures = []
    while done < samples:
        try:
            x, y, z, products = gen.random_triple(rng)
            p_xy = products(x, y)
            p_yz = products(y, z)
            # the associator's other two products trip here if they would
            # trip there: every refusal happens in their object phase, which
            # the table keeps for the associator
            n_xy_z = len(products.objects(p_xy.diagram, z))
            products.objects(x, p_yz.diagram)
            if n_xy_z > guard.max_base_objects:
                # pentagon_check first builds ((X⋉Y)⋉Z)⋉W, which trips on
                # this base whatever W is.  The unitors and the triangle
                # cannot trip once X⋉Y is built: each product they build has
                # the base, fiber and functor-count limits of X⋉Y or 1⋉Y.
                # So the parts skipped here would all pass, and drawing the
                # three W keeps the rng stream of the full attempt.
                for _ in range(3):
                    gen.random_tiny_diagram(rng)
                resampled += 1
                continue
            res = associator(x, y, z, products)
            left_u, right_u = unitors(x, products)
            tri = triangle_check(x, y, products)
            pent = None
            for _ in range(3):
                w = gen.random_tiny_diagram(rng)
                try:
                    pent = pentagon_check(res, w, products)
                    break
                except GuardrailExceeded:
                    continue
            if pent is None:
                resampled += 1
                continue
        except GuardrailExceeded:
            resampled += 1
            continue
        if res.iso.problems or left_u.problems or right_u.problems:
            failures.append({"sample": done, "law": "coherence-inverses"})
        if not tri:
            failures.append({"sample": done, "law": "unit-triangle"})
        if not pent:
            failures.append({"sample": done, "law": "five-term-rebracketing"})
        done += 1
    suite.record("rebracketing-and-unit-isomorphisms", not failures,
                 {"samples": done, "resampled": resampled,
                  "failures": failures})


def _pointed_diagram(base_objs, fiber_sizes):
    base = discrete_category(base_objs)
    fibers = {d: discrete_category([f"{d}f{i}" for i in range(n)])
              for d, n in zip(base_objs, fiber_sizes)}
    fiber_mor = {base.identity(d): identity_functor(fibers[d])
                 for d in base_objs}
    return DiagramInCat(base, fibers, fiber_mor)


def _club_check_suite(suite, config):
    fixtures = [
        ("one-object-club", trivial_club()),
        ("word-concatenation-club",
         operad_to_club(associative_operad(3, with_nullary=True))),
        ("binary-tree-club", operad_to_club(free_operad({2: ["g"]}, 3))),
        ("cyclic-group-club", operad_to_club(cyclic_group_operad(3))),
        ("unordered-pair-club", sym_operad_to_club(commutative_operad(2))),
        ("swapped-pair-club", sym_operad_to_club(swap_pair_operad())),
    ]
    for name, club in fixtures:
        report = club_check(club)
        suite.record(f"monoid-axioms:{name}", report == [],
                     {"violations": report[:5]})
    # negative control: one corrupted composition entry must fail
    z3 = cyclic_group_operad(3)
    gamma = dict(z3.gamma)
    gamma[("1", ("1",))] = "0"
    bad = operad_to_club(NsOperad(1, z3.levels, "0", gamma))
    report = club_check(bad, stop_early=True)
    suite.record("monoid-axioms:corrupted-control-fails", report != [],
                 {"violations": report[:3]})


def _corresponds(p):
    """Whether ``ns_iso_check`` finds the composite-collection
    correspondence for ``p``."""
    return not ns_iso_check(p).problems


def _operad_bijection(suite, config):
    rng = random.Random(config["seed"])
    samples = config["samples"]

    suite.record("composite-collection-correspondence:word-operad",
                 _corresponds(associative_operad(4)), {"cap": 4})
    bad_collections = 0
    for _ in range(samples):
        if not _corresponds(gen.random_collection(rng)):
            bad_collections += 1
    suite.record("composite-collection-correspondence:random", bad_collections == 0,
                 {"samples": samples, "failures": bad_collections})

    pool = [associative_operad(4), free_operad({2: ["g"]}, 4)]
    pool += [gen.random_operad(rng) for _ in range(samples)]
    bad_roundtrips = [idx for idx, op in enumerate(pool)
                      if not club_round_trips(op)]
    suite.record("club-table-round-trip", not bad_roundtrips,
                 {"operads": len(pool), "failures": bad_roundtrips})

    surviving = []
    hosts = [free_operad({2: ["g"]}, 3), cyclic_group_operad(3),
             free_operad({2: ["g"], 3: ["t"]}, 3)]
    wanted = 50
    per_host = [wanted - 2 * (wanted // 3), wanted // 3, wanted // 3]
    total = 0
    for host, quota in zip(hosts, per_host):
        # law_breaking_mutations builds each mutant as NsOperad(host.cap,
        # host.levels, ...) and changes only gamma, so the host's encoding
        # and its truncated square serve every mutant of the host
        enc = encode_ns(host)
        square = _square_within_cap(enc, host.cap, DEFAULT_GUARDRAILS)
        mutations = gen.law_breaking_mutations(rng, host, quota)
        for (key, replacement, mutant) in mutations:
            if mutant.cap != host.cap or mutant.levels != host.levels:
                raise InputError(f"mutant of {host.name!r} at {key!r} does "
                                 "not keep the host's levels and cap")
            total += 1
            club = _club_from_encoding(mutant, enc, square)
            if club_check(club, stop_early=True) == []:
                surviving.append({"host": host.name, "entry": repr(key),
                                  "replacement": replacement})
    suite.record("mutation-kill-rate", total >= wanted and not surviving,
                 {"mutations": total, "surviving": surviving})

    res = sym_inclusion(symmetric_associative_operad(3))
    suite.record("symmetric-inclusion-injective", res.injective, {})
    suite.record("symmetric-inclusion-not-surjective",
                 not res.surjective_on_objects and len(res.missing_objects) > 0,
                 {"missing": len(res.missing_objects),
                  "first_missing": res.missing_objects[:1]})
    for name, club in [("unordered-pair-club",
                        sym_operad_to_club(commutative_operad(2))),
                       ("swapped-pair-club",
                        sym_operad_to_club(swap_pair_operad())),
                       ("permutation-splice-club",
                        sym_operad_to_club(symmetric_associative_operad(2)))]:
        report = club_check(club)
        suite.record(f"symmetric-monoid-axioms:{name}", report == [],
                     {"violations": report[:3]})


def _sset_laws(suite, config):
    rng = random.Random(config["seed"])
    trunc = config["trunc"]
    samples = config["samples"]

    for name, s in [("interval", standard_simplex(1, trunc)),
                    ("point", standard_simplex(0, trunc)),
                    ("triangle", standard_simplex(2, trunc)),
                    ("triangle-boundary", boundary(2, trunc))]:
        report = unit_law_point_values(s)
        suite.record(f"unit-law-point-values:{name}", report == [],
                     {"violations": report})
        report = unit_law_point_base(s)
        suite.record(f"unit-law-point-base:{name}", report == [],
                     {"violations": report})

    s = standard_simplex(1, trunc)
    t = standard_simplex(1, trunc)
    res = compose(constant_family(s, t))
    counts = [len(res.sset.nondeg[k]) for k in range(min(3, trunc + 1))]
    ok = (counts == [4, 5, 2][:len(counts)]
          and iso_sset(res.sset, product(s, t)) is not None)
    suite.record("constant-composite-is-product:squares", ok,
                 {"nondegenerate_counts": counts})
    extra_failures = []
    for idx in range(max(3, samples // 4)):
        obj = gen.random_family(rng, trunc)
        values = {id(v) for v in obj.values.values()}
        if len(values) != 1:
            continue
        value = next(iter(obj.values.values()))
        r = compose(obj)
        if iso_sset(r.sset, product(obj.base, value)) is None:
            extra_failures.append(idx)
    suite.record("constant-composite-is-product:random", not extra_failures,
                 {"failures": extra_failures})

    assoc_failures = []
    for idx in range(samples):
        tlf = gen.random_two_level(rng, trunc)
        report = associativity_check(tlf)
        if report:
            assoc_failures.append({"sample": idx, "violations": report[:2]})
    suite.record("diagonal-associativity", not assoc_failures,
                 {"samples": samples, "failures": assoc_failures})

    fixture = constant_family(one_point(min(2, trunc)),
                              standard_simplex(1, min(2, trunc)))
    res = compose(fixture)
    pairs = pair_category_sset(fixture)
    bad = validate_functor(delta_functor(res, pairs))
    suite.record("comparison-functor-valid", not bad,
                 {"violations": bad[:3]} if bad else {})
    suite.record("comparison-functor-not-invertible",
                 not delta_is_isomorphism(res, pairs),
                 {"diagonal_objects": len(res.sset.all_simplices(0))})

    nat_samples = []
    for _ in range(max(2, samples // 10)):
        nat_samples.append(identity_club_morphism(gen.random_family(rng, min(2, trunc))))
        nat_samples.append(gen.random_stability_sample(rng, min(2, trunc)))
    nat_report = delta_naturality_check(nat_samples)
    suite.record("comparison-naturality", nat_report == [],
                 {"samples": len(nat_samples), "violations": nat_report[:3]})


def _algebra_laws(suite, config):
    rng = random.Random(config["seed"])
    trunc = min(2, config["trunc"])
    samples = config["samples"]

    x = constant_algebra_object(standard_simplex(2, trunc), ["u", "v"])
    suite.record("collapse-of-constant-over-connected",
                 len(colimit_act(x)) == 2, {})
    shape = disjoint_union(one_point(trunc), one_point(trunc))
    x2 = constant_algebra_object(shape, ["u"])
    suite.record("collapse-of-constant-over-two-components",
                 len(colimit_act(x2)) == 2, {})

    cat = act_category(encode_ns(associative_operad(2, with_nullary=True)).diagram,
                       discrete_category(["a", "b"]))
    suite.record("acting-category-count", len(cat.objects) == 7,
                 {"objects": len(cat.objects)})

    pts = i_points(constant_algebra_object(one_point(trunc), ["u", "v"]),
                   ("*",), 0)
    suite.record("probe-count-singleton", len(pts) == 2, {})

    sample_list = [gen.random_two_level(rng, trunc, discrete=True)
                   for _ in range(samples)]
    violations = algebra_associativity_check(sample_list)
    suite.record("two-stage-evaluation", not violations,
                 {"samples": samples, "violations": violations[:5]})


def _stability(suite, config):
    rng = random.Random(config["seed"])
    trunc = min(2, config["trunc"])
    samples = config["samples"]

    pt = one_point(3)
    two = disjoint_union(one_point(3), one_point(3))
    collapse = SimplicialMap(two, pt, {"0:pt": nondeg("pt", 0),
                                       "1:pt": nondeg("pt", 0)})
    ok, _ = is_kan_fibration(collapse, 2)
    suite.record("horn-lifting:discrete-over-point", ok, {})

    interval = standard_simplex(1, 3)
    to_point = SimplicialMap(interval, pt, {
        "0": nondeg("pt", 0), "1": nondeg("pt", 0),
        "01": apply_operator(pt, nondeg("pt", 0), degeneracy_map(0, 0))})
    ok, witness = is_kan_fibration(to_point, 2)
    suite.record("horn-lifting:interval-over-point-fails",
                 not ok and witness is not None, {"witness": witness})

    sample_list = [gen.random_stability_sample(rng, trunc)
                   for _ in range(samples)]
    report = sset_stability_check(sample_list)
    suite.record("injective-composites", report == [],
                 {"samples": samples, "violations": report[:5]})


SUITES = {
    "monoidal-laws": (_monoidal_laws, {"samples": 100, "trunc": 3}),
    "club-check": (_club_check_suite, {"samples": 1, "trunc": 3}),
    "operad-bijection": (_operad_bijection, {"samples": 20, "trunc": 3}),
    "sset-laws": (_sset_laws, {"samples": 20, "trunc": 3}),
    "algebra-laws": (_algebra_laws, {"samples": 20, "trunc": 2}),
    "stability": (_stability, {"samples": 50, "trunc": 2}),
}


def run_suite(name, seed=0, samples=None, trunc=None):
    """Run a named suite and return its report.

    Unknown names, a truncation below 1 and a negative sample count raise
    InputError: at truncation 0 the fixtures (the 2-simplex among them) are
    not the shapes the laws are stated for.
    """
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES)}")
    fn, defaults = SUITES[name]
    config = {
        "seed": seed,
        "samples": samples if samples is not None else defaults["samples"],
        "trunc": trunc if trunc is not None else defaults["trunc"],
    }
    if config["trunc"] < 1:
        raise InputError("suite truncation must be at least 1, "
                         f"got {config['trunc']}")
    if config["samples"] < 0:
        raise InputError("suite sample count must be nonnegative, "
                         f"got {config['samples']}")
    suite = Report(suite=name, config=config)
    fn(suite, config)
    return suite.report()
