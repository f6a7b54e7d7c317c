"""Size-first sampling in ``monoidal-laws`` and ``random_triple``.

The references below are the sampling loop and the triple filter as they
were before either decided anything from a product's objects: every sample
built the associator, both unitors and the triangle before its pentagon
tries, and every ``random_triple`` try built X⋉Y and Y⋉Z in full.  The
size-first versions must draw the same random numbers and give the same
reports.
"""

import random

import pytest

from clubcat import generate as gen
from clubcat import suites
from clubcat.config import DEFAULT_GUARDRAILS
from clubcat.errors import GuardrailExceeded
from clubcat.fincat import enumerate_functors, find_isomorphism
from clubcat.formats import diagram_to_json, to_json_string
from clubcat.semidirect import (Products, associator, build_semidirect,
                                pentagon_check, semidirect, triangle_check,
                                unitors)
from clubcat.suites import run_suite


def _reference_predicted_product_objects(x, y):
    total = 0
    for d in x.base.objects:
        total += len(enumerate_functors(x.fiber_obj[d], y.base))
    return total


def _reference_max_fiber_morphisms(d):
    return max((len(d.fiber_obj[o].mor_ids) for o in d.base.objects), default=0)


def reference_random_triple(rng, product_budget=150, tries=80,
                            guard=DEFAULT_GUARDRAILS):
    """``random_triple`` building both pair products in full on every try."""
    predicted = _reference_predicted_product_objects
    max_fiber = _reference_max_fiber_morphisms
    for _ in range(tries):
        x = gen.random_diagram(rng, name="X")
        y = gen.random_diagram(rng, name="Y")
        z = gen.random_diagram(rng, name="Z")
        if predicted(x, y) > 40:
            continue
        try:
            p_xy = build_semidirect(x, y)
            p_yz = build_semidirect(y, z)
        except GuardrailExceeded:
            continue
        bound = guard.max_fiber_morphisms
        if max_fiber(p_xy.diagram) > bound:
            continue
        if max_fiber(p_yz.diagram) > bound:
            continue
        try:
            if predicted(p_xy.diagram, z) > product_budget:
                continue
            if predicted(x, p_yz.diagram) > product_budget:
                continue
        except GuardrailExceeded:
            continue
        if len(p_xy.diagram.base.mor_ids) > 300 or len(p_yz.diagram.base.mor_ids) > 300:
            continue
        if max_fiber(p_xy.diagram) * max(1, max_fiber(z)) > bound:
            continue
        if max_fiber(x) * max(1, max_fiber(p_yz.diagram)) > bound:
            continue
        return x, y, z
    raise GuardrailExceeded("no triple fit the size budget")


def reference_monoidal_laws(suite, config):
    """The ``monoidal-laws`` suite checking every drawn sample in full."""
    rng = random.Random(config["seed"])
    samples = config["samples"]
    guard = DEFAULT_GUARDRAILS

    left = semidirect(suites._pointed_diagram(["d"], [2]),
                      suites._pointed_diagram(["u", "v"], [1, 1]))
    right = semidirect(suites._pointed_diagram(["u", "v"], [1, 1]),
                       suites._pointed_diagram(["d"], [2]))
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
            x, y, z = reference_random_triple(rng)
            products = Products(guard)
            res = associator(x, y, z, products)
            unitors(x, products)
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
        if not tri:
            failures.append({"sample": done, "law": "unit-triangle"})
        if not pent:
            failures.append({"sample": done, "law": "five-term-rebracketing"})
        done += 1
    suite.record("rebracketing-and-unit-isomorphisms", not failures,
                 {"samples": done, "resampled": resampled,
                  "failures": failures})


def _monoidal_report(seed):
    return to_json_string(run_suite("monoidal-laws", seed=seed, samples=1))


# the seeds of the benchmark pool that resample the most: 6, 7 and 5 times
@pytest.mark.parametrize("seed", [12, 22, 23])
def test_monoidal_report_matches_the_full_check(seed, monkeypatch):
    report = _monoidal_report(seed)
    assert '"resampled": 0' not in report
    defaults = suites.SUITES["monoidal-laws"][1]
    monkeypatch.setitem(suites.SUITES, "monoidal-laws",
                        (reference_monoidal_laws, defaults))
    assert report == _monoidal_report(seed)


def _triple_text(triple):
    return to_json_string([diagram_to_json(d) for d in triple])


def test_random_triple_matches_the_full_build():
    # seeds 0-39: the seeds of the benchmark's monoidal pool
    for seed in range(40):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert (_triple_text(gen.random_triple(rng)[:3])
                == _triple_text(reference_random_triple(ref_rng))), seed
        assert rng.getstate() == ref_rng.getstate(), seed


def test_monoidal_checks_only_kept_samples(monkeypatch):
    calls = {"associator": 0, "unitors": 0, "triangle_check": 0}

    def counting(name):
        real = getattr(suites, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(suites, name, counting(name))
    report = run_suite("monoidal-laws", seed=22, samples=1)
    details = report["checks"][1]["details"]
    assert (details["samples"], details["resampled"]) == (1, 7)
    assert calls == {"associator": 1, "unitors": 1, "triangle_check": 1}


def test_monoidal_enumerates_each_product_and_fiber_once(monkeypatch):
    # seed 22 resamples 7 times, so it runs rejected random_triple tries,
    # a sample refused by its object counts and a kept sample
    import clubcat.semidirect as module
    from clubcat.fincat import functor_key
    held = []       # every factor stays alive, so no id is reused
    enumerated, fibers = [], []
    real_objects = module.product_objects
    real_fiber = module.fiber_semidirect

    def objects(x, y, *args, **kwargs):
        held.append((x, y))
        enumerated.append((id(x), id(y)))
        return real_objects(x, y, *args, **kwargs)

    def fiber(left, d, psi, right, *args, **kwargs):
        held.append((left, right))
        fibers.append((id(left), id(right), d, functor_key(psi)))
        return real_fiber(left, d, psi, right, *args, **kwargs)

    # every module that may hold its own binding of either name
    for mod in (module, gen, suites):
        if hasattr(mod, "product_objects"):
            monkeypatch.setattr(mod, "product_objects", objects)
        if hasattr(mod, "fiber_semidirect"):
            monkeypatch.setattr(mod, "fiber_semidirect", fiber)
    report = run_suite("monoidal-laws", seed=22, samples=1)
    assert report["checks"][1]["details"]["resampled"] == 7
    assert enumerated and fibers
    assert len(set(enumerated)) == len(enumerated)
    assert len(set(fibers)) == len(fibers)
