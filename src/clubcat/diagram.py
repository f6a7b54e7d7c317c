"""Diagrams in Cat and their morphisms.

A diagram is a base category D together with a fiber category R(d) for every
object and a fiber functor R(f) for every morphism, all stored as tables.

A diagram morphism (F, rho) carries a base functor F: D -> D' and, for every
object d of D, a component functor

    rho_d : R'(F(d)) -> R(d),

i.e. the components point from the target's fibers back to the source's.
Naturality is strict equality of functor tables per square.
"""

from __future__ import annotations

from .errors import InputError
from .fincat import (FinCategory, Functor, compose_functors, fincat_equal,
                     functor_equal, identity_functor, terminal_category,
                     validate_category, validate_functor)


class DiagramInCat:
    """A base category with a category-valued functor on it, as tables."""

    def __init__(self, base: FinCategory, fiber_obj, fiber_mor, name=""):
        self.base = base
        self.fiber_obj = dict(fiber_obj)   # object id -> FinCategory
        self.fiber_mor = dict(fiber_mor)   # morphism id -> Functor
        self.name = name

    def __repr__(self):
        return f"DiagramInCat({self.name!r}, base={self.base!r})"


def validate_diagram(x: DiagramInCat):
    """Exhaustive functoriality check of the fiber assignment."""
    report = list(validate_category(x.base))
    if report:
        return [f"base: {r}" for r in report]
    for d in x.base.objects:
        if d not in x.fiber_obj:
            report.append(f"fiber missing at object {d!r}")
            continue
        bad = validate_category(x.fiber_obj[d])
        report.extend(f"fiber at {d!r}: {r}" for r in bad)
    for m in x.base.mor_ids:
        if m not in x.fiber_mor:
            report.append(f"fiber functor missing at morphism {m!r}")
    if report:
        return report
    for m in x.base.mor_ids:
        fun = x.fiber_mor[m]
        if not fincat_equal(fun.src, x.fiber_obj[x.base.src[m]]):
            report.append(f"fiber functor at {m!r} has wrong source")
        elif not fincat_equal(fun.tgt, x.fiber_obj[x.base.tgt[m]]):
            report.append(f"fiber functor at {m!r} has wrong target")
        else:
            report.extend(f"fiber functor at {m!r}: {r}" for r in validate_functor(fun))
    if report:
        return report
    for d in x.base.objects:
        if not functor_equal(x.fiber_mor[x.base.identity(d)],
                             identity_functor(x.fiber_obj[d])):
            report.append(f"fiber of identity at {d!r} is not the identity functor")
    for (g, f), gf in x.base.comp.items():
        composite = compose_functors(x.fiber_mor[g], x.fiber_mor[f])
        if not functor_equal(x.fiber_mor[gf], composite):
            report.append(f"fiber functoriality fails at pair ({g!r}, {f!r})")
    return report


class DiagramMorphism:
    """A base functor together with per-object fiber components rho_d."""

    def __init__(self, src: DiagramInCat, tgt: DiagramInCat,
                 base_functor: Functor, rho, name=""):
        self.src = src
        self.tgt = tgt
        self.base_functor = base_functor
        self.rho = dict(rho)               # object of src.base -> Functor
        self.name = name

    def __repr__(self):
        return f"DiagramMorphism({self.name!r})"


def validate_diagram_morphism(a: DiagramMorphism):
    report = []
    f = a.base_functor
    if not fincat_equal(f.src, a.src.base):
        report.append("base functor source mismatch")
    if not fincat_equal(f.tgt, a.tgt.base):
        report.append("base functor target mismatch")
    report.extend(f"base functor: {r}" for r in validate_functor(f))
    if report:
        return report
    for d in a.src.base.objects:
        comp = a.rho.get(d)
        if comp is None:
            report.append(f"rho component missing at {d!r}")
            continue
        if not fincat_equal(comp.src, a.tgt.fiber_obj[f.omap[d]]):
            report.append(f"rho at {d!r} has wrong source fiber")
        elif not fincat_equal(comp.tgt, a.src.fiber_obj[d]):
            report.append(f"rho at {d!r} has wrong target fiber")
        else:
            report.extend(f"rho at {d!r}: {r}" for r in validate_functor(comp))
    if report:
        return report
    # naturality per base morphism: R(f) ∘ rho_d1 = rho_d2 ∘ R'(F(f))
    for m in a.src.base.mor_ids:
        d1, d2 = a.src.base.src[m], a.src.base.tgt[m]
        left = compose_functors(a.src.fiber_mor[m], a.rho[d1])
        right = compose_functors(a.rho[d2], a.tgt.fiber_mor[f.mmap[m]])
        if not functor_equal(left, right):
            report.append(f"rho naturality fails at base morphism {m!r}")
    return report


def identity_diagram_morphism(x: DiagramInCat):
    return DiagramMorphism(x, x, identity_functor(x.base),
                           {d: identity_functor(x.fiber_obj[d]) for d in x.base.objects},
                           name="id")


def compose_diagram_morphisms(b: DiagramMorphism, a: DiagramMorphism):
    """Composite b∘a: base functors compose, rho components whisker backwards."""
    if not fincat_equal(a.tgt.base, b.src.base):
        raise InputError("diagram morphism composition endpoint mismatch")
    base = compose_functors(b.base_functor, a.base_functor)
    rho = {}
    for d in a.src.base.objects:
        rho[d] = compose_functors(a.rho[d], b.rho[a.base_functor.omap[d]])
    return DiagramMorphism(a.src, b.tgt, base, rho)


def diagram_morphism_equal(a: DiagramMorphism, b: DiagramMorphism):
    if a.base_functor.omap != b.base_functor.omap:
        return False
    if a.base_functor.mmap != b.base_functor.mmap:
        return False
    if set(a.rho) != set(b.rho):
        return False
    return all(functor_equal(a.rho[d], b.rho[d]) for d in a.rho)


def constantify(m: FinCategory, name=None):
    """The diagram with base m and every fiber the one-object category."""
    one = terminal_category()
    fiber_obj = {d: one for d in m.objects}
    fiber_mor = {f: identity_functor(one) for f in m.mor_ids}
    return DiagramInCat(m, fiber_obj, fiber_mor,
                        name=name if name is not None else f"const({m.name})")


def unit_diagram():
    """The monoidal unit: the one-object category over itself."""
    return constantify(terminal_category(), name="unit")
