"""The semidirect product of category-valued diagrams and its monoidal laws.

Objects of a product X ⋉ Y pair an object d of the left base with a functor
psi from the left fiber over d into the right base.  Morphisms pair a base
morphism f with a natural transformation phi: psi1 => psi2 ∘ R(f).  The fiber
over (d, psi) is the category of pairs (a, b) with a in R(d) and b in the
right fiber over psi(a); composition twists the second component through the
transported first, exactly like the group-theoretic semidirect product.

All constructions here are table-level and deterministic: object ids of a
product are "<d>:psi<rank>" with rank the position of psi in the lexicographic
enumeration of functors at d, so restricted and unrestricted builds of the
same product agree on ids.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import DEFAULT_GUARDRAILS, Guardrails
from .diagram import (DiagramInCat, DiagramMorphism, compose_diagram_morphisms,
                      diagram_morphism_equal, identity_diagram_morphism,
                      unit_diagram, validate_diagram,
                      validate_diagram_morphism)
from .errors import GuardrailExceeded, InputError
from .fincat import (FinCategory, Functor, _functor_search, compose_functors,
                     enumerate_functors, enumerate_nat_trans, functor_key,
                     terminal_category)


# ---------------------------------------------------------------------------
# pair categories (total categories of a category-valued diagram)

class PairCategory:
    """The category of pairs (a, b) over a diagram W: objects of the base
    paired with objects of their fibers, morphisms twisted through the fiber
    functors.  Keeps id lookups in both directions."""

    def __init__(self, diagram: DiagramInCat, name=""):
        self.diagram = diagram
        base = diagram.base
        objects = []
        self.obj_data = {}
        self.obj_id = {}
        for a in base.objects:
            for b in diagram.fiber_obj[a].objects:
                pid = f"p{len(objects)}"
                objects.append(pid)
                self.obj_data[pid] = (a, b)
                self.obj_id[(a, b)] = pid
        morphisms = []
        self.mor_data = {}
        self.mor_id = {}
        for alpha in base.mor_ids:
            a1, a2 = base.src[alpha], base.tgt[alpha]
            transport = diagram.fiber_mor[alpha]
            fib2 = diagram.fiber_obj[a2]
            for b1 in diagram.fiber_obj[a1].objects:
                tb1 = transport.omap[b1]
                for beta in fib2.mor_ids:
                    if fib2.src[beta] != tb1:
                        continue
                    mid = f"q{len(morphisms)}"
                    morphisms.append(
                        (mid, self.obj_id[(a1, b1)], self.obj_id[(a2, fib2.tgt[beta])]))
                    self.mor_data[mid] = (alpha, b1, beta)
                    self.mor_id[(alpha, b1, beta)] = mid
        identities = {}
        for pid, (a, b) in self.obj_data.items():
            identities[pid] = self.mor_id[
                (base.identity(a), b, diagram.fiber_obj[a].identity(b))]
        comp = {}
        mor_by_src = {}
        for (mid, s, t) in morphisms:
            mor_by_src.setdefault(s, []).append(mid)
        for (mid1, s1, t1) in morphisms:
            alpha1, b1, beta1 = self.mor_data[mid1]
            for mid2 in mor_by_src.get(t1, []):
                alpha2, _, beta2 = self.mor_data[mid2]
                a3 = base.tgt[alpha2]
                fib3 = diagram.fiber_obj[a3]
                moved = diagram.fiber_mor[alpha2].mmap[beta1]
                comp[(mid2, mid1)] = self.mor_id[
                    (base.comp[(alpha2, alpha1)], b1, fib3.comp[(beta2, moved)])]
        self.cat = FinCategory(objects, morphisms, identities, comp, name=name)


def _pair_functor(src: PairCategory, tgt: PairCategory, f: Functor, g_at):
    """The functor (a, b) -> (f a, g_a b) between two pair categories, where
    ``g_at(a)`` is the functor from the fiber of ``src`` over a to the fiber
    of ``tgt`` over f(a)."""
    base = src.diagram.base
    g = {a: g_at(a) for a in base.objects}
    omap = {pid: tgt.obj_id[(f.omap[a], g[a].omap[b])]
            for pid, (a, b) in src.obj_data.items()}
    mmap = {qid: tgt.mor_id[(f.mmap[alpha], g[base.src[alpha]].omap[b1],
                             g[base.tgt[alpha]].mmap[beta])]
            for qid, (alpha, b1, beta) in src.mor_data.items()}
    return Functor(src.cat, tgt.cat, omap, mmap)


def pullback_diagram(psi: Functor, right: DiagramInCat):
    """Restrict the right diagram's fibers along psi: a -> fibers over psi(a)."""
    return DiagramInCat(
        psi.src,
        {a: right.fiber_obj[psi.omap[a]] for a in psi.src.objects},
        {m: right.fiber_mor[psi.mmap[m]] for m in psi.src.mor_ids},
        name=f"pullback({right.name})")


def fiber_semidirect(left: DiagramInCat, d, psi: Functor, right: DiagramInCat,
                     name=None):
    """The fiber over (d, psi): the ``PairCategory`` of pairs twisted by the
    right diagram, named ``name`` (default ``fiber(<d>)``)."""
    if psi.src is not left.fiber_obj[d] and psi.src.objects != left.fiber_obj[d].objects:
        raise InputError("psi must start at the left fiber over d")
    if psi.tgt is not right.base and psi.tgt.objects != right.base.objects:
        raise InputError("psi must land in the right base")
    return PairCategory(pullback_diagram(psi, right),
                        name=f"fiber({d})" if name is None else name)


# ---------------------------------------------------------------------------
# the product construction

def _is_discrete(c: FinCategory):
    return all(c.is_identity(m) for m in c.mor_ids)


def _product_morphisms(x: DiagramInCat, target: FinCategory, over):
    """Yield (f, end1, end2, phi) for each morphism of a product over ``x``.

    ``over[d]`` lists (end, psi) for the product objects over d, each psi a
    functor from X(d) into ``target``.  A morphism from (d1, psi1) to (d2,
    psi2) is a pair of f: d1 -> d2 and phi: psi1 => psi2 ∘ X(f).  They come
    in ``x.base.mor_ids`` order, then source ends, then target ends, then
    ``enumerate_nat_trans`` order.

    phi needs a morphism of ``target`` from each psi1(a) to (psi2 ∘ X(f))(a),
    so a pair of ends whose object maps meet an empty hom-set has none and
    is skipped before psi2 ∘ X(f) is composed.  ``target.hom`` keys only the
    non-empty hom-sets; in a discrete ``target`` those are the hom-sets of
    an object to itself, so the object maps must be equal: there the target
    ends of each f are bucketed by their shifted object tuple, and a source
    end walks only its own bucket, in ascending position.
    """
    discrete = _is_discrete(target)
    hom = target.hom
    base = x.base
    for f in base.mor_ids:
        ends2 = over[base.tgt[f]]
        rf = x.fiber_mor[f]
        fib_objs = rf.src.objects
        shifted_objs = [tuple(psi2.omap[rf.omap[a]] for a in fib_objs)
                        for _, psi2 in ends2]
        if discrete:
            buckets = {}
            for j, objs2 in enumerate(shifted_objs):
                buckets.setdefault(objs2, []).append(j)
        shifted = [None] * len(ends2)   # psi2 ∘ X(f), composed on first use
        for end1, psi1 in over[base.src[f]]:
            objs1 = tuple(psi1.omap[a] for a in fib_objs)
            if discrete:
                matching = buckets.get(objs1, ())
            else:
                matching = [j for j, objs2 in enumerate(shifted_objs)
                            if all(pair in hom for pair in zip(objs1, objs2))]
            for j in matching:
                end2, psi2 = ends2[j]
                if shifted[j] is None:
                    shifted[j] = compose_functors(psi2, rf)
                for phi in enumerate_nat_trans(psi1, shifted[j]):
                    yield f, end1, end2, phi


def _enumerate_psis(fiber: FinCategory, target: FinCategory, keep_keys, guard):
    """Yield (rank, psi) in lexicographic order, honouring an optional key filter.

    The rank is the position in the full enumeration so that ids agree
    between restricted and unrestricted builds of the same product.  A
    discrete fiber's functors come from ``_functor_search`` one at a time, so
    a caller that stops early builds no more of them.  A kept one is built
    from its key alone, ranked by its object tuple read as a numeral in base
    ``len(target.objects)``; a key that names no functor is skipped.
    """
    if not _is_discrete(fiber):
        bound = len(target.objects) ** max(1, len(fiber.objects))
        if bound > 200_000:
            raise GuardrailExceeded(
                f"functor enumeration bound {bound} too large for a non-discrete fiber")
        for rank, psi in enumerate(enumerate_functors(fiber, target, guard)):
            if keep_keys is None or functor_key(psi) in keep_keys:
                yield rank, psi
    elif keep_keys is None:
        for rank, (omap, mmap) in enumerate(_functor_search(fiber, target)):
            yield rank, Functor(fiber, target, omap, mmap)
    else:
        digit = {o: i for i, o in enumerate(target.objects)}
        ranked = []
        for key in keep_keys:
            objs = key[0]
            if len(objs) == len(fiber.objects) and all(o in digit for o in objs):
                rank = 0
                for o in objs:
                    rank = rank * len(digit) + digit[o]
                ranked.append((rank, key))
        ranked.sort()
        for rank, key in ranked:
            omap = dict(zip(fiber.objects, key[0]))
            psi = Functor(fiber, target, omap,
                          {fiber.identities[x]: target.identities[omap[x]]
                           for x in fiber.objects})
            if functor_key(psi) == key:
                yield rank, psi


class SemidirectProduct:
    """A (possibly domain-restricted) semidirect product with id lookups.

    ``obj_id`` maps (d, functor_key(psi)) to the product object id;
    ``mor_id`` maps (f, phi-components-tuple) to the product morphism id;
    ``fibers`` holds the pair category over each product object.
    """

    def __init__(self, left, right, diagram, obj_data, obj_id, mor_data, mor_id, fibers):
        self.left = left
        self.right = right
        self.diagram = diagram
        self.obj_data = obj_data
        self.obj_id = obj_id
        self.mor_data = mor_data
        self.mor_id = mor_id
        self.fibers = fibers

    def describe_object(self, oid):
        d, psi = self.obj_data[oid]
        targets = ",".join(psi.omap[a] for a in psi.src.objects)
        return f"({d}; {targets})"


def product_objects(x: DiagramInCat, y: DiagramInCat,
                    guard: Guardrails = DEFAULT_GUARDRAILS, keep=None):
    """The objects of X ⋉ Y, as a dict from object id to (d, psi) in id order.

    This is the phase of ``build_semidirect`` that can refuse a product: it
    raises every ``GuardrailExceeded`` the full build can raise, so a caller
    can learn the size of a product, or that it is refused, without building
    its morphisms.  ``keep`` is as for ``build_semidirect``.
    """
    for base in (x.base, y.base):
        if len(base.objects) > guard.max_base_objects:
            raise GuardrailExceeded(
                f"base with {len(base.objects)} objects exceeds {guard.max_base_objects}")
    for d in x.base.objects:
        fib = x.fiber_obj[d]
        if len(fib.mor_ids) > guard.max_fiber_morphisms:
            raise GuardrailExceeded(
                f"fiber at {d!r} has {len(fib.mor_ids)} morphisms, "
                f"limit {guard.max_fiber_morphisms}")

    obj_data = {}
    for d in x.base.objects:
        keys = None if keep is None else keep.get(d, set())
        for rank, psi in _enumerate_psis(x.fiber_obj[d], y.base, keys, guard):
            obj_data[f"{d}:psi{rank}"] = (d, psi)
            if len(obj_data) > guard.max_product_objects:
                raise GuardrailExceeded(
                    f"product would exceed {guard.max_product_objects} objects")
    return obj_data


def product_fibers(x: DiagramInCat, y: DiagramInCat, obj_data):
    """The fiber of X ⋉ Y over each object of ``obj_data`` (the result of
    ``product_objects``), as a dict from object id to ``PairCategory``."""
    return {oid: fiber_semidirect(x, d, psi, y, name=f"fib({oid})")
            for oid, (d, psi) in obj_data.items()}


def build_semidirect(x: DiagramInCat, y: DiagramInCat,
                     guard: Guardrails = DEFAULT_GUARDRAILS, keep=None,
                     obj_data=None, fibers=None):
    """Construct X ⋉ Y, optionally restricted to a set of object keys.

    ``keep`` is None for the full product, or a dict mapping left-base object
    ids to sets of functor keys to retain over that object.  ``obj_data`` and
    ``fibers``, when given, are this product's ``product_objects`` and
    ``product_fibers``, already built; the morphisms are built on them.
    """
    if obj_data is None:
        obj_data = product_objects(x, y, guard, keep)
    if fibers is None:
        fibers = product_fibers(x, y, obj_data)
    objects = list(obj_data)
    obj_id = {(d, functor_key(psi)): oid for oid, (d, psi) in obj_data.items()}

    over = {d: [] for d in x.base.objects}
    for oid, (d, psi) in obj_data.items():
        over[d].append((oid, psi))
    # ids follow source object, target object, then f: hom-sets list f in
    # mor_ids order, and the stable sort keeps the phis of each f in order
    position = {oid: i for i, oid in enumerate(objects)}
    f_position = {f: i for i, f in enumerate(x.base.mor_ids)}
    found = sorted(_product_morphisms(x, y.base, over),
                   key=lambda m: (position[m[1]], position[m[2]], f_position[m[0]]))
    morphisms = []
    mor_data, mor_id = {}, {}
    identities = {}
    for f, oid1, oid2, phi in found:
        mid = f"m{len(morphisms)}"
        morphisms.append((mid, oid1, oid2))
        mor_data[mid] = (f, phi)
        fib_objs = obj_data[oid1][1].src.objects
        mor_id[(oid1, oid2, f, tuple(phi.components[a] for a in fib_objs))] = mid
        if (x.base.is_identity(f) and oid1 == oid2
                and all(y.base.is_identity(c) for c in phi.components.values())):
            identities[oid1] = mid

    comp = {}
    mor_by_src = {}
    for (mid, s, t) in morphisms:
        mor_by_src.setdefault(s, []).append(mid)
    by_mid_endpoints = {mid: (s, t) for (mid, s, t) in morphisms}
    for (mid1, s1, t1) in morphisms:
        f1, phi1 = mor_data[mid1]
        d1, psi1 = obj_data[s1]
        rf1 = x.fiber_mor[f1]
        for mid2 in mor_by_src.get(t1, []):
            f2, phi2 = mor_data[mid2]
            comp_f = x.base.comp[(f2, f1)]
            comps = tuple(
                y.base.comp[(phi2.components[rf1.omap[a]], phi1.components[a])]
                for a in psi1.src.objects)
            comp[(mid2, mid1)] = mor_id[
                (s1, by_mid_endpoints[mid2][1], comp_f, comps)]

    base = FinCategory(objects, morphisms, identities, comp,
                       name=f"({x.base.name}|x|{y.base.name})")

    fiber_obj = {oid: fibers[oid].cat for oid in objects}
    fiber_mor = {}
    for (mid, s, t) in morphisms:
        f, phi = mor_data[mid]
        fiber_mor[mid] = _pair_functor(
            fibers[s], fibers[t], x.fiber_mor[f],
            lambda a: y.fiber_mor[phi.components[a]])

    diagram = DiagramInCat(base, fiber_obj, fiber_mor,
                           name=f"({x.name}|x|{y.name})")
    return SemidirectProduct(x, y, diagram, obj_data, obj_id, mor_data, mor_id, fibers)


def semidirect(x: DiagramInCat, y: DiagramInCat,
               guard: Guardrails = DEFAULT_GUARDRAILS):
    """The full product X ⋉ Y as a diagram."""
    return build_semidirect(x, y, guard).diagram


class Products:
    """The full products of one sample, each built once, in stages.

    ``products.objects(x, y)`` is ``product_objects(x, y, guard)``,
    ``products.fibers(x, y)`` is ``product_fibers`` on those objects, and
    ``products(x, y)`` is ``build_semidirect(x, y, guard)`` built on both.
    Each stage is kept under the pair of factors, compared by identity, so
    the table keeps the factors alive while it lives.  A refused product
    keeps nothing.  ``unit`` is the one unit diagram of the sample: the
    unitors and the triangle build their products with 1 on it.  Make one
    table per sample and drop it with the sample.
    """

    def __init__(self, guard: Guardrails = DEFAULT_GUARDRAILS):
        self.guard = guard
        self.unit = unit_diagram()
        self._objects = {}    # (x, y) -> obj_data
        self._fibers = {}     # (x, y) -> fibers
        self._built = {}      # (x, y) -> SemidirectProduct

    def objects(self, x: DiagramInCat, y: DiagramInCat):
        objects = self._objects.get((x, y))
        if objects is None:
            objects = self._objects[(x, y)] = product_objects(x, y, self.guard)
        return objects

    def fibers(self, x: DiagramInCat, y: DiagramInCat):
        fibers = self._fibers.get((x, y))
        if fibers is None:
            fibers = self._fibers[(x, y)] = product_fibers(x, y, self.objects(x, y))
        return fibers

    def __call__(self, x: DiagramInCat, y: DiagramInCat):
        p = self._built.get((x, y))
        if p is None:
            p = self._built[(x, y)] = build_semidirect(
                x, y, self.guard, obj_data=self.objects(x, y),
                fibers=self.fibers(x, y))
        return p


# ---------------------------------------------------------------------------
# functoriality of the product

def semidirect_on_morphisms(a: DiagramMorphism, b: DiagramMorphism,
                            products: Products):
    """The product morphism a ⋉ b: X1 ⋉ Y1 -> X2 ⋉ Y2, between the products
    of the table ``products``.

    On objects, (d, psi) goes to (A(d), B ∘ psi ∘ rho^A_d); fiber components
    send a pair (a', b') to (rho^A(a'), rho^B(b')).
    """
    x1, x2 = a.src, a.tgt
    p1 = products(x1, b.src)
    p2 = products(x2, b.tgt)

    fa = a.base_functor
    fb = b.base_functor
    omap, mmap = {}, {}
    for oid, (d, psi) in p1.obj_data.items():
        shifted = compose_functors(fb, compose_functors(psi, a.rho[d]))
        omap[oid] = p2.obj_id[(fa.omap[d], functor_key(shifted))]
    for mid, (f, phi) in p1.mor_data.items():
        d1 = x1.base.src[f]
        rho_a = a.rho[d1]
        fiber2 = x2.fiber_obj[fa.omap[d1]]
        comps = tuple(fb.mmap[phi.components[rho_a.omap[ap]]]
                      for ap in fiber2.objects)
        s1 = p1.diagram.base.src[mid]
        t1 = p1.diagram.base.tgt[mid]
        mmap[mid] = p2.mor_id[(omap[s1], omap[t1], fa.mmap[f], comps)]
    base = Functor(p1.diagram.base, p2.diagram.base, omap, mmap)

    rho = {}
    for oid, (d, psi) in p1.obj_data.items():
        rho_a = a.rho[d]
        rho[oid] = _pair_functor(
            p2.fibers[omap[oid]], p1.fibers[oid], rho_a,
            lambda ap: b.rho[psi.omap[rho_a.omap[ap]]])

    return DiagramMorphism(p1.diagram, p2.diagram, base, rho,
                           name=f"({a.name}|x|{b.name})")


# ---------------------------------------------------------------------------
# coherence morphisms

class IsoPair(NamedTuple):
    forward: DiagramMorphism
    problems: list     # from ``_verify_iso``; empty when forward is invertible


def _verify_iso(forward: DiagramMorphism):
    """Why ``forward`` is not an isomorphism of diagrams; empty when it is.

    A valid diagram morphism is invertible exactly when its base functor and
    every rho component are bijective on objects and on morphisms, so the
    forward tables decide it.  A failure is a finding, not an error."""
    problems = validate_diagram_morphism(forward)
    if problems:
        return [f"coherence morphism invalid: {problems[:3]}"]
    tables = [("base functor", forward.base_functor)]
    tables += [(f"rho at {d!r}", forward.rho[d])
               for d in forward.src.base.objects]
    for where, fun in tables:
        if (sorted(fun.omap[x] for x in fun.src.objects)
                != sorted(fun.tgt.objects)):
            problems.append(f"{where} is not bijective on objects")
        if (sorted(fun.mmap[m] for m in fun.src.mor_ids)
                != sorted(fun.tgt.mor_ids)):
            problems.append(f"{where} is not bijective on morphisms")
    return problems


class AssociatorResult(NamedTuple):
    iso: IsoPair
    p_xy: SemidirectProduct
    p_yz: SemidirectProduct


def associator(x: DiagramInCat, y: DiagramInCat, z: DiagramInCat,
               products: Products):
    """The rebracketing isomorphism (X⋉Y)⋉Z -> X⋉(Y⋉Z), with the problems
    ``_verify_iso`` finds in ``iso.problems``.

    The object formula is currying: ((d, psi), chi) goes to (d, a -> (psi(a),
    chi restricted to the pairs over a)).  The four products come from
    ``products`` in the order X⋉Y, (X⋉Y)⋉Z, Y⋉Z, X⋉(Y⋉Z).
    """
    p_xy = products(x, y)
    p_xy_z = products(p_xy.diagram, z)
    p_yz = products(y, z)
    p_x_yz = products(x, p_yz.diagram)

    omap, mmap = {}, {}
    curried = {}
    for oid in p_xy_z.diagram.base.objects:
        d1, chi = p_xy_z.obj_data[oid]
        d, psi = p_xy.obj_data[d1]
        fib_xy = p_xy.fibers[d1]
        xi = Functor(x.fiber_obj[d], p_yz.diagram.base,
                     *_curry(fib_xy, psi, chi, y, p_yz.obj_id, p_yz.mor_id))
        curried[oid] = (psi, fib_xy, xi)
        omap[oid] = p_x_yz.obj_id[(d, functor_key(xi))]
    for mid in p_xy_z.diagram.base.mor_ids:
        f1, theta = p_xy_z.mor_data[mid]
        f, phi = p_xy.mor_data[f1]
        s1 = p_xy_z.diagram.base.src[mid]
        t1 = p_xy_z.diagram.base.tgt[mid]
        psi, fib_xy, xi = curried[s1]
        xi2 = curried[t1][2]
        comps = _curry_theta(fib_xy, psi, y, phi, x.fiber_mor[f], theta,
                             xi.omap, xi2.omap, p_yz.mor_id)
        mmap[mid] = p_x_yz.mor_id[(omap[s1], omap[t1], f, comps)]
    base_fwd = Functor(p_xy_z.diagram.base, p_x_yz.diagram.base, omap, mmap)

    rho_fwd = {}
    for oid in p_xy_z.diagram.base.objects:
        psi, fib_xy, xi = curried[oid]
        src_fib = p_x_yz.fibers[omap[oid]]       # pairs (a, (b, c))
        tgt_fib = p_xy_z.fibers[oid]             # pairs ((a, b), c)
        fiber_d = psi.src
        fomap, fmmap = {}, {}
        for pid, (a, byz) in src_fib.obj_data.items():
            inner = p_yz.fibers[xi.omap[a]]
            bb, cc = inner.obj_data[byz]
            fomap[pid] = tgt_fib.obj_id[(fib_xy.obj_id[(a, bb)], cc)]
        for qid, (alpha, byz1, bmor) in src_fib.mor_data.items():
            a1, a2 = fiber_d.src[alpha], fiber_d.tgt[alpha]
            inner1 = p_yz.fibers[xi.omap[a1]]
            inner2 = p_yz.fibers[xi.omap[a2]]
            b1, c1 = inner1.obj_data[byz1]
            beta, _, gamma = inner2.mor_data[bmor]
            fmmap[qid] = tgt_fib.mor_id[(fib_xy.mor_id[(alpha, b1, beta)], c1, gamma)]
        rho_fwd[oid] = Functor(src_fib.cat, tgt_fib.cat, fomap, fmmap)

    forward = DiagramMorphism(p_xy_z.diagram, p_x_yz.diagram, base_fwd, rho_fwd,
                              name="assoc")
    iso = IsoPair(forward, _verify_iso(forward))
    return AssociatorResult(iso, p_xy, p_yz)


def _chi_along(fib, psi, chi, y, alpha, b):
    """chi on the pair morphism (alpha, b, id): the component at b of the
    curried functor on alpha."""
    tb = y.fiber_mor[psi.mmap[alpha]].omap[b]
    fib_y2 = y.fiber_obj[psi.omap[psi.src.tgt[alpha]]]
    return chi.mmap[fib.mor_id[(alpha, b, fib_y2.identity(tb))]]


def _curry(fib, psi, chi, y, obj_id, mor_id):
    """Curry chi: a -> (psi(a), chi restricted to the pairs over a).

    ``fib`` is the pair category over (d, psi), ``chi`` a functor out of it,
    and ``obj_id``/``mor_id`` are the id lookups of the product Y ⋉ Z the
    curried functor lands in.  Returns its object and morphism maps, or
    None when that (possibly restricted) product lacks an id.
    """
    fiber_d = psi.src
    omap, mmap = {}, {}
    for a in fiber_d.objects:
        fib_y = y.fiber_obj[psi.omap[a]]
        key = (tuple(chi.omap[fib.obj_id[(a, b)]] for b in fib_y.objects),
               tuple(chi.mmap[fib.mor_id[(fiber_d.identity(a), fib_y.src[m], m)]]
                     for m in fib_y.mor_ids))
        omap[a] = obj_id.get((psi.omap[a], key))
        if omap[a] is None:
            return None
    for alpha in fiber_d.mor_ids:
        a1, a2 = fiber_d.src[alpha], fiber_d.tgt[alpha]
        comps = tuple(_chi_along(fib, psi, chi, y, alpha, b)
                      for b in y.fiber_obj[psi.omap[a1]].objects)
        mmap[alpha] = mor_id.get((omap[a1], omap[a2], psi.mmap[alpha], comps))
        if mmap[alpha] is None:
            return None
    return omap, mmap


def _curry_theta(fib, psi, y, phi, rf, theta, xi1, xi2, mor_id):
    """Curry a morphism (f, phi) with components theta out of the pair
    category ``fib`` over (d, psi): at a, the pair (phi_a, theta over a)
    from xi1(a) to xi2(f a), with ``rf`` the fiber map of f.  Returns the
    product morphism ids in the order of the fiber over d, or None when
    ``mor_id`` lacks one."""
    comps = []
    for a in psi.src.objects:
        theta_a = tuple(theta.components[fib.obj_id[(a, b)]]
                        for b in y.fiber_obj[psi.omap[a]].objects)
        comp = mor_id.get((xi1[a], xi2[rf.omap[a]], phi.components[a], theta_a))
        if comp is None:
            return None
        comps.append(comp)
    return tuple(comps)


# ---------------------------------------------------------------------------
# unitors

def right_unitor(x: DiagramInCat, products: Products):
    """The isomorphism X ⋉ 1 -> X and the problems ``_verify_iso`` finds in
    it, out of ``products(x, products.unit)``."""
    p = products(x, products.unit)
    one = terminal_category()
    omap, mmap = {}, {}
    for oid, (d, psi) in p.obj_data.items():
        omap[oid] = d
    for mid, (f, phi) in p.mor_data.items():
        mmap[mid] = f
    base_fwd = Functor(p.diagram.base, x.base, omap, mmap)
    rho_fwd = {}
    for oid, (d, psi) in p.obj_data.items():
        fib = p.fibers[oid]
        fiber_d = x.fiber_obj[d]
        fomap = {a: fib.obj_id[(a, "*")] for a in fiber_d.objects}
        fmmap = {alpha: fib.mor_id[(alpha, "*", one.identity("*"))]
                 for alpha in fiber_d.mor_ids}
        rho_fwd[oid] = Functor(fiber_d, fib.cat, fomap, fmmap)
    forward = DiagramMorphism(p.diagram, x, base_fwd, rho_fwd, name="runit")
    return IsoPair(forward, _verify_iso(forward))


def left_unitor(x: DiagramInCat, products: Products):
    """The isomorphism 1 ⋉ X -> X and the problems ``_verify_iso`` finds in
    it, out of ``products(products.unit, x)``."""
    p = products(products.unit, x)
    one = terminal_category()
    omap, mmap = {}, {}
    for oid, (star, psi) in p.obj_data.items():
        omap[oid] = psi.omap["*"]
    for mid, (f, phi) in p.mor_data.items():
        mmap[mid] = phi.components["*"]
    base_fwd = Functor(p.diagram.base, x.base, omap, mmap)
    rho_fwd = {}
    for oid, (star, psi) in p.obj_data.items():
        fib = p.fibers[oid]
        d = psi.omap["*"]
        fiber_d = x.fiber_obj[d]
        fomap = {b: fib.obj_id[("*", b)] for b in fiber_d.objects}
        fmmap = {beta: fib.mor_id[(one.identity("*"), fiber_d.src[beta], beta)]
                 for beta in fiber_d.mor_ids}
        rho_fwd[oid] = Functor(fiber_d, fib.cat, fomap, fmmap)
    forward = DiagramMorphism(p.diagram, x, base_fwd, rho_fwd, name="lunit")
    return IsoPair(forward, _verify_iso(forward))


def unitors(x: DiagramInCat, products: Products):
    """Both unit isomorphisms (left, right), each with its problems."""
    return left_unitor(x, products), right_unitor(x, products)


# ---------------------------------------------------------------------------
# coherence identities

def triangle_check(x: DiagramInCat, y: DiagramInCat, products: Products):
    """(id_X ⋉ lunit_Y) ∘ assoc = runit_X ⋉ id_Y as maps (X⋉1)⋉Y -> X⋉Y."""
    assoc = associator(x, products.unit, y, products)
    lu = left_unitor(y, products)
    ru = right_unitor(x, products)
    if assoc.iso.problems or lu.problems or ru.problems:
        return False
    left_path = compose_diagram_morphisms(
        semidirect_on_morphisms(identity_diagram_morphism(x), lu.forward, products),
        assoc.iso.forward)
    right_path = semidirect_on_morphisms(
        ru.forward, identity_diagram_morphism(y), products)
    return diagram_morphism_equal(left_path, right_path)


def pentagon_check(a_wxy: AssociatorResult, z: DiagramInCat, products: Products):
    """The two rebracketing paths ((W⋉X)⋉Y)⋉Z -> W⋉(X⋉(Y⋉Z)) agree.

    ``a_wxy`` is ``associator(w, x, y, products)``, already verified
    invertible by that call; W, X and Y are read from its products, so only
    the products involving Z are built here, ((W⋉X)⋉Y)⋉Z first.
    """
    w, x, y = a_wxy.p_xy.left, a_wxy.p_xy.right, a_wxy.p_yz.right
    a_wx_y_z = associator(a_wxy.p_xy.diagram, y, z, products)
    a_xyz = associator(x, y, z, products)
    a_w_xy_z = associator(w, a_wxy.p_yz.diagram, z, products)
    a_w_x_yz = associator(w, x, a_wx_y_z.p_yz.diagram, products)
    if any(a.iso.problems for a in (a_wxy, a_wx_y_z, a_xyz, a_w_xy_z, a_w_x_yz)):
        return False

    path1 = compose_diagram_morphisms(a_w_x_yz.iso.forward, a_wx_y_z.iso.forward)
    step1 = semidirect_on_morphisms(a_wxy.iso.forward,
                                    identity_diagram_morphism(z), products)
    step3 = semidirect_on_morphisms(identity_diagram_morphism(w),
                                    a_xyz.iso.forward, products)
    path2 = compose_diagram_morphisms(
        step3, compose_diagram_morphisms(a_w_xy_z.iso.forward, step1))
    return diagram_morphism_equal(path1, path2)


# ---------------------------------------------------------------------------
# clubs: monoids for the semidirect product

class ClubStructure(NamedTuple):
    """A carrier diagram with multiplication and unit morphisms.

    ``product`` is the (possibly truncated) C ⋉ C the multiplication is
    defined on; ``mu`` maps its diagram to the carrier, the target of
    ``mu``, and ``eta`` maps the unit diagram to the carrier.  ``cap`` is the
    arity bound of a club built from an operad, which its carrier cannot
    show when the top levels are empty; None for other clubs.
    """

    product: SemidirectProduct
    mu: DiagramMorphism
    eta: DiagramMorphism
    cap: int | None = None

    @property
    def carrier(self) -> DiagramInCat:
        return self.mu.tgt


def trivial_club():
    """The one-object club: carrier the unit diagram, multiplication the unitor."""
    products = Products()
    u = products.unit
    return ClubStructure(products(u, u), left_unitor(u, products).forward,
                         identity_diagram_morphism(u))


def club_check(s: ClubStructure, guard: Guardrails = DEFAULT_GUARDRAILS,
               stop_early=False):
    """Exhaustively check the monoid axioms for a club structure.

    Verifies that mu and eta are valid diagram morphisms, that both unit
    laws hold on the carrier C (mu after the unit on either side is the
    identification 1 ⋉ C ≅ C ≅ C ⋉ 1), and that the two evaluation orders
    through the rebracketing isomorphism agree on every object, morphism
    and fiber component of the (truncated) triple product.  Returns a list
    of failure descriptions; empty means the axioms hold.
    """
    report = []

    def note(msg):
        report.append(msg)
        return stop_early

    c = s.carrier
    bad = validate_diagram(c)
    if bad:
        return [f"carrier: {r}" for r in bad]
    bad = validate_diagram_morphism(s.mu)
    if bad:
        report.extend(f"mu: {r}" for r in bad)
    bad = validate_diagram_morphism(s.eta)
    if bad:
        report.extend(f"eta: {r}" for r in bad)
    if report:
        return report
    if len(s.eta.src.base.objects) != 1 or len(s.eta.src.base.mor_ids) != 1:
        return ["eta does not start at the unit diagram"]
    if s.eta.tgt is not c:
        return ["eta does not land in the carrier"]
    if s.mu.src is not s.product.diagram:
        return ["mu does not start at the product"]
    p = s.product
    mu, eta = s.mu, s.eta
    e_obj = eta.base_functor.omap["*"]

    # --- unit laws ------------------------------------------------------
    if _unit_laws(s, p, note, e_obj) and stop_early:
        return report

    # --- associativity --------------------------------------------------
    over = {}   # product object -> (_ChiEnd, chi) per functor chi out of its fiber
    for oid1 in p.diagram.base.objects:
        b1 = mu.base_functor.omap[oid1]
        rho1 = mu.rho[oid1]
        over[oid1] = []
        for chi in enumerate_functors(p.fibers[oid1].cat, c.base, guard):
            lhs_oid2 = _route_left(s, p, b1, rho1, chi)
            right = _route_right(s, p, oid1, chi)
            over[oid1].append((_ChiEnd(lhs_oid2, right), chi))
            if (lhs_oid2 is None) != (right is None):
                if note(f"associativity domain mismatch at "
                        f"{_object_where(p, oid1, chi)}: "
                        f"left defined={lhs_oid2 is not None}, "
                        f"right defined={right is not None}"):
                    return report
                continue
            if lhs_oid2 is None:
                continue
            xi_oids, oid_out = right
            lhs = mu.base_functor.omap[lhs_oid2]
            rhs = mu.base_functor.omap[oid_out]
            if lhs != rhs:
                if note(f"associativity fails on base objects at "
                        f"{_object_where(p, oid1, chi)}: "
                        f"{lhs!r} != {rhs!r}"):
                    return report
                continue
            fails = _rho_route_compare(s, p, oid1, lhs_oid2, rho1, lhs,
                                       xi_oids, oid_out)
            for msg in fails:
                if note(f"associativity fails on fiber components at "
                        f"{_object_where(p, oid1, chi)}: {msg}"):
                    return report
    # morphism-level associativity: theta runs over the morphisms of P ⋉ C
    for mid, end1, end2, theta in _product_morphisms(p.diagram, c.base, over):
        msg = _assoc_single_morphism(s, p, mid, end1, end2, theta)
        if msg is not None and note(msg):
            return report
    return report


def _object_where(p, oid, chi):
    """Where an object-level associativity check failed, built only for a
    failure."""
    return f"object ({p.describe_object(oid)}, chi={functor_key(chi)})"


def _unit_laws(s, p, note, e_obj):
    """Both unit laws, read from the carrier's own tables; returns True when
    ``note`` asks to stop.

    mu after eta ⋉ 1 must be the identification 1 ⋉ C ≅ C, and mu after
    1 ⋉ eta the identification C ⋉ 1 ≅ C.  Those products list their
    objects and morphisms as C's objects and its morphisms by source and
    target, so each side walks C in that order and builds nothing.
    """
    c = s.carrier
    id_e = c.base.identity(e_obj)
    fiber_e = c.fiber_obj[e_obj]

    def constant_key(fiber, value):
        return (tuple(value for _ in fiber.objects),
                tuple(c.base.identity(value) for _ in fiber.mor_ids))

    # left unit: y is reached at (e, const y), and the fiber over y is read
    # off the second component of each pair (a pair morphism's second
    # component starts at its source's, since C sends id_y to the identity);
    # right unit: d is reached at (d, const e), read off the first component
    return (_unit_half(s.mu, p, c, note, "left",
                       lambda y: (e_obj, constant_key(fiber_e, y)),
                       lambda g: (id_e, tuple(g for _ in fiber_e.objects)),
                       lambda a, b: b, lambda alpha, b1, beta: beta)
            or _unit_half(s.mu, p, c, note, "right",
                          lambda d: (d, constant_key(c.fiber_obj[d], e_obj)),
                          lambda f: (f, tuple(id_e for _ in
                                              c.fiber_obj[c.base.src[f]].objects)),
                          lambda a, b: a, lambda alpha, b1, beta: alpha))


def _unit_half(mu, p, c, note, side, obj_key, mor_key, read_obj, read_mor):
    """mu after inserting the unit on one side must send each object and
    morphism of the carrier ``c`` back to itself, and its rho must send each
    fiber object and morphism back to a pair that ``read_obj`` and
    ``read_mor`` read as it.  ``obj_key`` and ``mor_key`` send an object or
    morphism of ``c`` to the key the unit inclusion reaches in ``p``.
    Returns True when ``note`` asks to stop."""
    img_of = {}
    for want in c.base.objects:
        img = img_of[want] = p.obj_id.get(obj_key(want))
        if img is None:
            if note(f"{side} unit composite leaves the domain at {want!r}"):
                return True
            continue
        got = mu.base_functor.omap[img]
        if got != want:
            if note(f"{side} unit law fails on object {want!r}: mu gives {got!r}"):
                return True
        # rho_mu starts at the fiber over mu's object, which the fiber over
        # the expected object misses where the object law fails
        rho_mu = mu.rho[img]
        fib_img = p.fibers[img]
        fiber = c.fiber_obj[want]
        for b in fiber.objects:
            pid = rho_mu.omap.get(b)
            if pid is None or read_obj(*fib_img.obj_data[pid]) != b:
                if note(f"{side} unit law fails on fiber object {b!r} over {want!r}"):
                    return True
        for m in fiber.mor_ids:
            qid = rho_mu.mmap.get(m)
            if qid is None or read_mor(*fib_img.mor_data[qid]) != m:
                if note(f"{side} unit law fails on fiber morphism {m!r} over {want!r}"):
                    return True
    for y1 in c.base.objects:
        for y2 in c.base.objects:
            if img_of[y1] is None or img_of[y2] is None:
                continue
            for want in c.base.hom_set(y1, y2):
                img_mor = p.mor_id.get((img_of[y1], img_of[y2], *mor_key(want)))
                if img_mor is None:
                    if note(f"{side} unit composite morphism leaves the domain "
                            f"at {want!r}"):
                        return True
                    continue
                if mu.base_functor.mmap[img_mor] != want:
                    if note(f"{side} unit law fails on morphism {want!r}"):
                        return True
    return False


def _route_left(s, p, b1, rho1, chi):
    """mu(mu ⋉ id): transport chi along mu's fiber component, then multiply.

    Returns the product object the outer mu is applied to, or None when the
    domain lacks it.
    """
    fiber_b1 = s.carrier.fiber_obj[b1]
    omap = tuple(chi.omap[rho1.omap[a]] for a in fiber_b1.objects)
    mmap = tuple(chi.mmap[rho1.mmap[m]] for m in fiber_b1.mor_ids)
    return p.obj_id.get((b1, (omap, mmap)))


def _route_right(s, p, oid1, chi):
    """mu(id ⋉ mu) through currying: multiply each curried fiber, then the outer.

    Returns (the curried functor's object map, the product object the outer
    mu is applied to), or None when the domain lacks an id on the way.
    """
    d, psi = p.obj_data[oid1]
    curried = _curry(p.fibers[oid1], psi, chi, s.carrier, p.obj_id, p.mor_id)
    if curried is None:
        return None
    xi_omap, xi_mmap = curried
    mu_base = s.mu.base_functor
    omega = (tuple(mu_base.omap[xi_omap[a]] for a in psi.src.objects),
             tuple(mu_base.mmap[xi_mmap[m]] for m in psi.src.mor_ids))
    oid_out = p.obj_id.get((d, omega))
    if oid_out is None:
        return None
    return xi_omap, oid_out


def _rho_route_compare(s, p, oid1, oid2, rho1, b_final, xi_oids, oid_out):
    """Compare the two composite fiber components as maps into the triple fiber.

    ``oid2`` and ``oid_out`` are the objects the outer mu is applied to on
    the left and the right route.  Both sides are expressed as raw key
    tuples ((pair-id, c) and (pair-morphism-id, c, gamma)) so no triple
    fiber is materialized.
    """
    c = s.carrier
    fails = []
    fib2 = p.fibers[oid2]
    rho_mu2 = s.mu.rho[oid2]
    fib_out = p.fibers[oid_out]
    rho_mu_out = s.mu.rho[oid_out]
    fiber_d = p.obj_data[oid1][1].src
    fiber_final = c.fiber_obj[b_final]
    for xobj in fiber_final.objects:
        ap, cp = fib2.obj_data[rho_mu2.omap[xobj]]
        lhs = (rho1.omap[ap], cp)
        a, q = fib_out.obj_data[rho_mu_out.omap[xobj]]
        inner_fib = p.fibers[xi_oids[a]]
        bq, cq = inner_fib.obj_data[s.mu.rho[xi_oids[a]].omap[q]]
        rhs = (p.fibers[oid1].obj_id[(a, bq)], cq)
        if lhs != rhs:
            fails.append(f"fiber object {xobj!r}: {lhs!r} != {rhs!r}")
    for xmor in fiber_final.mor_ids:
        alpha2, c1p, gammap = fib2.mor_data[rho_mu2.mmap[xmor]]
        lhs = (rho1.mmap[alpha2], c1p, gammap)
        alpha, q1, betaq = fib_out.mor_data[rho_mu_out.mmap[xmor]]
        a1, a2 = fiber_d.src[alpha], fiber_d.tgt[alpha]
        inner1 = p.fibers[xi_oids[a1]]
        inner2 = p.fibers[xi_oids[a2]]
        b1q, c1q = inner1.obj_data[s.mu.rho[xi_oids[a1]].omap[q1]]
        beta, _, gamma = inner2.mor_data[s.mu.rho[xi_oids[a2]].mmap[betaq]]
        rhs = (p.fibers[oid1].mor_id[(alpha, b1q, beta)], c1q, gamma)
        if lhs != rhs:
            fails.append(f"fiber morphism {xmor!r}: {lhs!r} != {rhs!r}")
    return fails


class _ChiEnd(NamedTuple):
    """The two routes of a functor chi out of the fiber over a product
    object: ``left`` as from ``_route_left`` and ``right`` as from
    ``_route_right``.  ``over`` pairs each end with its chi."""

    left: object
    right: object


def _assoc_single_morphism(s, p, mid, end1, end2, theta):
    """Both routes on theta: chi1 => chi2 ∘ transport over ``mid``, chi1
    and chi2 the functors of ``end1`` and ``end2``; the failure message, or
    None."""
    c = s.carrier
    mu = s.mu
    oid1 = p.diagram.base.src[mid]
    f, phi = p.mor_data[mid]
    b1 = mu.base_functor.omap[oid1]
    rho1 = mu.rho[oid1]

    # left route: transport theta along mu's fiber components, multiply
    lhs = None
    if end1.left is not None and end2.left is not None:
        fiber_b1 = c.fiber_obj[b1]
        comps = tuple(theta.components[rho1.omap[a]] for a in fiber_b1.objects)
        mid2 = p.mor_id.get((end1.left, end2.left, mu.base_functor.mmap[mid], comps))
        if mid2 is not None:
            lhs = mu.base_functor.mmap[mid2]

    # right route: curried components, inner multiplication, outer lookup
    rhs = None
    if end1.right is not None and end2.right is not None:
        (xi1, out1), (xi2, out2) = end1.right, end2.right
        inner = _curry_theta(p.fibers[oid1], p.obj_data[oid1][1], c, phi,
                             c.fiber_mor[f], theta, xi1, xi2, p.mor_id)
        if inner is not None:
            outer = p.mor_id.get((out1, out2, f,
                                  tuple(mu.base_functor.mmap[m] for m in inner)))
            if outer is not None:
                rhs = mu.base_functor.mmap[outer]
    if lhs == rhs:
        return None
    where = f"morphism {mid!r} with theta={tuple(sorted(theta.components.items()))!r}"
    if (lhs is None) != (rhs is None):
        return f"associativity domain mismatch at {where}"
    return f"associativity fails on base morphisms at {where}: {lhs!r} != {rhs!r}"
