"""Seeded random fixtures: small diagrams, operads, families and morphisms.

Everything draws from an explicit random.Random instance, so identical seeds
reproduce identical fixtures; generators resample when a candidate would
exceed the requested size budget.
"""

from __future__ import annotations

import random

from .config import DEFAULT_GUARDRAILS
from .diagram import DiagramInCat
from .errors import GuardrailExceeded
from .fincat import (FinCategory, compose_functors, discrete_category,
                     enumerate_functors, identity_functor, walking_arrow)
from .operads import (NsOperad, _composable_tuples, associative_operad,
                      cyclic_group_operad, free_operad, monoid_operad,
                      Collection, validate_ns_operad)
from .semidirect import Products
from .simpset import (SimplicialMap, SimplicialSet, apply_operator, boundary,
                      compose_smaps, degeneracy_map, disjoint_union,
                      identity_smap, nondeg, one_point, standard_simplex)
from .sset_club import (ClubMorphismSSet, ClubObjectFamily, SimplexFamily,
                        constant_family, constant_two_level,
                        identity_club_morphism)


# ---------------------------------------------------------------------------
# base categories and diagrams

def chain_category(names):
    """A linear poset: one morphism between consecutive and composed objects."""
    objects = list(names)
    morphisms = [(f"id_{x}", x, x) for x in objects]
    identities = {x: f"id_{x}" for x in objects}
    arrows = {}
    for i in range(len(objects)):
        for j in range(i + 1, len(objects)):
            mid = f"le_{objects[i]}_{objects[j]}"
            morphisms.append((mid, objects[i], objects[j]))
            arrows[(i, j)] = mid
    comp = {}
    full = {(i, i): identities[objects[i]] for i in range(len(objects))}
    full.update({k: v for k, v in arrows.items()})
    for (i, j), m1 in full.items():
        for (j2, k), m2 in full.items():
            if j2 == j:
                comp[(m2, m1)] = full[(i, k)]
    return FinCategory(objects, morphisms, identities, comp, name="chain")


def vee_category(kind):
    """A three-object poset shaped like a span or a cospan."""
    if kind == "span":
        morphisms = [("id_a", "a", "a"), ("id_b", "b", "b"), ("id_c", "c", "c"),
                     ("l", "a", "b"), ("r", "a", "c")]
    else:
        morphisms = [("id_a", "a", "a"), ("id_b", "b", "b"), ("id_c", "c", "c"),
                     ("l", "a", "c"), ("r", "b", "c")]
    identities = {x: f"id_{x}" for x in ["a", "b", "c"]}
    comp = {}
    for (m, s, t) in morphisms:
        comp[(identities[t], m)] = m
        comp[(m, identities[s])] = m
    comp[("id_a", "id_a")] = "id_a"
    comp[("id_b", "id_b")] = "id_b"
    comp[("id_c", "id_c")] = "id_c"
    return FinCategory(["a", "b", "c"], morphisms, identities, comp, name=kind)


def random_base(rng: random.Random):
    """A thin base of at most three objects."""
    roll = rng.random()
    if roll < 0.35:
        return discrete_category([f"d{i}" for i in range(rng.randint(1, 3))])
    if roll < 0.6:
        return walking_arrow()
    if roll < 0.8:
        return vee_category(rng.choice(["span", "cospan"]))
    return chain_category([f"c{i}" for i in range(rng.randint(2, 3))])


def random_fiber(rng: random.Random):
    """The walking arrow, or a discrete category of at most three objects."""
    if rng.random() < 0.15:
        return walking_arrow()
    n = rng.choice([0, 1, 1, 1, 2, 2, 3])
    return discrete_category([f"f{i}" for i in range(n)])


def random_diagram(rng: random.Random, name="rand"):
    """A small valid diagram: thin base, random fibers, coherent fiber maps.

    Fiber functors are chosen on the covering arrows and composed along the
    unique paths of the thin base, so functoriality holds by construction.
    """
    base = random_base(rng)
    fibers = {d: random_fiber(rng) for d in base.objects}
    fiber_mor = {}
    for d in base.objects:
        fiber_mor[base.identity(d)] = identity_functor(fibers[d])
    # choose functors for non-identity arrows; thin bases have at most one
    # morphism per ordered pair, and composites are filled transitively
    nonid = base.nonidentity_morphisms()
    direct = {}
    for m in nonid:
        s, t = base.src[m], base.tgt[m]
        cands = enumerate_functors(fibers[s], fibers[t])
        if not cands:
            return random_diagram(rng, name)
        direct[m] = cands
    chosen = {}
    forced = {}
    for (g, f), gf in base.comp.items():
        if gf in nonid and not base.is_identity(g) and not base.is_identity(f):
            forced[gf] = (g, f)
    for m in nonid:
        if m in forced:
            continue
        chosen[m] = rng.choice(direct[m])
    for m, (g, f) in forced.items():
        chosen[m] = compose_functors(chosen[g], chosen[f])
    fiber_mor.update(chosen)
    return DiagramInCat(base, fibers, fiber_mor, name=name)


def _predicted_product_objects(fibers, target: FinCategory):
    """The number of objects of a product whose left fibers are ``fibers``
    and whose right base is ``target``."""
    return sum(len(enumerate_functors(fiber, target)) for fiber in fibers)


def _max_fiber_morphisms(fibers):
    return max((len(fiber.mor_ids) for fiber in fibers), default=0)


def _fibers(d: DiagramInCat):
    return [d.fiber_obj[o] for o in d.base.objects]


def random_triple(rng: random.Random):
    """Three random diagrams whose three-fold products have at most 150
    objects, from at most 80 draws, and their ``Products`` with X⋉Y, Y⋉Z.

    Checks the intermediate pair fibers against the fiber guardrail so the
    three-fold products on both sides are constructible.  Every filter is a
    function of the three diagrams and draws nothing, so their order decides
    only the cost of a rejected try: the cheap ones run first.  In order:
    the object count of X⋉Y; the fibers of X⋉Y against the bound on the
    fibers of (X⋉Y)⋉Z; the fibers of Y⋉Z against theirs and the bound on
    the fibers of X⋉(Y⋉Z); the object counts of both three-fold products;
    the morphism counts of X⋉Y and Y⋉Z.  The fibers and products are those
    of the try's ``Products``, each built once, and only as far as the
    filters reached so far need it.
    """
    bound = DEFAULT_GUARDRAILS.max_fiber_morphisms
    for _ in range(80):
        x = random_diagram(rng, name="X")
        y = random_diagram(rng, name="Y")
        z = random_diagram(rng, name="Z")
        if _predicted_product_objects(_fibers(x), y.base) > 40:
            continue
        products = Products()
        try:
            fib_xy = [f.cat for f in products.fibers(x, y).values()]
            # the factor is at least 1, so this bounds X⋉Y's fibers too
            if (_max_fiber_morphisms(fib_xy)
                    * max(1, _max_fiber_morphisms(_fibers(z))) > bound):
                continue
            fib_yz = [f.cat for f in products.fibers(y, z).values()]
            if (_max_fiber_morphisms(fib_yz) > bound
                    or _max_fiber_morphisms(_fibers(x))
                    * max(1, _max_fiber_morphisms(fib_yz)) > bound):
                continue
            if _predicted_product_objects(fib_xy, z.base) > 150:
                continue
            base_yz = products(y, z).diagram.base
            if _predicted_product_objects(_fibers(x), base_yz) > 150:
                continue
        except GuardrailExceeded:
            continue
        if (len(products(x, y).diagram.base.mor_ids) > 300
                or len(base_yz.mor_ids) > 300):
            continue
        return x, y, z, products
    raise GuardrailExceeded("no triple fit the size budget")


def random_tiny_diagram(rng: random.Random, name="W"):
    """A one-object diagram with a singleton or empty fiber: a safe fourth
    factor for the five-term coherence identity."""
    base = discrete_category(["w0"])
    fibers = {"w0": discrete_category(["wf0"] if rng.random() < 0.8 else [])}
    fiber_mor = {base.identity("w0"): identity_functor(fibers["w0"])}
    return DiagramInCat(base, fibers, fiber_mor, name=name)


# ---------------------------------------------------------------------------
# operads and collections

def boolean_and_operad():
    return monoid_operad({"0": {"0": "0", "1": "0"}, "1": {"0": "0", "1": "1"}},
                         "1", name="bool-and")


def idempotent_monoid_operad():
    return monoid_operad({"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "a"}},
                         "e", name="idem")


def singleton_arity_operad(arities, cap, name="levels"):
    """Singleton levels on an arity set closed under in-cap composition."""
    levels = {n: [f"u{n}"] for n in arities if n <= cap}
    op = NsOperad(cap, levels, f"u1", {}, name=name)
    gamma = {}
    for (p, args) in _composable_tuples(op):
        total = sum(op.arity_of(q) for q in args)
        if total not in levels:
            return None
        gamma[(p, args)] = f"u{total}"
    return NsOperad(cap, levels, "u1", gamma, name=name)


def random_operad(rng: random.Random):
    pool = []
    pool.append(lambda: associative_operad(rng.choice([2, 3, 4]),
                                           with_nullary=rng.random() < 0.5))
    pool.append(lambda: free_operad({2: ["g"]}, rng.choice([3, 4])))
    pool.append(lambda: free_operad({2: ["g"], 3: ["t"]}, 3))
    pool.append(lambda: cyclic_group_operad(rng.choice([2, 3])))
    pool.append(boolean_and_operad)
    pool.append(idempotent_monoid_operad)
    pool.append(lambda: singleton_arity_operad([1, 2, 3], 3))
    pool.append(lambda: singleton_arity_operad([1, 3], 4))
    while True:
        op = rng.choice(pool)()
        if op is not None:
            return op


def random_collection(rng: random.Random):
    cap = rng.choice([2, 3, 4])
    levels = {n: [f"x{n}{i}" for i in range(rng.randint(0, 2))]
              for n in range(cap + 1)}
    return Collection(cap, levels)


def law_breaking_mutations(rng: random.Random, op: NsOperad, count):
    """Single-entry corruptions of gamma that break the operad laws.

    Each mutation replaces one composition result with a different element;
    candidates that happen to form another valid operad are discarded, so
    every returned table genuinely violates a law.
    """
    out = []
    keys = sorted(op.gamma)
    all_elems = [e for n in range(op.cap + 1) for e in op.levels[n]]
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        key = keys[rng.randrange(len(keys))]
        current = op.gamma[key]
        alternatives = [e for e in all_elems if e != current]
        if not alternatives:
            continue
        replacement = alternatives[rng.randrange(len(alternatives))]
        gamma = dict(op.gamma)
        gamma[key] = replacement
        mutant = NsOperad(op.cap, op.levels, op.unit, gamma,
                          name=f"{op.name}-mut")
        if validate_ns_operad(mutant):
            out.append((key, replacement, mutant))
    return out


# ---------------------------------------------------------------------------
# simplicial families

def _vertex_function_map(a: SimplicialSet, b: SimplicialSet, fn):
    """A map given by a vertex function: each k-simplex ``x`` of ``a`` goes
    to the totally degenerate k-simplex on ``fn(x)``.  It is simplicial when
    ``a`` is discrete or ``fn`` is constant."""
    images = {}
    for x, k in a.listing():
        nf = nondeg(fn(x), 0)
        for j in range(k):
            nf = apply_operator(b, nf, degeneracy_map(j, 0))
        images[x] = nf
    return SimplicialMap(a, b, images)


def discrete_sset(trunc, n, prefix="e"):
    """n disjoint points with predictable vertex ids."""
    nondeg_by_dim = {0: [f"{prefix}{i}" for i in range(n)]}
    return SimplicialSet(trunc, nondeg_by_dim, {}, name=f"{prefix}{n}pts")


def sset_pool(rng: random.Random, trunc):
    roll = rng.random()
    if roll < 0.3:
        return one_point(trunc)
    if roll < 0.55:
        return standard_simplex(1, trunc)
    if roll < 0.7:
        return disjoint_union(one_point(trunc), one_point(trunc))
    if roll < 0.85:
        return boundary(2, trunc)
    return standard_simplex(2, trunc)


def base_pool(rng: random.Random, trunc):
    roll = rng.random()
    if roll < 0.4:
        return standard_simplex(1, trunc)
    if roll < 0.6:
        return standard_simplex(0, trunc)
    if roll < 0.8:
        return boundary(2, trunc)
    return standard_simplex(2, trunc)


def _minv(simplex_id):
    """The least vertex of a simplex of a subset-named base."""
    return int(simplex_id[0])


def _chain_step(chain, steps, i, j):
    """The composite of ``steps`` from level i to level j of ``chain``; levels
    past the end are the last one."""
    i, j = min(i, len(chain) - 1), min(j, len(chain) - 1)
    m = identity_smap(chain[i])
    for l in range(i, j):
        m = compose_smaps(steps[l], m)
    return m


def minvertex_chain_family(s: SimplicialSet, chain, steps, name="minv"):
    """Values by least vertex over a subset-named base, maps along a chain."""
    values = {y: chain[min(_minv(y), len(chain) - 1)] for y, _ in s.listing()}
    face_maps = {(y, i): _chain_step(chain, steps, _minv(y), _minv(s.faces[y][i].base))
                 for y, i in s.face_slots()}
    return SimplexFamily(s, values, face_maps, name=name)


def random_chain(rng: random.Random, trunc, length=3, discrete=False):
    """A chain of small complexes with maps toward the end."""
    if discrete:
        sizes = [rng.randint(1, 3) for _ in range(length)]
        ssets = [discrete_sset(trunc, n, prefix=f"c{i}x")
                 for i, n in enumerate(sizes)]
        steps = []
        for i in range(length - 1):
            src, tgt = ssets[i], ssets[i + 1]
            tgt_vertices = tgt.nondeg[0]
            table = {v: tgt_vertices[rng.randrange(len(tgt_vertices))]
                     for v in src.nondeg[0]}
            steps.append(_vertex_function_map(src, tgt, lambda v, t=table: t[v]))
        return ssets, steps
    pt = one_point(trunc)
    first = sset_pool(rng, trunc)
    ssets = [first] + [pt] * (length - 1)
    steps = ([_vertex_function_map(first, pt, lambda v: "pt")]
             + [identity_smap(pt)] * (length - 2))
    return ssets, steps


def random_family(rng: random.Random, trunc):
    s = base_pool(rng, trunc)
    if rng.random() < 0.5:
        return constant_family(s, sset_pool(rng, trunc))
    chain, steps = random_chain(rng, trunc)
    return minvertex_chain_family(s, chain, steps)


def random_two_level(rng: random.Random, trunc, discrete=False):
    """A two-level family; with ``discrete`` the inner values are point sets."""
    s = base_pool(rng, trunc)
    if not discrete and rng.random() < 0.4:
        t = sset_pool(rng, trunc)
        u = sset_pool(rng, trunc)
        return constant_two_level(s, t, u)
    t = rng.choice([standard_simplex(1, trunc), standard_simplex(0, trunc)])
    chain, steps = random_chain(rng, trunc, length=4, discrete=discrete)
    chi, face_maps = {}, {}
    for y, _ in s.listing():
        o = min(_minv(y), len(chain) - 1)
        chi[y] = minvertex_chain_family(t, chain[o:], steps[o:], name=f"chi{y}")
    for y, i in s.face_slots():
        face = s.faces[y][i].base
        a, b = _minv(y), _minv(face)
        phi = {z: _chain_step(chain, steps, a + _minv(z), b + _minv(z))
               for z, _ in t.listing()}
        face_maps[(y, i)] = ClubMorphismSSet(chi[y], chi[face], identity_smap(t), phi)
    return ClubObjectFamily(s, chi, face_maps, name="rand2")


def random_stability_sample(rng: random.Random, trunc):
    """Morphisms of club objects exercising the stability checks."""
    roll = rng.random()
    if roll < 0.3:
        return identity_club_morphism(random_family(rng, trunc))
    s = base_pool(rng, trunc)
    if roll < 0.65:
        # identity base, constant families, a horn-lifting component:
        # discrete-to-point or an isomorphism
        if rng.random() < 0.5:
            t0 = discrete_sset(trunc, rng.randint(1, 3))
            t1 = one_point(trunc)
            comp = _vertex_function_map(t0, t1, lambda v: "pt")
        else:
            t0 = t1 = sset_pool(rng, trunc)
            comp = identity_smap(t0)
    else:
        # injective components over an inclusion-like base map
        t0 = one_point(trunc)
        t1 = rng.choice([standard_simplex(1, trunc), one_point(trunc)])
        comp = SimplicialMap(t0, t1, {"pt": nondeg(t1.nondeg[0][0], 0)})
    x = constant_family(s, t0)
    y = constant_family(s, t1)
    phi = {z: comp for z, _ in s.listing()}
    return ClubMorphismSSet(x, y, identity_smap(s), phi)
