"""Functor and natural-transformation helpers that only the tests use.

``constant_functor`` builds fixtures.  ``validate_nat_trans`` checks a
transformation, a dict of components, table by table and is the oracle for
``enumerate_nat_trans``.  ``reference_functor_search`` and
``reference_find_isomorphism`` are the functor search as the package had it
before, with an isomorphism mode that skips used and identity images and
objects of another profile; the tests compare the package's one search and
its isomorphism filter with them, answer for answer.
"""

from clubcat.fincat import FinCategory, Functor, fincat_equal


def constant_functor(c: FinCategory, d: FinCategory, obj):
    """The functor sending everything in c to obj and its identity."""
    i = d.identity(obj)
    return Functor(c, d, {x: obj for x in c.objects}, {m: i for m in c.mor_ids})


def validate_nat_trans(f: Functor, g: Functor, components):
    report = []
    if not (f.src is g.src or fincat_equal(f.src, g.src)):
        report.append("functors are not parallel (different sources)")
    if not (f.tgt is g.tgt or fincat_equal(f.tgt, g.tgt)):
        report.append("functors are not parallel (different targets)")
    if report:
        return report
    d = f.tgt
    for x in f.src.objects:
        comp = components.get(x)
        if comp is None:
            report.append(f"component missing at {x!r}")
        elif comp not in d.src:
            report.append(f"component at {x!r} is not a morphism")
        elif d.src[comp] != f.omap[x] or d.tgt[comp] != g.omap[x]:
            report.append(f"component at {x!r} has wrong endpoints")
    if report:
        return report
    for m in f.src.nonidentity_morphisms():
        x, y = f.src.src[m], f.src.tgt[m]
        if d.comp[(g.mmap[m], components[x])] != d.comp[(components[y], f.mmap[m])]:
            report.append(f"naturality square fails at {m!r}")
    return report


def reference_functor_search(c: FinCategory, d: FinCategory, bijective=False):
    """Yield every functor c -> d as ``(omap, mmap)`` dicts, reused between yields.

    Backtracks over object images in the object order of ``c`` and then of
    ``d``, then over non-identity morphism images in hom-set order, pruning
    with the functor laws as soon as a composition triple is fully assigned.
    With ``bijective`` only isomorphisms are yielded: objects go to unused
    objects of the same profile, non-identities to unused non-identities.
    """
    if bijective:
        if len(c.objects) != len(d.objects) or len(c.mor_ids) != len(d.mor_ids):
            return
        prof_c = {x: _object_profile(c, x) for x in c.objects}
        prof_d = {y: _object_profile(d, y) for y in d.objects}
        if sorted(prof_c.values()) != sorted(prof_d.values()):
            return
    nonid = c.nonidentity_morphisms()
    triples_by_mor = {m: [] for m in c.mor_ids}
    for (g, f), gf in c.comp.items():
        for m in {g, f, gf}:
            triples_by_mor[m].append((g, f, gf))
    omap, mmap = {}, {}
    used_obj, used_mor = set(), set()   # read only when bijective

    def consistent(m):
        for (g, f, gf) in triples_by_mor[m]:
            if g in mmap and f in mmap and gf in mmap:
                if mmap[gf] != d.comp[(mmap[g], mmap[f])]:
                    return False
        return True

    def assign_morphisms(i):
        if i == len(nonid):
            yield omap, mmap
            return
        m = nonid[i]
        for cand in d.hom_set(omap[c.src[m]], omap[c.tgt[m]]):
            if bijective and (cand in used_mor or d.is_identity(cand)):
                continue
            mmap[m] = cand
            used_mor.add(cand)
            if consistent(m):
                yield from assign_morphisms(i + 1)
            used_mor.discard(cand)
            del mmap[m]

    def assign_objects(i):
        if i == len(c.objects):
            for x in c.objects:
                mmap[c.identities[x]] = d.identities[omap[x]]
            if all(consistent(c.identities[x]) for x in c.objects):
                yield from assign_morphisms(0)
            return
        x = c.objects[i]
        for y in d.objects:
            if bijective and (y in used_obj or prof_c[x] != prof_d[y]):
                continue
            omap[x] = y
            used_obj.add(y)
            yield from assign_objects(i + 1)
            used_obj.discard(y)

    yield from assign_objects(0)


def _object_profile(c: FinCategory, x):
    ins = sum(1 for m in c.mor_ids if c.tgt[m] == x)
    outs = sum(1 for m in c.mor_ids if c.src[m] == x)
    endos = len(c.hom_set(x, x))
    return (ins, outs, endos)


def reference_find_isomorphism(c: FinCategory, d: FinCategory):
    """The first functor c -> d bijective on objects and morphisms, in
    search order, or None."""
    for omap, mmap in reference_functor_search(c, d, bijective=True):
        return Functor(c, d, omap, mmap)
    return None
