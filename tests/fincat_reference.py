"""Functor and natural-transformation helpers that only the tests use.

``constant_functor`` builds fixtures.  ``validate_nat_trans`` checks a
transformation table by table and is the oracle for ``enumerate_nat_trans``.
"""

from clubcat.fincat import FinCategory, Functor, NatTrans, fincat_equal


def constant_functor(c: FinCategory, d: FinCategory, obj):
    """The functor sending everything in c to obj and its identity."""
    i = d.identity(obj)
    return Functor(c, d, {x: obj for x in c.objects}, {m: i for m in c.mor_ids})


def validate_nat_trans(n: NatTrans):
    f, g = n.src, n.tgt
    report = []
    if not (f.src is g.src or fincat_equal(f.src, g.src)):
        report.append("functors are not parallel (different sources)")
    if not (f.tgt is g.tgt or fincat_equal(f.tgt, g.tgt)):
        report.append("functors are not parallel (different targets)")
    if report:
        return report
    d = f.tgt
    for x in f.src.objects:
        comp = n.components.get(x)
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
        if d.comp[(g.mmap[m], n.components[x])] != d.comp[(n.components[y], f.mmap[m])]:
            report.append(f"naturality square fails at {m!r}")
    return report
