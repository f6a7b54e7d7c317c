"""Finite categories, functors and natural transformations as explicit tables.

Conventions used everywhere downstream:

* objects and morphisms are opaque string ids; equality is string equality;
* ``comp[(g, f)]`` is the composite ``g after f``; ``comp`` is a mapping,
  total on composable pairs and nothing else, kept as given (not copied).
  Most builders pass a dict; the category of simplices of ``simpset`` and the
  pair category of ``sset_club`` pass a ``LazyComposites``, which computes
  each composite on read and stores none.  Both builders find a composite
  by looking up its operators in a table of the source object's morphisms,
  so no id is built per pair;
* every collection keeps a fixed insertion order, and every enumeration and
  every "first found" answer is deterministic with respect to that order.
"""

from __future__ import annotations

from collections.abc import Mapping

from .config import DEFAULT_GUARDRAILS, Guardrails
from .errors import GuardrailExceeded, InputError


class FinCategory:
    """A finite category: object list, morphism list, identity and composition tables."""

    def __init__(self, objects, morphisms, identities, comp, name=""):
        self.objects = list(objects)
        self.morphisms = [(m, s, t) for (m, s, t) in morphisms]
        self.identities = dict(identities)
        self.comp = comp
        self.name = name
        self.mor_ids = [m for (m, _, _) in self.morphisms]
        self.src = {m: s for (m, s, _) in self.morphisms}
        self.tgt = {m: t for (m, _, t) in self.morphisms}
        self.hom = {}
        for (m, s, t) in self.morphisms:
            self.hom.setdefault((s, t), []).append(m)
        self._identity_set = set(self.identities.values())

    def hom_set(self, x, y):
        return self.hom.get((x, y), [])

    def compose(self, g, f):
        """Composite g∘f; raises InputError on a non-composable pair."""
        try:
            return self.comp[(g, f)]
        except KeyError:
            raise InputError(
                f"no composite for ({g!r}, {f!r}) in category {self.name!r}") from None

    def identity(self, x):
        return self.identities[x]

    def is_identity(self, m):
        return m in self._identity_set

    def nonidentity_morphisms(self):
        return [m for m in self.mor_ids if not self.is_identity(m)]

    def __repr__(self):
        return (f"FinCategory({self.name!r}, {len(self.objects)} objects, "
                f"{len(self.mor_ids)} morphisms)")


class LazyComposites(Mapping):
    """A composition table computed on read: ``composite(g, f)`` gives the
    id of g after f, and no composite is stored.

    Its keys are those of the full table, in its order: every composable pair
    (g, f), by f in morphism order, then by g among the morphisms out of the
    target of f.  Membership and length compute no composite.
    """

    def __init__(self, morphisms, composite):
        self._morphisms = morphisms
        self._composite = composite
        self._src = {m: a for (m, a, _) in morphisms}
        self._tgt = {m: b for (m, _, b) in morphisms}
        self._by_src = {}
        for (m, a, _) in morphisms:
            self._by_src.setdefault(a, []).append(m)
        self._len = sum(len(self._by_src.get(b, ())) for (_, _, b) in morphisms)

    def __contains__(self, key):
        g, f = key
        return f in self._tgt and self._tgt[f] == self._src.get(g)

    def __getitem__(self, key):
        if key not in self:
            raise KeyError(key)
        return self._composite(*key)

    def __iter__(self):
        for (f, _, b) in self._morphisms:
            for g in self._by_src.get(b, ()):
                yield (g, f)

    def items(self):
        """Every (key, composite) pair in key order, without the key checks
        of a read."""
        composite, by_src = self._composite, self._by_src
        for (f, _, b) in self._morphisms:
            for g in by_src.get(b, ()):
                yield (g, f), composite(g, f)

    def __len__(self):
        return self._len


def fincat_equal(c, d):
    """Structural equality of category tables (order of listings ignored)."""
    return c is d or (sorted(c.objects) == sorted(d.objects)
                      and sorted(c.morphisms) == sorted(d.morphisms)
                      and c.identities == d.identities
                      and c.comp == d.comp)


def validate_category(c: FinCategory):
    """Check every category law exhaustively; returns a list of violations.

    An empty report means the tables form a category.  Each entry names the
    law broken and the witnessing ids.
    """
    report = []
    if len(set(c.objects)) != len(c.objects):
        report.append("duplicate object ids")
    if len(set(c.mor_ids)) != len(c.mor_ids):
        report.append("duplicate morphism ids")
    obj_set = set(c.objects)
    for (m, s, t) in c.morphisms:
        if s not in obj_set or t not in obj_set:
            report.append(f"morphism {m!r} has unlisted endpoint ({s!r} -> {t!r})")
    for x in c.objects:
        i = c.identities.get(x)
        if i is None:
            report.append(f"object {x!r} has no identity")
        elif i not in c.src:
            report.append(f"identity of {x!r} is not a listed morphism")
        elif c.src[i] != x or c.tgt[i] != x:
            report.append(f"identity of {x!r} has endpoints {c.src[i]!r} -> {c.tgt[i]!r}")
    for x in c.identities:
        if x not in obj_set:
            report.append(f"identity listed for unknown object {x!r}")
    if report:
        return report

    for (g, f), gf in c.comp.items():
        if f not in c.src or g not in c.src:
            report.append(f"comp entry ({g!r}, {f!r}) mentions unlisted morphisms")
            continue
        if c.tgt[f] != c.src[g]:
            report.append(f"comp defined on non-composable pair ({g!r}, {f!r})")
            continue
        if gf not in c.src:
            report.append(f"comp[({g!r}, {f!r})] = {gf!r} is not a listed morphism")
        elif c.src[gf] != c.src[f] or c.tgt[gf] != c.tgt[g]:
            report.append(f"comp[({g!r}, {f!r})] = {gf!r} has wrong endpoints")
    for f in c.mor_ids:
        for g in c.mor_ids:
            if c.tgt[f] == c.src[g] and (g, f) not in c.comp:
                report.append(f"comp not total: missing composite of ({g!r}, {f!r})")
    if report:
        return report

    for f in c.mor_ids:
        if c.comp[(c.identities[c.tgt[f]], f)] != f:
            report.append(f"left identity law fails at {f!r}")
        if c.comp[(f, c.identities[c.src[f]])] != f:
            report.append(f"right identity law fails at {f!r}")
    # associativity over all composable triples
    for f in c.mor_ids:
        for g in c.mor_ids:
            if c.src[g] != c.tgt[f]:
                continue
            gf = c.comp[(g, f)]
            for h in c.mor_ids:
                if c.src[h] != c.tgt[g]:
                    continue
                if c.comp[(h, gf)] != c.comp[(c.comp[(h, g)], f)]:
                    report.append(
                        f"associativity fails at ({h!r}, {g!r}, {f!r})")
    return report


# ---------------------------------------------------------------------------
# standard small categories

def discrete_category(objects, name=""):
    objects = list(objects)
    morphisms = [(f"id_{x}", x, x) for x in objects]
    identities = {x: f"id_{x}" for x in objects}
    comp = {(i, i): i for i in identities.values()}
    return FinCategory(objects, morphisms, identities, comp, name=name)


def terminal_category():
    """The one-object one-morphism category."""
    return discrete_category(["*"], name="1")


def ordinal_category(n):
    """Discrete category on the ordered set {0, ..., n-1}."""
    return discrete_category([str(i) for i in range(n)], name=f"ord{n}")


def walking_arrow():
    """Two objects and one non-identity morphism between them."""
    objects = ["x", "y"]
    morphisms = [("id_x", "x", "x"), ("id_y", "y", "y"), ("a", "x", "y")]
    identities = {"x": "id_x", "y": "id_y"}
    comp = {
        ("id_x", "id_x"): "id_x",
        ("id_y", "id_y"): "id_y",
        ("a", "id_x"): "a",
        ("id_y", "a"): "a",
    }
    return FinCategory(objects, morphisms, identities, comp, name="arrow")


# ---------------------------------------------------------------------------
# functors

class Functor:
    """A functor stored as its object and morphism tables."""

    def __init__(self, src, tgt, omap, mmap):
        self.src = src
        self.tgt = tgt
        self.omap = dict(omap)
        self.mmap = dict(mmap)

    def __repr__(self):
        return f"Functor({self.src.name!r} -> {self.tgt.name!r})"


def functor_key(f: Functor):
    """Canonical hashable fingerprint of the functor tables."""
    return (tuple(f.omap[x] for x in f.src.objects),
            tuple(f.mmap[m] for m in f.src.mor_ids))


def functor_equal(f, g):
    return f.omap == g.omap and f.mmap == g.mmap


def identity_functor(c: FinCategory):
    return Functor(c, c, {x: x for x in c.objects}, {m: m for m in c.mor_ids})


def validate_functor(f: Functor):
    report = []
    tgt_objects = set(f.tgt.objects)
    for x in f.src.objects:
        if x not in f.omap:
            report.append(f"object map missing at {x!r}")
        elif f.omap[x] not in tgt_objects:
            report.append(f"object map sends {x!r} outside the target")
    for m in f.src.mor_ids:
        if m not in f.mmap:
            report.append(f"morphism map missing at {m!r}")
    if report:
        return report
    for m in f.src.mor_ids:
        fm = f.mmap[m]
        if fm not in f.tgt.src:
            report.append(f"morphism map sends {m!r} to unknown {fm!r}")
            continue
        if (f.tgt.src[fm] != f.omap[f.src.src[m]]
                or f.tgt.tgt[fm] != f.omap[f.src.tgt[m]]):
            report.append(f"endpoints not preserved at {m!r}")
    if report:
        return report
    for x in f.src.objects:
        if f.mmap[f.src.identity(x)] != f.tgt.identity(f.omap[x]):
            report.append(f"identity not preserved at {x!r}")
    for (g, h), gh in f.src.comp.items():
        if f.mmap[gh] != f.tgt.comp[(f.mmap[g], f.mmap[h])]:
            report.append(f"composition not preserved at ({g!r}, {h!r})")
    return report


def compose_functors(g: Functor, f: Functor):
    """Pointwise composite g∘f; the middle categories must agree."""
    if not fincat_equal(f.tgt, g.src):
        raise InputError("functor composition endpoint mismatch")
    return Functor(f.src, g.tgt,
                   {x: g.omap[f.omap[x]] for x in f.src.objects},
                   {m: g.mmap[f.mmap[m]] for m in f.src.mor_ids})


def _functor_search(c: FinCategory, d: FinCategory, bijective=False):
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


def enumerate_functors(c: FinCategory, d: FinCategory,
                       guard: Guardrails = DEFAULT_GUARDRAILS):
    """All functors c -> d, duplicate-free, in the order of ``_functor_search``."""
    limit = guard.max_enum_morphisms
    if len(c.mor_ids) > limit or len(d.mor_ids) > limit:
        raise GuardrailExceeded(
            f"functor enumeration limited to {limit} morphisms "
            f"(got {len(c.mor_ids)} and {len(d.mor_ids)})")
    return [Functor(c, d, omap, mmap) for omap, mmap in _functor_search(c, d)]


# ---------------------------------------------------------------------------
# natural transformations

class NatTrans:
    """A natural transformation between parallel functors, one component per object."""

    def __init__(self, src: Functor, tgt: Functor, components):
        self.src = src
        self.tgt = tgt
        self.components = dict(components)

    def __repr__(self):
        return f"NatTrans({len(self.components)} components)"


def enumerate_nat_trans(f: Functor, g: Functor):
    """All natural transformations f => g, deterministically ordered."""
    if not fincat_equal(f.src, g.src):
        raise InputError("natural transformations need parallel functors")
    if not fincat_equal(f.tgt, g.tgt):
        raise InputError("natural transformations need parallel functors")
    c, d = f.src, f.tgt
    objs = c.objects
    mors = c.nonidentity_morphisms()
    results = []
    components = {}

    def natural_so_far(just_set):
        for m in mors:
            x, y = c.src[m], c.tgt[m]
            if x in components and y in components and (x == just_set or y == just_set):
                if d.comp[(g.mmap[m], components[x])] != d.comp[(components[y], f.mmap[m])]:
                    return False
        return True

    def backtrack(i):
        if i == len(objs):
            results.append(NatTrans(f, g, dict(components)))
            return
        x = objs[i]
        for cand in d.hom_set(f.omap[x], g.omap[x]):
            components[x] = cand
            if natural_so_far(x):
                backtrack(i + 1)
            del components[x]

    backtrack(0)
    return results


# ---------------------------------------------------------------------------
# isomorphism search

def _object_profile(c: FinCategory, x):
    ins = sum(1 for m in c.mor_ids if c.tgt[m] == x)
    outs = sum(1 for m in c.mor_ids if c.src[m] == x)
    endos = len(c.hom_set(x, x))
    return (ins, outs, endos)


def find_isomorphism(c: FinCategory, d: FinCategory):
    """The first functor c -> d bijective on objects and morphisms, in
    search order, or None."""
    for omap, mmap in _functor_search(c, d, bijective=True):
        return Functor(c, d, omap, mmap)
    return None
