"""Actions on categories: acting categories, colimit algebras, point
complexes and the fibration predicate.

The colimit algebra lives over the category of finite sets: a set-valued
diagram on the category of simplices of a shape is collapsed by union-find
along all operator maps, with least-in-order canonical representatives.

Point complexes: a generator set I probes a diagram; the probes at a simplex
are the maps out of I into its value, and precomposition with operators makes
the probes a simplicial set.  A morphism is a fibration when its base map is
injective and every induced map of point complexes lifts horns.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .config import DEFAULT_GUARDRAILS, Guardrails
from .diagram import DiagramInCat, constantify
from .errors import InputError
from .fincat import FinCategory
from .semidirect import build_semidirect
from .simpset import (ExtensionalSSet, SimplexCategory, SimplicialMap,
                      SimplicialSet, apply_operator, degeneracy_map,
                      face_map, is_injective, is_kan_fibration, nf_id,
                      normalize_extensional, validate_smap)
from .sset_club import (ClubMorphismSSet, ClubObjectSSet, TwoLevelFamily,
                        compose, compose_morphism)


def act_category(c: DiagramInCat, m: FinCategory,
                 guard: Guardrails = DEFAULT_GUARDRAILS):
    """The acting category: the base of the product with the constant diagram."""
    return build_semidirect(c, constantify(m), guard).diagram.base


# ---------------------------------------------------------------------------
# set-valued diagrams over a category of simplices

class FinSetDiagram:
    """A functor from a finite category to finite sets, stored extensionally."""

    def __init__(self, cat: FinCategory, values, maps, name=""):
        self.cat = cat
        self.values = {o: list(v) for o, v in values.items()}
        self.maps = {m: dict(f) for m, f in maps.items()}
        self.name = name

    def value(self, obj):
        return self.values[obj]

    def map(self, mor):
        return self.maps[mor]

    def __repr__(self):
        return f"FinSetDiagram({self.name!r}, {len(self.values)} objects)"


def validate_finset_diagram(d: FinSetDiagram):
    report = []
    for o in d.cat.objects:
        if o not in d.values:
            report.append(f"value missing at {o!r}")
    for m in d.cat.mor_ids:
        if m not in d.maps:
            report.append(f"map missing at {m!r}")
    if report:
        return report
    for m in d.cat.mor_ids:
        src, tgt = d.cat.src[m], d.cat.tgt[m]
        f = d.maps[m]
        for e in d.values[src]:
            if e not in f:
                report.append(f"map at {m!r} undefined on {e!r}")
            elif f[e] not in set(d.values[tgt]):
                report.append(f"map at {m!r} leaves the target at {e!r}")
    if report:
        return report
    for o in d.cat.objects:
        i = d.cat.identity(o)
        if any(d.maps[i][e] != e for e in d.values[o]):
            report.append(f"identity map is not the identity at {o!r}")
    for (g, f), gf in d.cat.comp.items():
        src = d.cat.src[f]
        for e in d.values[src]:
            if d.maps[gf][e] != d.maps[g][d.maps[f][e]]:
                report.append(f"functoriality fails at ({g!r}, {f!r}) on {e!r}")
                break
    return report


def constant_finset_diagram(cat: FinCategory, elements, name=""):
    elements = list(elements)
    return FinSetDiagram(cat, {o: elements for o in cat.objects},
                         {m: {e: e for e in elements} for m in cat.mor_ids},
                         name=name)


class AlgebraObject(NamedTuple):
    """A shape with a set-valued diagram on its category of simplices."""

    shape: SimplicialSet
    diagram: FinSetDiagram


def constant_algebra_object(shape: SimplicialSet, elements):
    cat = shape.category()
    return AlgebraObject(shape, constant_finset_diagram(cat, elements))


# ---------------------------------------------------------------------------
# colimits by union-find

class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        if x not in self.parent:
            self.parent[x] = x
            return x
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        px, py = self.find(x), self.find(y)
        if px != py:
            self.parent[max(px, py)] = min(px, py)


# the most elements a colimit collapses: the values of all objects together
COLIMIT_SIZE_BOUND = 10_000


def colimit_finset(d: FinSetDiagram):
    """Classes of the disjoint union under all operator maps.

    Returns the sorted list of canonical representatives (object-index,
    element) plus the class map, deterministic in the listing orders.
    """
    total = sum(len(v) for v in d.values.values())
    if total > COLIMIT_SIZE_BOUND:
        raise InputError(f"colimit input larger than the bound {COLIMIT_SIZE_BOUND}")
    index = {o: i for i, o in enumerate(d.cat.objects)}
    uf = _UnionFind()
    for o in d.cat.objects:
        oi = index[o]
        for e in d.values[o]:
            uf.find((oi, e))
    for m in d.cat.mor_ids:
        src, tgt = d.cat.src[m], d.cat.tgt[m]
        si, ti = index[src], index[tgt]
        f = d.maps[m]
        for e in d.values[src]:
            uf.union((si, e), (ti, f[e]))
    classes = {}
    for o in d.cat.objects:
        oi = index[o]
        for e in d.values[o]:
            classes[(oi, e)] = uf.find((oi, e))
    reps = sorted(set(classes.values()))
    by_name = [(d.cat.objects[i], e) for (i, e) in reps]
    named_classes = {(d.cat.objects[i], e): (d.cat.objects[r[0]], r[1])
                     for (i, e), r in classes.items()}
    return by_name, named_classes


def colimit_act(x: AlgebraObject):
    """The colimit of the diagram over the category of simplices."""
    reps, _ = colimit_finset(x.diagram)
    return reps


# ---------------------------------------------------------------------------
# point complexes

class IPoint(NamedTuple):
    """A probe: a simplex of the shape with a map from the generator."""

    dim: int
    simplex: str          # normal-form id
    mapping: tuple        # images of the generator's elements, in order


def i_points(x: AlgebraObject, generator, n):
    """All probes at dimension n: a simplex and a generator map into its value.

    Naturality over the operators of the standard simplex is automatic once
    the value at the top simplex is fixed, so probes are exactly these pairs.
    """
    out = []
    shape = x.shape
    for xnf in shape.all_simplices(n):
        val = x.diagram.values[nf_id(xnf)]
        for combo in itertools.product(val, repeat=len(generator)):
            out.append(IPoint(n, nf_id(xnf), tuple(combo)))
    return out


def i_points_sset(x: AlgebraObject, generator):
    """The probes in all dimensions as a simplicial set."""
    sset, _ = _i_points_with_nf(x, generator)
    return sset


def _i_points_with_nf(x: AlgebraObject, generator):
    shape = x.shape
    lookup = shape.normal_forms()
    tr = shape.trunc
    elements = {n: [(p.simplex, p.mapping) for p in i_points(x, generator, n)]
                for n in range(tr + 1)}

    def act(n, theta):
        table = {}
        for (sid, mapping) in elements[n]:
            xnf = lookup[sid]
            target = apply_operator(shape, xnf, theta)
            f = x.diagram.maps[SimplexCategory.mor_id(sid, theta)]
            table[(sid, mapping)] = (nf_id(target),
                                     tuple(f[e] for e in mapping))
        return table

    face, degen = {}, {}
    for n in range(tr + 1):
        if n >= 1:
            for i in range(n + 1):
                face[(n, i)] = act(n, face_map(n, i))
        if n + 1 <= tr:
            for i in range(n + 1):
                degen[(n, i)] = act(n, degeneracy_map(n, i))
    ext = ExtensionalSSet(tr, elements, face, degen, name=f"pts({shape.name})")
    return normalize_extensional(ext)


class AlgebraMorphism(NamedTuple):
    """A shape map with componentwise functions between the values."""

    src: AlgebraObject
    tgt: AlgebraObject
    f: SimplicialMap
    phi: dict             # simplex-category object id -> dict element -> element


def validate_algebra_morphism(m: AlgebraMorphism):
    report = [f"shape map: {r}" for r in validate_smap(m.f)]
    if report:
        return report
    cat = m.src.diagram.cat
    for oid in cat.objects:
        comp = m.phi.get(oid)
        if comp is None:
            report.append(f"component missing at {oid!r}")
            continue
        src_val = m.src.diagram.values[oid]
        xnf = cat.simplex_of[oid]
        tgt_val = m.tgt.diagram.values[nf_id(m.f.apply(xnf))]
        for e in src_val:
            if e not in comp:
                report.append(f"component at {oid!r} undefined on {e!r}")
            elif comp[e] not in set(tgt_val):
                report.append(f"component at {oid!r} leaves the target")
    if report:
        return report
    for mid in cat.mor_ids:
        src, tgt = cat.src[mid], cat.tgt[mid]
        theta = cat.operator_of[mid]
        xnf = cat.simplex_of[src]
        img_mid = SimplexCategory.mor_id(nf_id(m.f.apply(xnf)), theta)
        f_src = m.src.diagram.maps[mid]
        f_tgt = m.tgt.diagram.maps[img_mid]
        for e in m.src.diagram.values[src]:
            if m.phi[tgt][f_src[e]] != f_tgt[m.phi[src][e]]:
                report.append(f"naturality fails at {mid!r} on {e!r}")
                break
    return report


def induced_map(m: AlgebraMorphism, generator):
    """The map of point complexes: postcompose the probe with the morphism."""
    lookup = m.src.shape.normal_forms()

    src_sset, src_nf = _i_points_with_nf(m.src, generator)
    tgt_sset, tgt_nf = _i_points_with_nf(m.tgt, generator)
    images = {}
    for (n, (sid, mapping)), nf in src_nf.items():
        if nf.is_nondegenerate():
            image = (nf_id(m.f.apply(lookup[sid])),
                     tuple(m.phi[sid][e] for e in mapping))
            images[nf.base] = tgt_nf[(n, image)]
    return SimplicialMap(src_sset, tgt_sset, images, name="induced")


def is_fibration(m: AlgebraMorphism, generators):
    """Injective on the base and horn-lifting on every point complex, up to
    one below the truncation."""
    if not is_injective(m.f):
        return False, {"reason": "base map not injective"}
    for generator in generators:
        ok, witness = is_kan_fibration(induced_map(m, generator),
                                       m.src.shape.trunc - 1)
        if not ok:
            return False, {"reason": "horn lift fails", "generator": list(generator),
                           "witness": witness}
    return True, None


# ---------------------------------------------------------------------------
# two-stage evaluation against one-stage evaluation

def algebra_associativity_check(samples):
    """Acting in two stages equals acting after composing, per sample.

    Each sample is a two-level family with discrete (finite-set) inner
    values; the returned report lists every discrepancy.
    """
    report = []
    for idx, tlf in enumerate(samples):
        for msg in two_stage_colimit_check(tlf):
            report.append(f"sample {idx}: {msg}")
    return report


def _discrete_elements(v: SimplicialSet):
    return list(v.nondeg[0])


def _smap_function(f: SimplicialMap):
    return {x: f.images[x].base for x in f.src.nondeg[0]}


def two_stage_colimit_check(tlf: TwoLevelFamily):
    """Collapsing after composing the club equals collapsing stagewise.

    The two-level family must take discrete values (finite sets as discrete
    complexes).  Compares the canonical map between both colimits and reports
    any failure of bijectivity.
    """
    report = []
    s = tlf.base

    for key, v in [((y, t), val) for y, fam in tlf.chi.items()
                   for t, val in fam.values.items()]:
        if any(v.nondeg[k] for k in range(1, v.trunc + 1)):
            raise InputError("two-stage evaluation needs discrete values")

    # one stage: compose the pair, then collapse over the composite's simplices
    res1 = compose(ClubObjectSSet(s, tlf.psi))
    t1 = res1.sset
    t_cat = t1.category()
    values, maps = {}, {}
    pair_cache = {}
    for oid in t_cat.objects:
        u = t_cat.simplex_of[oid]
        snf, tnf = res1.pair_of(u)
        pair_cache[oid] = (snf, tnf)
        values[oid] = _discrete_elements(tlf.value(snf.base, tnf.base))
    for mid in t_cat.mor_ids:
        theta = t_cat.operator_of[mid]
        oid = t_cat.src[mid]
        snf, tnf = pair_cache[oid]
        smap_s, moved = tlf.s_transport(snf, tnf, theta)
        inner = tlf.chi[apply_operator(s, snf, theta).base].transport(moved, theta)
        f1 = _smap_function(smap_s)
        f2 = _smap_function(inner)
        maps[mid] = {e: f2[f1[e]] for e in values[oid]}
    one_stage = FinSetDiagram(t_cat, values, maps, name="one-stage")
    bad = validate_finset_diagram(one_stage)
    if bad:
        return [f"one-stage diagram: {r}" for r in bad]
    reps_a, classes_a = colimit_finset(one_stage)

    # two stages: collapse each inner diagram, then collapse over the base
    s_cat = s.category()
    inner_reps, inner_classes = {}, {}
    for oid in s_cat.objects:
        snf = s_cat.simplex_of[oid]
        v = tlf.psi.value(snf.base)
        v_cat = v.category()
        ivalues = {}
        imaps = {}
        for t_oid in v_cat.objects:
            tnf = v_cat.simplex_of[t_oid]
            ivalues[t_oid] = _discrete_elements(tlf.value(snf.base, tnf.base))
        for t_mid in v_cat.mor_ids:
            theta = v_cat.operator_of[t_mid]
            t_oid = v_cat.src[t_mid]
            tnf = v_cat.simplex_of[t_oid]
            f = _smap_function(tlf.chi[snf.base].transport(tnf, theta))
            imaps[t_mid] = {e: f[e] for e in ivalues[t_oid]}
        idiag = FinSetDiagram(v_cat, ivalues, imaps, name=f"inner({oid})")
        reps, classes = colimit_finset(idiag)
        inner_reps[oid] = reps
        inner_classes[oid] = classes

    ovalues = {oid: [f"{t}&{e}" for (t, e) in inner_reps[oid]]
               for oid in s_cat.objects}
    omaps = {}
    for mid in s_cat.mor_ids:
        theta = s_cat.operator_of[mid]
        oid, tid_out = s_cat.src[mid], s_cat.tgt[mid]
        snf = s_cat.simplex_of[oid]
        table = {}
        for (t, e) in inner_reps[oid]:
            v = tlf.psi.value(snf.base)
            tnf = v.normal_forms()[t]
            smap_s, moved_t = tlf.s_transport(snf, tnf, theta)
            moved_e = _smap_function(smap_s)[e]
            cls = inner_classes[tid_out][(nf_id(moved_t), moved_e)]
            table[f"{t}&{e}"] = f"{cls[0]}&{cls[1]}"
        omaps[mid] = table
    outer = FinSetDiagram(s_cat, ovalues, omaps, name="two-stage")
    bad = validate_finset_diagram(outer)
    if bad:
        return [f"two-stage diagram: {r}" for r in bad]
    reps_b, classes_b = colimit_finset(outer)

    # canonical comparison: a one-stage generator lands in the two-stage class
    # of its own pair
    image = {}
    for oid in t_cat.objects:
        snf, tnf = pair_cache[oid]
        s_oid = nf_id(snf)
        for e in one_stage.values[oid]:
            cls_inner = inner_classes[s_oid][(nf_id(tnf), e)]
            target = classes_b[(s_oid, f"{cls_inner[0]}&{cls_inner[1]}")]
            key = classes_a[(oid, e)]
            if key in image and image[key] != target:
                report.append(
                    f"comparison not well-defined at class {key!r}")
            image[key] = target
    hit = set(image.values())
    if len(reps_a) != len(reps_b):
        report.append(
            f"colimit sizes differ: {len(reps_a)} one-stage vs "
            f"{len(reps_b)} two-stage classes")
    missing = [r for r in reps_b if r not in hit]
    if missing:
        report.append(f"comparison misses {len(missing)} two-stage classes")
    return report


# ---------------------------------------------------------------------------
# stability of injective morphisms and fibrations

def _product_type_map(m: ClubMorphismSSet):
    """The single component map when the sample is a twisted product: an
    invertible base map, constant families on both sides, one shared
    component.  Returns None otherwise."""
    s = m.src.base
    if not is_injective(m.f):
        return None
    for k in range(s.trunc + 1):
        if len(s.nondeg[k]) != len(m.tgt.base.nondeg[k]):
            return None
    src_vals = {id(v) for v in m.src.family.values.values()}
    tgt_vals = {id(v) for v in m.tgt.family.values.values()}
    if len(src_vals) > 1 or len(tgt_vals) > 1:
        return None
    phis = list(m.phi.values())
    if not phis or any(p.images != phis[0].images for p in phis[1:]):
        return None
    for fam in (m.src.family, m.tgt.family):
        for f in fam.face_maps.values():
            if any(not nf.is_nondegenerate() or nf.base != x
                   for x, nf in f.images.items()):
                return None
    return phis[0]


def sset_stability_check(samples):
    """Desk-scale stability of the injective subcategory under composition.

    Each sample is a club-object morphism.  When the base map and every
    component are injective (the fibration predicate implies this on the
    base), the composed map must be injective: composing stays inside the
    subcategory of monomorphisms.  For twisted products of an invertible
    base change with a single horn-lifting component, the composite must
    lift horns as well; failures are reported with witnesses.
    """
    report = []
    for idx, m in enumerate(samples):
        md = m.src.base.trunc - 1
        res_src = compose(m.src)
        res_tgt = compose(m.tgt)
        composed = compose_morphism(m, res_src, res_tgt)
        parts_injective = is_injective(m.f) and all(
            is_injective(m.phi[y])
            for k in range(m.src.base.trunc + 1) for y in m.src.base.nondeg[k])
        if parts_injective and not is_injective(composed):
            report.append(f"sample {idx}: composite of injective data "
                          f"is not injective")
            continue
        shared = _product_type_map(m)
        if shared is not None:
            ok, _ = is_kan_fibration(shared, md)
            if ok:
                lifted, witness = is_kan_fibration(composed, md)
                if not lifted:
                    report.append(
                        f"sample {idx}: product-type composite fails a horn "
                        f"lift: {witness!r}")
    return report
