"""Set-valued diagram checks, point complexes and horn lifting as the
package computed them before, kept as references for the tests.

``reference_validate_finset_diagram`` walks every composable pair by
iterating over the composition table and reading each composite by key, and
reads the three maps of each pair per element.
``reference_two_stage_colimit_check`` builds the inner diagram and its
colimit once per object of the base's category of simplices, degenerate
simplices included, and converts each simplicial map to its vertex function
at every use.  The tests compare the package's checks with them report for
report.

``reference_i_points_with_nf`` builds the point complex as the package did
before it built it in normal form: the face and degeneracy tables of every
probe as an ``ExtensionalSSet``, reduced by ``normalize_extensional``.
``reference_is_kan_fibration`` lifts horns as the package did before it
read the map search directly: it lists every horn map as an interned
``SimplicialMap`` first, then searches a lift per commuting square.  The
tests compare point complexes byte for byte and verdicts with witnesses.

``reference_smap_search`` is the map search as it was before it read face
indexes: each simplex tries every candidate of its dimension in order and
keeps those whose faces are the images of its own faces.  The tests want the
package's search to yield the same image tables in the same order, and
``reference_enumerate_smaps`` lists the horn maps of
``reference_is_kan_fibration`` with it.
"""

from bisimplicial_reference import ExtensionalSSet, normalize_extensional
from clubcat.algebra import FinSetDiagram, colimit_finset, i_points
from clubcat.errors import InputError
from clubcat.simpset import (SimplexCategory, SimplicialMap, _subset_id,
                             apply_operator, degeneracy_map, face_map, horn,
                             nf_id)
from clubcat.sset_club import compose


def _discrete_elements(v):
    return list(v.nondeg[0])


def _smap_function(f):
    return {x: f.images[x].base for x in f.src.nondeg[0]}


def reference_validate_finset_diagram(d):
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
        tgt_values = set(d.values[tgt])
        for e in d.values[src]:
            if e not in f:
                report.append(f"map at {m!r} undefined on {e!r}")
            elif f[e] not in tgt_values:
                report.append(f"map at {m!r} leaves the target at {e!r}")
    if report:
        return report
    for o in d.cat.objects:
        i = d.cat.identity(o)
        if any(d.maps[i][e] != e for e in d.values[o]):
            report.append(f"identity map is not the identity at {o!r}")
    for (g, f) in d.cat.comp:
        gf = d.cat.comp[(g, f)]
        src = d.cat.src[f]
        for e in d.values[src]:
            if d.maps[gf][e] != d.maps[g][d.maps[f][e]]:
                report.append(f"functoriality fails at ({g!r}, {f!r}) on {e!r}")
                break
    return report



def reference_two_stage_colimit_check(tlf):
    """Collapsing after composing the club equals collapsing stagewise.

    The two-level family must take discrete values (finite sets as discrete
    complexes).  Compares the canonical map between both colimits and reports
    any failure of bijectivity.
    """
    report = []
    s = tlf.base

    for key, v in [((y, t), val) for y, fam in tlf.values.items()
                   for t, val in fam.values.items()]:
        if any(v.nondeg[k] for k in range(1, v.trunc + 1)):
            raise InputError("two-stage evaluation needs discrete values")

    # one stage: compose the pair, then collapse over the composite's simplices
    res1 = compose(tlf.psi)
    t1 = res1.sset
    t_cat = t1.category()
    values, maps = {}, {}
    pair_cache = {}
    for oid in t_cat.objects:
        u = t_cat.simplex_of[oid]
        snf, tnf = res1.pair_of(u)
        pair_cache[oid] = (snf, tnf)
        values[oid] = _discrete_elements(tlf.values[snf.base].values[tnf.base])
    for mid in t_cat.mor_ids:
        theta = t_cat.operator_of[mid]
        oid = t_cat.src[mid]
        snf, tnf = pair_cache[oid]
        step = tlf.transport(snf, theta)
        inner = step.tgt.transport(step.f.apply(tnf), theta)
        f1 = _smap_function(step.phi[tnf.base])
        f2 = _smap_function(inner)
        maps[mid] = {e: f2[f1[e]] for e in values[oid]}
    one_stage = FinSetDiagram(t_cat, values, maps, name="one-stage")
    bad = reference_validate_finset_diagram(one_stage)
    if bad:
        return [f"one-stage diagram: {r}" for r in bad]
    reps_a, classes_a = colimit_finset(one_stage)

    # two stages: collapse each inner diagram, then collapse over the base
    s_cat = s.category()
    inner_reps, inner_classes = {}, {}
    for oid in s_cat.objects:
        snf = s_cat.simplex_of[oid]
        v = tlf.psi.values[snf.base]
        v_cat = v.category()
        ivalues = {}
        imaps = {}
        for t_oid in v_cat.objects:
            tnf = v_cat.simplex_of[t_oid]
            ivalues[t_oid] = _discrete_elements(tlf.values[snf.base].values[tnf.base])
        for t_mid in v_cat.mor_ids:
            theta = v_cat.operator_of[t_mid]
            t_oid = v_cat.src[t_mid]
            tnf = v_cat.simplex_of[t_oid]
            f = _smap_function(tlf.values[snf.base].transport(tnf, theta))
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
        lookup = tlf.psi.values[snf.base].normal_forms()
        step = tlf.transport(snf, theta)
        table = {}
        for (t, e) in inner_reps[oid]:
            tnf = lookup[t]
            moved_e = _smap_function(step.phi[tnf.base])[e]
            cls = inner_classes[tid_out][(nf_id(step.f.apply(tnf)), moved_e)]
            table[f"{t}&{e}"] = f"{cls[0]}&{cls[1]}"
        omaps[mid] = table
    outer = FinSetDiagram(s_cat, ovalues, omaps, name="two-stage")
    bad = reference_validate_finset_diagram(outer)
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


def reference_i_points_with_nf(x, generator):
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


def reference_smap_search(a, b, candidates, distinct):
    """Image tables of the simplicial maps a -> b, in backtracking order.

    The non-degenerate simplices of a are placed dimension by dimension; a
    k-simplex tries the list ``candidates(k)`` in order, keeping those whose
    faces are the images of its own faces and, when ``distinct``, that are
    not yet an image.  Each table is yielded live: copy it to keep it.
    """
    order = a.listing()
    images = {}
    used = set()

    def backtrack(i):
        if i == len(order):
            yield images
            return
        x, k = order[i]
        wanted = ([apply_operator(b, images[nf.base], nf.eta) for nf in a.faces[x]]
                  if k else [])
        for cand in candidates(k):
            if distinct and cand in used:
                continue
            if any(apply_operator(b, cand, face_map(k, j)) != w
                   for j, w in enumerate(wanted)):
                continue
            images[x] = cand
            used.add(cand)
            yield from backtrack(i + 1)
            used.discard(cand)
            del images[x]

    return backtrack(0)


def reference_enumerate_smaps(a, b):
    """All simplicial maps a -> b, deterministically ordered (small inputs)."""
    return [SimplicialMap(a, b, dict(images)) for images in
            reference_smap_search(a, b, b.all_simplices, distinct=False)]


def reference_is_kan_fibration(f, max_dim):
    if max_dim > f.src.trunc - 1:
        raise InputError("horn checking needs max_dim <= trunc - 1")
    src, tgt = f.src, f.tgt
    for n in range(1, max_dim + 1):
        for k in range(n + 1):
            h = horn(n, k, src.trunc)
            horn_face_ids = [_subset_id([v for v in range(n + 1) if v != i])
                             for i in range(n + 1)]
            for u in reference_enumerate_smaps(h, src):
                # faces of the sought lift forced by u (all i except k)
                forced = {i: u.images[horn_face_ids[i]] for i in range(n + 1) if i != k}
                fu = {i: f.apply(forced[i]) for i in forced}
                for w in tgt.all_simplices(n):
                    if any(apply_operator(tgt, w, face_map(n, i)) != fu[i] for i in fu):
                        continue
                    # the square (u, w) commutes; search a lift
                    lift = None
                    for z in src.all_simplices(n):
                        if f.apply(z) != w:
                            continue
                        if any(apply_operator(src, z, face_map(n, i)) != forced[i]
                               for i in forced):
                            continue
                        lift = z
                        break
                    if lift is None:
                        witness = {
                            "horn": (n, k),
                            "horn_map": {x: nf_id(v) for x, v in sorted(u.images.items())},
                            "simplex_image": nf_id(w),
                        }
                        return False, witness
    return True, None
