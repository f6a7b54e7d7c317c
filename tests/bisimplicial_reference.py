"""The pair bisimplicial set of a family, kept as a reference for the tests.

It keeps the extensional presentation of a simplicial set, which the
package no longer has: ``ExtensionalSSet`` holds every simplex with full
face and degeneracy tables, and ``normalize_extensional`` (with its
``_default_id`` naming) reduces it to normal form.  The slices and the
diagonal below are built on it, and ``finset_reference`` builds the old
point complexes on it.

``compose`` builds the diagonal of the pairs (s, t) directly.  This module
builds the whole bisimplicial set, every bidegree with its horizontal and
vertical actions, and then takes its diagonal, as the package did before.
The tests compare the direct construction with it table for table.

It also keeps the base-side transport of a two-level family one inner
simplex t at a time, the way the package computed it before the base side
became a family of club objects, and the functoriality and naturality walks
as they were before they were memoized on normal forms: every check
evaluated at every (x, theta, g).

Finally it keeps the comparison checks as they were before they stopped
building what they do not read: the pair category computed morphism by
morphism, and the naturality square walked over the objects of the
composite's category of simplices.
"""

from clubcat.fincat import FinCategory, LazyComposites
from clubcat.simpset import (NormalForm, SimplicialSet, all_monotone_maps,
                             apply_operator, compose_maps, compose_smaps,
                             degeneracy_map, ez_factor, face_map,
                             identity_smap, nf_id, nondeg, smap_equal)
from clubcat.sset_club import (PairCategorySSet, compose,
                               compose_morphism)


# ---------------------------------------------------------------------------
# extensional presentations and normalization

class ExtensionalSSet:
    """A simplicial set given by raw elements per dimension and generator actions."""

    def __init__(self, trunc, elements, face, degen, name=""):
        self.trunc = trunc
        self.elements = {k: list(elements.get(k, [])) for k in range(trunc + 1)}
        self.face = face      # (k, i) -> dict element -> element  (dim k -> k-1)
        self.degen = degen    # (k, i) -> dict element -> element  (dim k -> k+1)
        self.name = name

    def d(self, k, i, e):
        return self.face[(k, i)][e]

    def s(self, k, i, e):
        return self.degen[(k, i)][e]


def _default_id(elt):
    if isinstance(elt, tuple):
        return "|".join(str(p) for p in elt)
    return str(elt)


def normalize_extensional(e: ExtensionalSSet, id_fn=_default_id):
    """Compute the non-degenerate skeleton and face normal forms.

    Returns (SimplicialSet, nf_of) where nf_of maps (dim, element) to the
    normal form of that element in the result.
    """
    nf_of = {}
    nondeg_by_dim = {k: [] for k in range(e.trunc + 1)}
    faces = {}
    for k in range(e.trunc + 1):
        for elt in e.elements[k]:
            if k == 0:
                nf_of[(0, elt)] = nondeg(id_fn(elt), 0)
                nondeg_by_dim[0].append(id_fn(elt))
                continue
            split = None
            for i in range(k):
                if e.s(k - 1, i, e.d(k, i, elt)) == elt:
                    split = i
                    break
            if split is None:
                sid = id_fn(elt)
                nf_of[(k, elt)] = nondeg(sid, k)
                nondeg_by_dim[k].append(sid)
            else:
                below = nf_of[(k - 1, e.d(k, split, elt))]
                nf_of[(k, elt)] = NormalForm(
                    compose_maps(below.eta, degeneracy_map(k - 1, split)),
                    below.base)
        # face tables once the whole dimension is classified
        if k > 0:
            for elt in e.elements[k]:
                nf = nf_of[(k, elt)]
                if nf.is_nondegenerate():
                    faces[nf.base] = [nf_of[(k - 1, e.d(k, i, elt))]
                                      for i in range(k + 1)]
    result = SimplicialSet(e.trunc, nondeg_by_dim, faces, name=e.name)
    return result, nf_of


# ---------------------------------------------------------------------------
# the pair bisimplicial set and its diagonal

class BisimplicialSet:
    """Elements graded by bidegree with commuting horizontal and vertical actions."""

    def __init__(self, trunc, elements, h_face, h_degen, v_face, v_degen, name=""):
        self.trunc = trunc
        self.elements = {(m, n): list(elements.get((m, n), []))
                         for m in range(trunc + 1) for n in range(trunc + 1)}
        self.h_face = h_face    # (m, n, i) -> dict, lowers m
        self.h_degen = h_degen  # (m, n, i) -> dict, raises m
        self.v_face = v_face    # (m, n, i) -> dict, lowers n
        self.v_degen = v_degen  # (m, n, i) -> dict, raises n
        self.name = name

    def slice(self, fixed, vertical=False):
        """The simplicial set along one direction with the other degree fixed:
        the (k, fixed)-elements under the horizontal actions or, when
        ``vertical``, the (fixed, k)-elements under the vertical ones."""
        t = self.trunc
        if vertical:
            face, degen, at = self.v_face, self.v_degen, lambda k: (fixed, k)
        else:
            face, degen, at = self.h_face, self.h_degen, lambda k: (k, fixed)
        return ExtensionalSSet(
            t, {k: list(self.elements[at(k)]) for k in range(t + 1)},
            {(k, i): face[at(k) + (i,)] for k in range(1, t + 1) for i in range(k + 1)},
            {(k, i): degen[at(k) + (i,)] for k in range(t) for i in range(k + 1)})


def validate_extensional(e: ExtensionalSSet):
    """Simplicial identities for the generator actions of a raw presentation."""
    report = []

    def chk(cond, msg):
        if not cond:
            report.append(msg)

    for k in range(e.trunc + 1):
        for x in e.elements[k]:
            # d_i d_j = d_{j-1} d_i  (i < j)
            if k >= 2:
                for j in range(k + 1):
                    for i in range(j):
                        chk(e.d(k - 1, i, e.d(k, j, x)) == e.d(k - 1, j - 1, e.d(k, i, x)),
                            f"face identity d{i}d{j} fails at dim {k}: {x!r}")
            if k + 1 <= e.trunc:
                for j in range(k + 1):
                    for i in range(k + 1):
                        y = e.s(k, j, x)
                        if i < j:
                            chk(e.d(k + 1, i, y) == e.s(k - 1, j - 1, e.d(k, i, x)) if k else True,
                                f"mixed identity d{i}s{j} fails at dim {k}: {x!r}")
                        elif i in (j, j + 1):
                            chk(e.d(k + 1, i, y) == x,
                                f"mixed identity d{i}s{j} fails at dim {k}: {x!r}")
                        elif i > j + 1:
                            chk(e.d(k + 1, i, y) == e.s(k - 1, j, e.d(k, i - 1, x)) if k else True,
                                f"mixed identity d{i}s{j} fails at dim {k}: {x!r}")
            if k + 2 <= e.trunc:
                for j in range(k + 1):
                    for i in range(j + 1):
                        chk(e.s(k + 1, i, e.s(k, j, x)) == e.s(k + 1, j + 1, e.s(k, i, x)),
                            f"degeneracy identity s{i}s{j} fails at dim {k}: {x!r}")
    return report


def validate_bisimplicial(b: BisimplicialSet):
    """Row/column simplicial identities plus commutation of the two actions."""
    report = []
    t = b.trunc
    for n in range(t + 1):
        report.extend(f"horizontal at column {n}: {r}"
                      for r in validate_extensional(b.slice(n)))
    for m in range(t + 1):
        report.extend(f"vertical at row {m}: {r}"
                      for r in validate_extensional(b.slice(m, vertical=True)))
    if report:
        return report
    # commutation of one horizontal and one vertical generator
    for m in range(t + 1):
        for n in range(t + 1):
            for x in b.elements[(m, n)]:
                hops = []
                if m >= 1:
                    hops += [("hf", i) for i in range(m + 1)]
                if m + 1 <= t:
                    hops += [("hd", i) for i in range(m + 1)]
                vops = []
                if n >= 1:
                    vops += [("vf", j) for j in range(n + 1)]
                if n + 1 <= t:
                    vops += [("vd", j) for j in range(n + 1)]
                for (ho, i) in hops:
                    for (vo, j) in vops:
                        m2 = m - 1 if ho == "hf" else m + 1
                        n2 = n - 1 if vo == "vf" else n + 1
                        h1 = b.h_face[(m, n, i)] if ho == "hf" else b.h_degen[(m, n, i)]
                        v_after = (b.v_face[(m2, n, j)] if vo == "vf"
                                   else b.v_degen[(m2, n, j)])
                        v1 = b.v_face[(m, n, j)] if vo == "vf" else b.v_degen[(m, n, j)]
                        h_after = (b.h_face[(m, n2, i)] if ho == "hf"
                                   else b.h_degen[(m, n2, i)])
                        if v_after[h1[x]] != h_after[v1[x]]:
                            report.append(
                                f"actions do not commute at ({m},{n}) {x!r}")
    return report


def diag(b: BisimplicialSet, id_fn=_default_id):
    """The diagonal simplicial set: equal bidegrees, operators acting twice.

    Returns (SimplicialSet, nf_of) with nf_of keyed by (dim, element).
    """
    tr = b.trunc
    elements = {k: list(b.elements[(k, k)]) for k in range(tr + 1)}
    face, degen = {}, {}
    for k in range(tr + 1):
        if k >= 1:
            for i in range(k + 1):
                hf = b.h_face[(k, k, i)]
                vf = b.v_face[(k - 1, k, i)]
                face[(k, i)] = {x: vf[hf[x]] for x in elements[k]}
        if k + 1 <= tr:
            for i in range(k + 1):
                hd = b.h_degen[(k, k, i)]
                vd = b.v_degen[(k + 1, k, i)]
                degen[(k, i)] = {x: vd[hd[x]] for x in elements[k]}
    ext = ExtensionalSSet(tr, elements, face, degen, name=f"diag{b.name}")
    return normalize_extensional(ext, id_fn=id_fn)


def bisimplicial_of(fam):
    """Elements (s, t) with s a base simplex and t a simplex of its value.

    Horizontal operators move s and transport t; vertical operators act
    inside the value.
    """
    s = fam.base
    tr = s.trunc
    s_simplices = {m: s.all_simplices(m) for m in range(tr + 1)}
    elements = {}
    for m in range(tr + 1):
        for n in range(tr + 1):
            elems = []
            for snf in s_simplices[m]:
                v = fam.values[snf.base]
                for tnf in v.all_simplices(n):
                    elems.append((nf_id(snf), nf_id(tnf)))
            elements[(m, n)] = elems
    h_face, h_degen, v_face, v_degen = {}, {}, {}, {}
    s_lookup = s.normal_forms()

    def horizontal(m, n, theta):
        table = {}
        for (sid, tid) in elements[(m, n)]:
            snf = s_lookup[sid]
            v = fam.values[snf.base]
            tnf = v.normal_forms()[tid]
            s2 = apply_operator(s, snf, theta)
            moved = fam.transport(snf, theta).apply(tnf)
            table[(sid, tid)] = (nf_id(s2), nf_id(moved))
        return table

    def vertical(m, n, theta):
        table = {}
        for (sid, tid) in elements[(m, n)]:
            snf = s_lookup[sid]
            v = fam.values[snf.base]
            tnf = v.normal_forms()[tid]
            table[(sid, tid)] = (sid, nf_id(apply_operator(v, tnf, theta)))
        return table

    for m in range(tr + 1):
        for n in range(tr + 1):
            if m >= 1:
                for i in range(m + 1):
                    h_face[(m, n, i)] = horizontal(m, n, face_map(m, i))
            if m + 1 <= tr:
                for i in range(m + 1):
                    h_degen[(m, n, i)] = horizontal(m, n, degeneracy_map(m, i))
            if n >= 1:
                for i in range(n + 1):
                    v_face[(m, n, i)] = vertical(m, n, face_map(n, i))
            if n + 1 <= tr:
                for i in range(n + 1):
                    v_degen[(m, n, i)] = vertical(m, n, degeneracy_map(n, i))
    return BisimplicialSet(tr, elements, h_face, h_degen, v_face, v_degen,
                           name=f"T({s.name})")


def reference_compose(x, part_fn=None):
    """``compose`` as the diagonal of the whole pair bisimplicial set:
    returns (sset, nf_of, base_pair)."""
    bisim = bisimplicial_of(x)
    if part_fn is None:
        def part_fn(elt):
            return elt

    def id_fn(elt):
        return "|".join(part_fn(elt))

    sset, nf_of = diag(bisim, id_fn=id_fn)
    base_pair = {}
    for k in range(sset.trunc + 1):
        for elt in bisim.elements[(k, k)]:
            nf = nf_of[(k, elt)]
            if nf.is_nondegenerate():
                base_pair[nf.base] = elt
    return sset, nf_of, base_pair


def s_transport(tlf, x, t, theta):
    """Transport of the value of ``tlf`` at (x, t) along the operator theta
    on the base side, for one simplex t of the value of psi at x: returns
    (map, moved t), moved t being the image of t over theta* x."""
    delta, _ = ez_factor(compose_maps(x.eta, theta))
    y = x.base
    if delta.m == delta.n:
        return identity_smap(tlf.values[y].values[t.base]), t
    i, rest = delta.peel_face()
    k = tlf.base.dim_of[y]
    moved = tlf.psi.transport(nondeg(y, k), face_map(k, i)).apply(t)
    rec_map, rec_t = s_transport(tlf, tlf.base.faces[y][i], moved, rest)
    return compose_smaps(rec_map, tlf.face_maps[(y, i)].phi[t.base]), rec_t


def reference_functoriality_failures(fam):
    """``SimplexFamily.functoriality_failures`` with no memo: each (x, theta,
    g), in walk order, at which transport along theta then g differs from
    transport along their composite."""
    s = fam.base
    for k in range(s.trunc + 1):
        for x in s.all_simplices(k):
            for m in range(s.trunc + 1):
                for theta in all_monotone_maps(m, k):
                    through = fam.transport(x, theta)
                    y = apply_operator(s, x, theta)
                    for g in s.generators(m):
                        lhs = fam._compose(fam.transport(y, g), through)
                        rhs = fam.transport(x, compose_maps(theta, g))
                        if not fam._equal(lhs, rhs):
                            yield x, theta, g


def reference_naturality_failures(m):
    """The naturality loop of ``validate_club_morphism`` with no memo, for a
    morphism whose base map and components are valid: one message per
    (x, theta), in walk order, at which the square fails."""
    report = []
    s = m.src.base
    fam1, fam2 = m.src, m.tgt
    for k in range(s.trunc + 1):
        for x in s.all_simplices(k):
            for mm in range(s.trunc + 1):
                for theta in all_monotone_maps(mm, k):
                    y = apply_operator(s, x, theta)
                    lhs = compose_smaps(m.phi[y.base], fam1.transport(x, theta))
                    rhs = compose_smaps(fam2.transport(m.f.apply(x), theta),
                                        m.phi[x.base])
                    if not smap_equal(lhs, rhs):
                        report.append(
                            f"naturality fails at {nf_id(x)!r} with {theta.values!r}")
    return report


def reference_pair_category_sset(fam):
    """``pair_category_sset`` computing theta* s, the transport and every
    target once per morphism, over the base's category of simplices."""
    s = fam.base
    s_cat = s.category()
    objects = []
    obj_id, obj_data = {}, {}
    for oid in s_cat.objects:
        snf = s_cat.simplex_of[oid]
        v = fam.values[snf.base]
        for n in range(s.trunc + 1):
            for tnf in v.all_simplices(n):
                pid = f"{oid}&{nf_id(tnf)}"
                objects.append(pid)
                obj_id[(oid, nf_id(tnf))] = pid
                obj_data[pid] = (snf, tnf)
    morphisms = []
    mor_id, mor_data = {}, {}
    identities = {}
    for pid in objects:
        snf, tnf = obj_data[pid]
        for m in range(s.trunc + 1):
            for theta in all_monotone_maps(m, snf.dim):
                s2 = apply_operator(s, snf, theta)
                moved = fam.transport(snf, theta).apply(tnf)
                v2 = fam.values[s2.base]
                for m2 in range(s.trunc + 1):
                    for theta2 in all_monotone_maps(m2, moved.dim):
                        t2 = apply_operator(v2, moved, theta2)
                        mid = f"{pid}!{theta.label}!{theta2.label}"
                        tgt = obj_id[(nf_id(s2), nf_id(t2))]
                        morphisms.append((mid, pid, tgt))
                        mor_id[(pid, theta, theta2)] = mid
                        mor_data[mid] = (theta, theta2)
                        if theta.is_identity() and theta2.is_identity():
                            identities[pid] = mid

    def composite(g, f):
        th_f, tv_f = mor_data[f]
        th_g, tv_g = mor_data[g]
        return mor_id[(cat.src[f], compose_maps(th_f, th_g), compose_maps(tv_f, tv_g))]

    cat = FinCategory(objects, morphisms, identities,
                      LazyComposites(morphisms, composite), name="pairs")
    return PairCategorySSet(cat, obj_id, obj_data, mor_id, mor_data)


def reference_delta_naturality_check(morphisms):
    """``delta_naturality_check`` walking the objects of each source
    composite's category of simplices."""
    report = []
    for idx, m in enumerate(morphisms):
        res1 = compose(m.src)
        res2 = compose(m.tgt)
        g = compose_morphism(m, res1, res2)
        t_cat1 = res1.sset.category()
        for oid in t_cat1.objects:
            u = t_cat1.simplex_of[oid]
            s1, t1 = res1.pair_of(u)
            s2a, t2a = res2.pair_of(g.apply(u))
            s2b = m.f.apply(s1)
            t2b = m.phi[s1.base].apply(t1)
            if (nf_id(s2a), nf_id(t2a)) != (nf_id(s2b), nf_id(t2b)):
                report.append(
                    f"sample {idx}: comparison square fails at {nf_id(u)!r}")
    return report
