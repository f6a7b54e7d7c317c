"""The monoid structure on simplicial sets via diagonals of pairs.

A simplex-indexed family assigns a simplicial set to every simplex of a base
and a compatible map to every operator.  Families are stored in reduced form:
values on non-degenerate simplices plus maps for the face generators, with
degeneracy generators acting as identities; the closure to all operators is
computed on demand and functoriality is validated against every operator and
every generator, which pins down the whole composition table.

Composition of a family over S builds the diagonal of the pairs (s, t)
directly: its k-simplices are the pairs of a k-simplex s and a k-simplex t of
value(s), and an operator moves s and acts on the transported t.  Only the
equal bidegrees of the bisimplicial set of pairs are built.  Multi-level
composites are named by flattening the component tuples, so the two
evaluation orders of a two-level family produce literally equal simplicial
sets.
"""

from __future__ import annotations

from typing import NamedTuple

from .fincat import FinCategory, Functor, LazyComposites
from .simpset import (ExtensionalSSet, MonotoneMap, NormalForm,
                      SimplicialMap, SimplicialSet, all_monotone_maps,
                      apply_operator, compose_maps, compose_smaps,
                      degeneracy_map, ez_factor, face_map, identity_smap,
                      iso_sset, nf_id, nondeg, normalize_extensional,
                      one_point, smap_equal, validate_smap, validate_sset)


# ---------------------------------------------------------------------------
# simplex-indexed families

class SimplexFamily:
    """Simplicial sets indexed by the simplices of a base, in reduced form.

    ``values`` is keyed by non-degenerate simplex ids; ``face_maps[(y, i)]``
    maps the value at y to the value at the non-degenerate base of its i-th
    face.  Degeneracy operators act as identities, so the value at any
    simplex is the value at its base.
    """

    def __init__(self, base: SimplicialSet, values, face_maps, name=""):
        self.base = base
        self.values = dict(values)
        self.face_maps = dict(face_maps)
        self.name = name
        self._transport_cache = {}

    def value(self, simplex):
        """The simplicial set at a simplex given by id or normal form."""
        if isinstance(simplex, NormalForm):
            return self.values[simplex.base]
        return self.values[self.base.normal_forms()[simplex].base]

    def transport(self, x: NormalForm, theta: MonotoneMap):
        """The map value(x) -> value(theta* x) induced by the operator."""
        key = (x, theta)
        hit = self._transport_cache.get(key)
        if hit is not None:
            return hit
        kappa = compose_maps(x.eta, theta)
        delta, sigma = ez_factor(kappa)
        out = self._transport_injective(x.base, delta)
        self._transport_cache[key] = out
        return out

    def _transport_injective(self, y, delta):
        if delta.m == delta.n:
            return identity_smap(self.values[y])
        i, rest = delta.peel_face()
        return compose_smaps(self.transport(self.base.faces[y][i], rest),
                             self.face_maps[(y, i)])


def validate_family(fam: SimplexFamily):
    """Endpoint checks plus functoriality against every operator/generator pair."""
    report = []
    s = fam.base
    for k in range(s.trunc + 1):
        for y in s.nondeg[k]:
            if y not in fam.values:
                report.append(f"value missing at {y!r}")
                continue
            v = fam.values[y]
            if v.trunc != s.trunc:
                report.append(f"value at {y!r} has truncation {v.trunc}")
            else:
                report.extend(f"value at {y!r}: {r}" for r in validate_sset(v))
    if report:
        return report
    for k in range(1, s.trunc + 1):
        for y in s.nondeg[k]:
            for i in range(k + 1):
                m = fam.face_maps.get((y, i))
                if m is None:
                    report.append(f"face map missing at ({y!r}, {i})")
                    continue
                want_src = fam.values[y]
                want_tgt = fam.values[s.faces[y][i].base]
                if m.src is not want_src or m.tgt is not want_tgt:
                    report.append(f"face map at ({y!r}, {i}) has wrong endpoints")
                else:
                    report.extend(f"face map at ({y!r}, {i}): {r}"
                                  for r in validate_smap(m))
    if report:
        return report
    # functoriality: checking every (x, theta) against every generator
    # composes to the full composition law by induction on decompositions
    for k in range(s.trunc + 1):
        for x in s.all_simplices(k):
            for m in range(s.trunc + 1):
                for theta in all_monotone_maps(m, k):
                    through = fam.transport(x, theta)
                    y = apply_operator(s, x, theta)
                    for g in s.generators(m):
                        lhs = compose_smaps(fam.transport(y, g), through)
                        rhs = fam.transport(x, compose_maps(theta, g))
                        if not smap_equal(lhs, rhs):
                            report.append(
                                f"functoriality fails at {nf_id(x)!r} with "
                                f"{theta.values!r} then {g.values!r}")
    return report


def constant_family(s: SimplicialSet, t: SimplicialSet, name=""):
    values = {y: t for k in range(s.trunc + 1) for y in s.nondeg[k]}
    face_maps = {(y, i): identity_smap(t)
                 for k in range(1, s.trunc + 1) for y in s.nondeg[k]
                 for i in range(k + 1)}
    return SimplexFamily(s, values, face_maps, name=name or f"const({t.name})")


def point_family(s: SimplicialSet):
    return constant_family(s, one_point(s.trunc), name="pointfam")


class ClubObjectSSet(NamedTuple):
    base: SimplicialSet
    family: SimplexFamily


# ---------------------------------------------------------------------------
# the pairs (s, t) and their diagonal

def _pair_sset(x: ClubObjectSSet, name, id_fn):
    """The diagonal of the pairs (s, t) of a family under the operators
    acting on s, normalized: returns (SimplicialSet, nf_of) with nf_of keyed
    by (dim, (s id, t id)).

    Its k-simplices are the pairs of a k-simplex s and a k-simplex t of
    value(s), and theta sends (s, t) to (theta*s,
    theta*(transport(s, theta)(t))).  Pairs are listed by s, then t, each in
    canonical order.
    """
    s, fam = x.base, x.family
    tr = s.trunc
    elements, pair_nfs = {}, {}
    for k in range(tr + 1):
        nfs = pair_nfs[k] = {}
        for snf in s.all_simplices(k):
            sid = nf_id(snf)
            for tnf in fam.values[snf.base].all_simplices(k):
                nfs[(sid, nf_id(tnf))] = (snf, tnf)
        elements[k] = list(nfs)

    def act(k, theta):
        table = {}
        for elt, (snf, tnf) in pair_nfs[k].items():
            s2 = apply_operator(s, snf, theta)
            t2 = fam.transport(snf, theta).apply(tnf)
            t2 = apply_operator(fam.values[s2.base], t2, theta)
            table[elt] = (nf_id(s2), nf_id(t2))
        return table

    face = {(k, i): act(k, face_map(k, i))
            for k in range(1, tr + 1) for i in range(k + 1)}
    degen = {(k, i): act(k, degeneracy_map(k, i))
             for k in range(tr) for i in range(k + 1)}
    ext = ExtensionalSSet(tr, elements, face, degen, name=name)
    return normalize_extensional(ext, id_fn=id_fn)


class ComposeResult(NamedTuple):
    sset: SimplicialSet
    nf_of: dict            # (dim, element) -> normal form in sset
    source: ClubObjectSSet
    parts_of: dict         # nondeg id in sset -> canonical atomic tuple
    base_pair: dict        # nondeg id in sset -> (s, t) ids of its pair

    def base_pair_nfs(self, uid):
        """The (s, t) normal forms of a nondegenerate simplex of the composite."""
        sid, tid = self.base_pair[uid]
        snf = self.source.base.normal_forms()[sid]
        tnf = self.source.family.value(snf.base).normal_forms()[tid]
        return snf, tnf

    def pair_of(self, u: NormalForm):
        """The (s, t) pair of any simplex of the composite."""
        fam = self.source.family
        s = self.source.base
        snf, tnf = self.base_pair_nfs(u.base)
        s_out = apply_operator(s, snf, u.eta)
        moved = fam.transport(snf, u.eta).apply(tnf)
        v_out = fam.value(s_out.base)
        t_out = apply_operator(v_out, moved, u.eta)
        return s_out, t_out


def compose(x: ClubObjectSSet, part_fn=None):
    """The diagonal of the pairs (s, t), with canonical naming.

    ``part_fn`` may unfold an element into its atomic component tuple; the
    default treats the two components as atoms.  Nested composites flatten
    to the same names either way they are evaluated.
    """
    if part_fn is None:
        def part_fn(elt):
            return elt

    def id_fn(elt):
        return "|".join(part_fn(elt))

    sset, nf_of = _pair_sset(x, f"diagT({x.base.name})", id_fn)
    base_pair = {}
    parts_of = {}
    for (_, elt), nf in nf_of.items():
        if nf.is_nondegenerate():
            base_pair[nf.base] = elt
            parts_of[nf.base] = part_fn(elt)
    return ComposeResult(sset, nf_of, x, parts_of, base_pair)


# ---------------------------------------------------------------------------
# the comparison functor into the pair category

class PairCategorySSet(NamedTuple):
    """The category of pairs (s, t) with operator morphisms, materialized."""

    cat: FinCategory
    obj_id: dict
    obj_data: dict
    mor_id: dict
    mor_data: dict


def pair_category_sset(x: ClubObjectSSet):
    """Materialize the pair category of a family (small fixtures only): its
    objects and morphisms in full, its composites on first read."""
    s, fam = x.base, x.family
    s_cat = s.category()
    objects = []
    obj_id, obj_data = {}, {}
    for oid in s_cat.objects:
        snf = s_cat.simplex_of[oid]
        v = fam.value(snf.base)
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
        v1 = fam.value(snf.base)
        for m in range(s.trunc + 1):
            for theta in all_monotone_maps(m, snf.dim):
                s2 = apply_operator(s, snf, theta)
                moved = fam.transport(snf, theta).apply(tnf)
                v2 = fam.value(s2.base)
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


def delta_functor(res: ComposeResult, pairs: PairCategorySSet):
    """The comparison functor from the composite's simplex category into the
    pair category ``pairs`` of ``res.source``, sending a diagonal simplex to
    its pair and an operator to the operator acting in both directions.
    Whether it is a functor is a law: check it with ``validate_functor``."""
    t_cat = res.sset.category()
    omap, mmap = {}, {}
    for oid in t_cat.objects:
        u = t_cat.simplex_of[oid]
        snf, tnf = res.pair_of(u)
        omap[oid] = pairs.obj_id[(nf_id(snf), nf_id(tnf))]
    for mid in t_cat.mor_ids:
        theta = t_cat.operator_of[mid]
        src = t_cat.src[mid]
        mmap[mid] = pairs.mor_id[(omap[src], theta, theta)]
    return Functor(t_cat, pairs.cat, omap, mmap)


def delta_is_isomorphism(res: ComposeResult, pairs: PairCategorySSet):
    """Whether the comparison functor into ``pairs`` is bijective on objects
    (it is not, in general: off-diagonal pairs are never hit)."""
    t_cat = res.sset.category()
    return len(t_cat.objects) == len(pairs.cat.objects)


# ---------------------------------------------------------------------------
# morphisms of club objects

class ClubMorphismSSet(NamedTuple):
    """A base map with a family of value maps, natural over all operators."""

    src: ClubObjectSSet
    tgt: ClubObjectSSet
    f: SimplicialMap
    phi: dict              # nondeg base simplex id -> SimplicialMap

    def phi_at(self, simplex):
        if isinstance(simplex, NormalForm):
            return self.phi[simplex.base]
        return self.phi[self.src.base.normal_forms()[simplex].base]


def validate_club_morphism(m: ClubMorphismSSet):
    report = [f"base map: {r}" for r in validate_smap(m.f)]
    if report:
        return report
    s = m.src.base
    fam1, fam2 = m.src.family, m.tgt.family
    for k in range(s.trunc + 1):
        for y in s.nondeg[k]:
            comp = m.phi.get(y)
            if comp is None:
                report.append(f"component missing at {y!r}")
                continue
            want_src = fam1.values[y]
            want_tgt = fam2.value(m.f.images[y].base)
            if comp.src is not want_src or comp.tgt is not want_tgt:
                report.append(f"component at {y!r} has wrong endpoints")
            else:
                report.extend(f"component at {y!r}: {r}"
                              for r in validate_smap(comp))
    if report:
        return report
    for k in range(s.trunc + 1):
        for x in s.all_simplices(k):
            for mm in range(s.trunc + 1):
                for theta in all_monotone_maps(mm, k):
                    y = apply_operator(s, x, theta)
                    lhs = compose_smaps(m.phi_at(y), fam1.transport(x, theta))
                    rhs = compose_smaps(fam2.transport(m.f.apply(x), theta),
                                        m.phi_at(x))
                    if not smap_equal(lhs, rhs):
                        report.append(
                            f"naturality fails at {nf_id(x)!r} with {theta.values!r}")
    return report


def identity_club_morphism(x: ClubObjectSSet):
    phi = {y: identity_smap(x.family.values[y])
           for k in range(x.base.trunc + 1) for y in x.base.nondeg[k]}
    return ClubMorphismSSet(x, x, identity_smap(x.base), phi)


def compose_morphism(m: ClubMorphismSSet, res_src: ComposeResult,
                     res_tgt: ComposeResult):
    """The induced map of composites ``res_src`` -> ``res_tgt`` of ``m``'s
    source and target: (s, t) goes to (f(s), phi_s(t))."""
    images = {}
    for k in range(res_src.sset.trunc + 1):
        for uid in res_src.sset.nondeg[k]:
            snf, tnf = res_src.base_pair_nfs(uid)
            s2 = m.f.apply(snf)
            t2 = m.phi_at(snf).apply(tnf)
            images[uid] = res_tgt.nf_of[(k, (nf_id(s2), nf_id(t2)))]
    return SimplicialMap(res_src.sset, res_tgt.sset, images,
                         name="composed")


def delta_naturality_check(morphisms):
    """For each morphism, the square of comparison data commutes elementwise.

    Compares, for every simplex of the source composite and every operator,
    the pair reached through the induced map of composites with the pair
    reached through the componentwise action on pairs.
    """
    report = []
    for idx, m in enumerate(morphisms):
        res1 = compose(m.src)
        res2 = compose(m.tgt)
        g = compose_morphism(m, res1, res2)
        t_cat1 = res1.sset.category()
        for oid in t_cat1.objects:
            u = t_cat1.simplex_of[oid]
            s1, t1 = res1.pair_of(u)
            # route 1: map the composite simplex, then take its pair
            s2a, t2a = res2.pair_of(g.apply(u))
            # route 2: act on the pair componentwise
            s2b = m.f.apply(s1)
            t2b = m.phi_at(s1).apply(t1)
            if (nf_id(s2a), nf_id(t2a)) != (nf_id(s2b), nf_id(t2b)):
                report.append(
                    f"sample {idx}: comparison square fails at {nf_id(u)!r}")
    return report


# ---------------------------------------------------------------------------
# unit laws

def unit_law_point_values(s: SimplicialSet):
    """The composite over ``s`` with every value the point is isomorphic to
    ``s``."""
    res = compose(ClubObjectSSet(s, point_family(s)))
    if iso_sset(res.sset, s) is None:
        return [f"point-valued composite not isomorphic to {s.name!r}"]
    return []


def unit_law_point_base(value: SimplicialSet):
    """The composite over the point with value ``value`` is isomorphic to
    ``value``."""
    pt = one_point(value.trunc)
    res = compose(ClubObjectSSet(pt, constant_family(pt, value)))
    if iso_sset(res.sset, value) is None:
        return [f"point-based composite not isomorphic to {value.name!r}"]
    return []


# ---------------------------------------------------------------------------
# two-level families and associativity of composition

class TwoLevelFamily:
    """A family over S together with a family over each pair (s, t).

    ``chi[s]`` is a simplex-indexed family over the value of psi at the
    non-degenerate simplex s; ``s_maps[(s, i, t)]`` transports the value at
    (s, t) along the i-th face of s, landing at the value over the moved pair.
    """

    def __init__(self, base: SimplicialSet, psi: SimplexFamily, chi, s_maps,
                 name=""):
        self.base = base
        self.psi = psi
        self.chi = dict(chi)          # nondeg s -> SimplexFamily over psi.values[s]
        self.s_maps = dict(s_maps)    # (s, i, t_nondeg) -> SimplicialMap
        self.name = name
        self._cache = {}

    @classmethod
    def constant_inner(cls, psi: SimplexFamily, u: SimplicialSet, name=""):
        """The two-level family over psi with every inner value u and every
        transport the identity."""
        s = psi.base
        chi = {y: constant_family(psi.values[y], u)
               for k in range(s.trunc + 1) for y in s.nondeg[k]}
        s_maps = {(y, i, t): identity_smap(u)
                  for k in range(1, s.trunc + 1) for y in s.nondeg[k]
                  for i in range(k + 1)
                  for n in range(s.trunc + 1) for t in psi.values[y].nondeg[n]}
        return cls(s, psi, chi, s_maps, name=name)

    def value(self, s_base, t_base):
        return self.chi[s_base].values[t_base]

    def s_transport(self, x: NormalForm, t: NormalForm, theta: MonotoneMap):
        """Transport of the (x, t) value along the operator on the base side.

        Returns (map, moved_t) where moved_t is the image of t in the value
        of psi over theta* x.
        """
        key = (x, t, theta)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        kappa = compose_maps(x.eta, theta)
        delta, sigma = ez_factor(kappa)
        out = self._s_transport_injective(x.base, t, delta)
        self._cache[key] = out
        return out

    def _s_transport_injective(self, y, t, delta):
        if delta.m == delta.n:
            return identity_smap(self.value(y, t.base)), t
        i, rest = delta.peel_face()
        k = self.base.dim_of[y]
        moved = self.psi.transport(nondeg(y, k), face_map(k, i)).apply(t)
        rec_map, rec_t = self.s_transport(self.base.faces[y][i], moved, rest)
        return compose_smaps(rec_map, self.s_maps[(y, i, t.base)]), rec_t


def validate_two_level(tlf: TwoLevelFamily):
    """Validity of both levels plus coherence of the base-side transports."""
    report = [f"base family: {r}" for r in validate_family(tlf.psi)]
    if report:
        return report
    s = tlf.base
    for k in range(s.trunc + 1):
        for y in s.nondeg[k]:
            fam = tlf.chi.get(y)
            if fam is None:
                report.append(f"inner family missing at {y!r}")
                continue
            if fam.base is not tlf.psi.values[y]:
                report.append(f"inner family at {y!r} has the wrong base")
                continue
            report.extend(f"inner family at {y!r}: {r}"
                          for r in validate_family(fam))
    if report:
        return report
    # endpoints of the base-side generators
    for k in range(1, s.trunc + 1):
        for y in s.nondeg[k]:
            v = tlf.psi.values[y]
            for i in range(k + 1):
                y2 = s.faces[y][i].base
                tmap = tlf.psi.face_maps[(y, i)]
                for n in range(s.trunc + 1):
                    for t in v.nondeg[n]:
                        m = tlf.s_maps.get((y, i, t))
                        if m is None:
                            report.append(f"transport missing at ({y!r}, {i}, {t!r})")
                            continue
                        moved = tmap.apply(nondeg(t, n))
                        if (m.src is not tlf.value(y, t)
                                or m.tgt is not tlf.value(y2, moved.base)):
                            report.append(
                                f"transport at ({y!r}, {i}, {t!r}) has wrong endpoints")
                        else:
                            report.extend(
                                f"transport at ({y!r}, {i}, {t!r}): {r}"
                                for r in validate_smap(m))
    if report:
        return report
    # naturality of the base-side transports in the value direction
    for k in range(1, s.trunc + 1):
        for y in s.nondeg[k]:
            v = tlf.psi.values[y]
            for i in range(k + 1):
                y2 = s.faces[y][i].base
                tmap = tlf.psi.face_maps[(y, i)]
                for n in range(s.trunc + 1):
                    for t in v.all_simplices(n):
                        for m2 in range(s.trunc + 1):
                            for theta in all_monotone_maps(m2, n):
                                t_out = apply_operator(v, t, theta)
                                moved = tmap.apply(t)
                                path1 = compose_smaps(
                                    tlf.chi[y2].transport(moved, theta),
                                    tlf.s_maps[(y, i, t.base)])
                                path2 = compose_smaps(
                                    tlf.s_maps[(y, i, t_out.base)],
                                    tlf.chi[y].transport(t, theta))
                                if not smap_equal(path1, path2):
                                    report.append(
                                        f"transport naturality fails at "
                                        f"({y!r}, {i}, {nf_id(t)!r}, {theta.values!r})")
    if report:
        return report
    # coherence of iterated base-side transports, generator by generator
    for k in range(s.trunc + 1):
        for x in s.all_simplices(k):
            v = tlf.psi.value(x.base)
            for n in range(s.trunc + 1):
                for t in v.nondeg[n]:
                    tn = nondeg(t, n)
                    for m2 in range(s.trunc + 1):
                        for theta in all_monotone_maps(m2, k):
                            step, moved = tlf.s_transport(x, tn, theta)
                            y = apply_operator(s, x, theta)
                            for g in s.generators(m2):
                                nxt, moved2 = tlf.s_transport(y, moved, g)
                                lhs = compose_smaps(nxt, step)
                                rhs, moved3 = tlf.s_transport(
                                    x, tn, compose_maps(theta, g))
                                if moved2 != moved3 or not smap_equal(lhs, rhs):
                                    report.append(
                                        f"transport coherence fails at "
                                        f"({nf_id(x)!r}, {t!r}, {theta.values!r}, "
                                        f"{g.values!r})")
    return report


def constant_two_level(s: SimplicialSet, t: SimplicialSet, u: SimplicialSet):
    """The two-level family with constant values t and u."""
    return TwoLevelFamily.constant_inner(constant_family(s, t), u, name="const2")


def _flattened_family(tlf: TwoLevelFamily, res1: ComposeResult):
    """The two-level data as a family over the composed base."""
    t1 = res1.sset
    s = tlf.base
    values = {}
    for k in range(t1.trunc + 1):
        for uid in t1.nondeg[k]:
            snf, tnf = res1.base_pair_nfs(uid)
            values[uid] = tlf.value(snf.base, tnf.base)
    face_maps = {}
    for k in range(1, t1.trunc + 1):
        for uid in t1.nondeg[k]:
            snf, tnf = res1.base_pair_nfs(uid)
            for i in range(k + 1):
                d = face_map(k, i)
                smap_s, moved = tlf.s_transport(snf, tnf, d)
                s2 = apply_operator(s, snf, d)
                inner = tlf.chi[s2.base].transport(moved, d)
                face_maps[(uid, i)] = compose_smaps(inner, smap_s)
    return SimplexFamily(t1, values, face_maps, name="flattened")


def _inner_composites(tlf: TwoLevelFamily):
    """Per-simplex inner composites assembled into a family over the base."""
    s = tlf.base
    inner_obj = {}
    inner_res = {}
    for k in range(s.trunc + 1):
        for y in s.nondeg[k]:
            obj = ClubObjectSSet(tlf.psi.values[y], tlf.chi[y])
            inner_obj[y] = obj
            inner_res[y] = compose(obj)
    values = {y: inner_res[y].sset for y in inner_res}
    face_maps = {}
    for k in range(1, s.trunc + 1):
        for y in s.nondeg[k]:
            v = tlf.psi.values[y]
            for i in range(k + 1):
                y2 = s.faces[y][i].base
                f = tlf.psi.face_maps[(y, i)]
                phi = {t: tlf.s_maps[(y, i, t)]
                       for n in range(s.trunc + 1) for t in v.nondeg[n]}
                step = ClubMorphismSSet(inner_obj[y], inner_obj[y2], f, phi)
                face_maps[(y, i)] = compose_morphism(step, inner_res[y],
                                                     inner_res[y2])
    return SimplexFamily(s, values, face_maps, name="inner"), inner_res


def sset_equal(a: SimplicialSet, b: SimplicialSet):
    """Strict equality simplex-for-simplex (listing order ignored)."""
    if a.trunc != b.trunc:
        return False
    for k in range(a.trunc + 1):
        if sorted(a.nondeg[k]) != sorted(b.nondeg[k]):
            return False
    for k in range(1, a.trunc + 1):
        for x in a.nondeg[k]:
            if a.faces[x] != b.faces[x]:
                return False
    return True


def associativity_check(tlf: TwoLevelFamily):
    """Both evaluation orders of a two-level family give the same composite.

    The one-step-at-a-time composite composes the base pair first and then
    the flattened values; the inner-first composite composes each fiber pair
    and then the base.  Both are diagonals of the same three-fold data and
    under canonical naming must agree strictly.
    """
    report = []
    bad = validate_two_level(tlf)
    if bad:
        return [f"input: {r}" for r in bad]
    s = tlf.base
    s_lookup = s.normal_forms()

    res1 = compose(ClubObjectSSet(s, tlf.psi))
    flat = _flattened_family(tlf, res1)

    def outer_parts(elt):
        uid, wid = elt
        u_nf = res1.sset.normal_forms()[uid]
        snf, tnf = res1.pair_of(u_nf)
        return (nf_id(snf), nf_id(tnf), wid)

    left = compose(ClubObjectSSet(res1.sset, flat), part_fn=outer_parts)

    inner_fam, inner_res = _inner_composites(tlf)

    def right_parts(elt):
        sid, wid = elt
        snf = s_lookup[sid]
        r = inner_res[snf.base]
        w_nf = r.sset.normal_forms()[wid]
        tnf, wnf = r.pair_of(w_nf)
        return (sid, nf_id(tnf), nf_id(wnf))

    right = compose(ClubObjectSSet(s, inner_fam), part_fn=right_parts)

    if not sset_equal(left.sset, right.sset):
        for k in range(s.trunc + 1):
            l = sorted(left.sset.nondeg[k])
            r = sorted(right.sset.nondeg[k])
            if l != r:
                report.append(
                    f"composites differ at dimension {k}: {len(l)} vs {len(r)} "
                    f"non-degenerate simplices")
                break
        else:
            report.append("composites differ in their face tables")
    return report
