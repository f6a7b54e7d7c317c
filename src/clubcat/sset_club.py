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
equal bidegrees of the bisimplicial set of pairs are built, in one pass on
normal forms: transport along a degeneracy is the identity, so a pair is
degenerate exactly when s and t share a degeneracy, which
``simpset.joint_factor`` splits off as it does for ``simpset.product``, and
only the non-degenerate pairs compute their faces.  Multi-level
composites are named by flattening the component tuples, so the two
evaluation orders of a two-level family produce literally equal simplicial
sets.

A club object is a family: its base is ``family.base``.  A two-level
family is a family of club objects, ``ClubObjectFamily``: its values are
the inner families and its face maps are morphisms of club objects, whose
components are the transports of the inner values along the base.  Its
``psi``, the family of the values' bases, is built from those values and
the base maps of the face maps.  ``SimplexFamily`` takes its value category
(identity, composition and equality) from three class attributes, so one
transport recursion and one functoriality walk serve both levels.

The law walks visit every simplex x, operator theta and generator, but a
check at (x, theta) is a function of (x.base, x.eta∘theta) alone: x is
x.eta applied to the non-degenerate x.base, so theta* x and the transport
along theta depend only on the composite operator out of x.base.  By the
Eilenberg-Zilber lemma many (x, theta) share that key, so one walk,
``_failing_operators``, evaluates a check once per key, in a memo local to
the walk, and yields every (x, theta) that fails, in walk order.  The
functoriality and naturality laws both read it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

from .fincat import FinCategory, Functor, LazyComposites
from .simpset import (MonotoneMap, NormalForm, SimplicialMap, SimplicialSet,
                      apply_operator, compose_maps, compose_smaps, ez_factor,
                      face_map, identity_smap, iso_sset, joint_factor, nf_id,
                      nondeg, one_point, smap_equal, validate_smap,
                      validate_sset)


# ---------------------------------------------------------------------------
# simplex-indexed families

def _failing_operators(s: SimplicialSet, check):
    """Each (x, theta, value) with ``value = check(x, theta)`` truthy, over
    every simplex x of ``s`` and operator theta into x, in walk order; the
    check is evaluated once per key (x.base, x.eta∘theta)."""
    memo = {}
    for k in range(s.trunc + 1):
        for x in s.all_simplices(k):
            for theta in s.operators_into(k):
                key = (x.base, compose_maps(x.eta, theta)._index)
                value = memo.get(key)
                if value is None:
                    value = memo[key] = check(x, theta)
                if value:
                    yield x, theta, value


class SimplexFamily:
    """Simplicial sets indexed by the simplices of a base, in reduced form.

    ``values`` is keyed by non-degenerate simplex ids; ``face_maps[(y, i)]``
    maps the value at y to the value at the non-degenerate base of its i-th
    face.  Degeneracy operators act as identities, so the value at any
    simplex is the value at its base.  Both tables are read-only copies of
    the ones given, so the transports cached from them cannot go stale: a
    family with one entry changed is a new family.

    ``_identity``, ``_compose`` and ``_equal`` are the operations of the
    category the values live in: simplicial sets and their maps here.
    """

    _identity = staticmethod(identity_smap)
    _compose = staticmethod(compose_smaps)
    _equal = staticmethod(smap_equal)

    def __init__(self, base: SimplicialSet, values, face_maps, name=""):
        self.base = base
        self.values = MappingProxyType(dict(values))
        self.face_maps = MappingProxyType(dict(face_maps))
        self.name = name
        self._transport_cache = {}
        self._club_identity = None    # see identity_club_morphism

    def transport(self, x: NormalForm, theta: MonotoneMap):
        """The map value(x) -> value(theta* x) induced by the operator."""
        key = (x, theta._index)
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
            return self._identity(self.values[y])
        i, rest = delta.peel_face()
        return self._compose(self.transport(self.base.faces[y][i], rest),
                             self.face_maps[(y, i)])

    def functoriality_failures(self):
        """Each (x, theta, g) at which transport along theta then along the
        generator g differs from transport along their composite.  Checking
        every (x, theta) against every generator composes to the full
        composition law by induction on decompositions.

        The failing generators read only the key (x.base, x.eta∘theta):
        ``transport(x, theta∘g)`` reads x.base and x.eta∘theta∘g."""
        s = self.base

        def failing_generators(x, theta):
            through = self.transport(x, theta)
            y = apply_operator(s, x, theta)
            return [g for g in s.generators(theta.m)
                    if not self._equal(self._compose(self.transport(y, g), through),
                                       self.transport(x, compose_maps(theta, g)))]

        for x, theta, gens in _failing_operators(s, failing_generators):
            for g in gens:
                yield x, theta, g


def validate_family(fam: SimplexFamily):
    """Endpoint checks plus functoriality against every operator/generator pair."""
    report = []
    s = fam.base
    for y, _ in s.listing():
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
    for y, i in s.face_slots():
        m = fam.face_maps.get((y, i))
        if m is None:
            report.append(f"face map missing at ({y!r}, {i})")
            continue
        if m.src is not fam.values[y] or m.tgt is not fam.values[s.faces[y][i].base]:
            report.append(f"face map at ({y!r}, {i}) has wrong endpoints")
        else:
            report.extend(f"face map at ({y!r}, {i}): {r}" for r in validate_smap(m))
    if report:
        return report
    return [f"functoriality fails at {nf_id(x)!r} with {theta.values!r} "
            f"then {g.values!r}" for x, theta, g in fam.functoriality_failures()]


def constant_family(s: SimplicialSet, t: SimplicialSet, name=""):
    values = {y: t for y, _ in s.listing()}
    face_maps = dict.fromkeys(s.face_slots(), identity_smap(t))
    return SimplexFamily(s, values, face_maps, name=name or f"const({t.name})")


def point_family(s: SimplicialSet):
    return constant_family(s, one_point(s.trunc), name="pointfam")


# ---------------------------------------------------------------------------
# the pairs (s, t) and their diagonal

class ComposeResult(NamedTuple):
    sset: SimplicialSet
    nf_of: dict            # (dim, element) -> normal form in sset
    source: SimplexFamily
    base_pair: dict        # nondeg id in sset -> (s, t) ids of its pair

    def base_pair_nfs(self, uid):
        """The (s, t) normal forms of a nondegenerate simplex of the composite."""
        sid, tid = self.base_pair[uid]
        snf = self.source.base.normal_forms()[sid]
        tnf = self.source.values[snf.base].normal_forms()[tid]
        return snf, tnf

    def pair_of(self, u: NormalForm):
        """The (s, t) pair of any simplex of the composite.  ``u.eta`` is a
        surjection, so the transport along it is the identity."""
        snf, tnf = self.base_pair_nfs(u.base)
        s_out = apply_operator(self.source.base, snf, u.eta)
        t_out = apply_operator(self.source.values[snf.base], tnf, u.eta)
        return s_out, t_out


def compose(fam: SimplexFamily, part_fn=None):
    """The diagonal of the pairs (s, t), with canonical naming.

    Pairs are visited by dimension, then s, then t, each in canonical order.
    A degenerate pair is the shared degeneracy of s and t applied to a
    non-degenerate pair one dimension down; the face i of a non-degenerate
    pair is (d_i s, d_i(transport(s, d_i)(t))).

    ``part_fn`` may unfold an element into its atomic component tuple; the
    default treats the two components as atoms.  Nested composites flatten
    to the same names either way they are evaluated.
    """
    if part_fn is None:
        def part_fn(elt):
            return elt

    s = fam.base
    nondeg_by_dim = {k: [] for k in range(s.trunc + 1)}
    faces, nf_of, base_pair = {}, {}, {}
    for k in range(s.trunc + 1):
        for snf in s.all_simplices(k):
            sid = nf_id(snf)
            for tnf in fam.values[snf.base].all_simplices(k):
                elt = (sid, nf_id(tnf))
                sigma, e1, e2 = joint_factor(snf.eta, tnf.eta)
                if not sigma.is_identity():
                    low = (nf_id(NormalForm(e1, snf.base)),
                           nf_id(NormalForm(e2, tnf.base)))
                    nf_of[(k, elt)] = NormalForm(sigma, nf_of[(sigma.n, low)].base)
                    continue
                uid = "|".join(part_fn(elt))
                nf_of[(k, elt)] = nondeg(uid, k)
                nondeg_by_dim[k].append(uid)
                base_pair[uid] = elt
                if k:
                    fs = faces[uid] = []
                    for i in range(k + 1):
                        d = face_map(k, i)
                        s2 = apply_operator(s, snf, d)
                        t2 = apply_operator(fam.values[s2.base],
                                            fam.transport(snf, d).apply(tnf), d)
                        fs.append(nf_of[(k - 1, (nf_id(s2), nf_id(t2)))])
    sset = SimplicialSet(s.trunc, nondeg_by_dim, faces, name=f"diagT({s.name})")
    return ComposeResult(sset, nf_of, fam, base_pair)


# ---------------------------------------------------------------------------
# the comparison functor into the pair category

class PairCategorySSet(NamedTuple):
    """The category of pairs (s, t) with operator morphisms, materialized."""

    cat: FinCategory
    obj_id: dict
    obj_data: dict
    mor_id: dict
    mor_data: dict


def pair_category_sset(fam: SimplexFamily):
    """Materialize the pair category of a family (small fixtures only): its
    objects and morphisms in full, its composites on read.

    Objects are the pairs (s, t), by s in canonical order, then t.  The
    morphisms out of (s, t) are the pairs (theta, theta2), theta acting on
    s and transporting t, theta2 acting on the moved t, listed by theta and
    then theta2.  theta* s and the transport are computed once per (s,
    theta); the morphisms (theta2, target) out of a moved simplex over
    theta* s are one row, built once and read by every morphism landing
    there."""
    s = fam.base
    trunc = s.trunc
    objects = []
    obj_id, obj_data = {}, {}
    by_base = []
    for k in range(trunc + 1):
        for snf in s.all_simplices(k):
            oid = nf_id(snf)
            v = fam.values[snf.base]
            pids = []
            for n in range(trunc + 1):
                for tnf in v.all_simplices(n):
                    pid = f"{oid}&{nf_id(tnf)}"
                    objects.append(pid)
                    pids.append((pid, tnf))
                    obj_id[(oid, nf_id(tnf))] = pid
                    obj_data[pid] = (snf, tnf)
            by_base.append((snf, pids))
    rows = {}

    def row(s2id, v2, moved):
        """(theta2, label, target pair, is identity) for each operator on
        the simplex ``moved`` of the value ``v2`` over the simplex s2id."""
        key = (s2id, moved)
        out = rows.get(key)
        if out is None:
            out = rows[key] = [
                (theta2, "!" + theta2.label,
                 obj_id[(s2id, nf_id(apply_operator(v2, moved, theta2)))],
                 theta2.is_identity())
                for theta2 in s.operators_into(moved.dim)]
        return out

    morphisms = []
    mor_id, mor_data = {}, {}
    identities = {}
    for snf, pids in by_base:
        steps = []
        for theta in s.operators_into(snf.dim):
            s2 = apply_operator(s, snf, theta)
            steps.append((theta, "!" + theta.label, nf_id(s2),
                          fam.values[s2.base], fam.transport(snf, theta)))
        for pid, tnf in pids:
            for theta, label, s2id, v2, step in steps:
                head = pid + label
                is_id = theta.is_identity()
                for theta2, label2, tgt, is_id2 in row(s2id, v2,
                                                       step.apply(tnf)):
                    mid = head + label2
                    morphisms.append((mid, pid, tgt))
                    mor_id[(pid, theta, theta2)] = mid
                    mor_data[mid] = (theta, theta2)
                    if is_id and is_id2:
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

    src: SimplexFamily
    tgt: SimplexFamily
    f: SimplicialMap
    phi: dict              # nondeg base simplex id -> SimplicialMap


def validate_club_morphism(m: ClubMorphismSSet):
    report = [f"base map: {r}" for r in validate_smap(m.f)]
    if report:
        return report
    fam1, fam2 = m.src, m.tgt
    if m.f.src is not fam1.base or m.f.tgt is not fam2.base:
        return ["base map has wrong endpoints"]
    s = fam1.base
    for y, _ in s.listing():
        comp = m.phi.get(y)
        if comp is None:
            report.append(f"component missing at {y!r}")
        elif (comp.src is not fam1.values[y]
              or comp.tgt is not fam2.values[m.f.images[y].base]):
            report.append(f"component at {y!r} has wrong endpoints")
        else:
            report.extend(f"component at {y!r}: {r}" for r in validate_smap(comp))
    if report:
        return report
    # the square at (x, theta) reads only x.base and kappa = x.eta∘theta:
    # f(x) is x.eta applied to f(x.base), whose operator part is surjective,
    # so f(x).eta∘theta is f(x.base).eta∘kappa.

    def unnatural(x, theta):
        y = apply_operator(s, x, theta)
        lhs = compose_smaps(m.phi[y.base], fam1.transport(x, theta))
        rhs = compose_smaps(fam2.transport(m.f.apply(x), theta), m.phi[x.base])
        return not smap_equal(lhs, rhs)

    return [f"naturality fails at {nf_id(x)!r} with {theta.values!r}"
            for x, theta, _ in _failing_operators(s, unnatural)]


def identity_club_morphism(fam: SimplexFamily):
    """The identity of a club object, built once per family."""
    if fam._club_identity is None:
        s = fam.base
        phi = {y: identity_smap(fam.values[y]) for y, _ in s.listing()}
        fam._club_identity = ClubMorphismSSet(fam, fam, identity_smap(s), phi)
    return fam._club_identity


def compose_club_morphisms(g: ClubMorphismSSet, m: ClubMorphismSSet):
    """g after m: the base maps composed, and at y the component of g at
    the image of y after the component of m at y.  Composing with an
    identity from ``identity_club_morphism`` returns the other morphism."""
    if m is m.src._club_identity:
        return g
    if g is g.src._club_identity:
        return m
    phi = {y: compose_smaps(g.phi[m.f.images[y].base], comp)
           for y, comp in m.phi.items()}
    return ClubMorphismSSet(m.src, g.tgt, compose_smaps(g.f, m.f), phi)


def club_morphism_equal(a: ClubMorphismSSet, b: ClubMorphismSSet):
    return a is b or (smap_equal(a.f, b.f) and a.phi.keys() == b.phi.keys()
                      and all(smap_equal(c, b.phi[y]) for y, c in a.phi.items()))


def compose_morphism(m: ClubMorphismSSet, res_src: ComposeResult,
                     res_tgt: ComposeResult):
    """The induced map of composites ``res_src`` -> ``res_tgt`` of ``m``'s
    source and target: (s, t) goes to (f(s), phi_s(t))."""
    images = {}
    for uid, k in res_src.sset.listing():
        snf, tnf = res_src.base_pair_nfs(uid)
        s2 = m.f.apply(snf)
        t2 = m.phi[snf.base].apply(tnf)
        images[uid] = res_tgt.nf_of[(k, (nf_id(s2), nf_id(t2)))]
    return SimplicialMap(res_src.sset, res_tgt.sset, images,
                         name="composed")


def delta_naturality_check(morphisms):
    """For each morphism, the square of comparison data commutes elementwise.

    Compares, for every simplex u of the source composite (degenerate ones
    included, by dimension and then in canonical order), the pair of g(u),
    g the induced map of composites, with the pair reached by acting on the
    pair of u componentwise.  The comparison is per simplex: no operator is
    walked.

    ``compose_morphism`` builds g from the same f and phi that the
    componentwise route reads, so the square commutes for every well-typed
    phi.  The check therefore tests that the names ``compose`` gives and
    ``ComposeResult.pair_of`` agree; a wrong phi goes undetected here, and
    ``validate_club_morphism`` is what checks it.
    """
    report = []
    for idx, m in enumerate(morphisms):
        res1 = compose(m.src)
        res2 = compose(m.tgt)
        g = compose_morphism(m, res1, res2)
        for k in range(res1.sset.trunc + 1):
            for u in res1.sset.all_simplices(k):
                s1, t1 = res1.pair_of(u)
                # route 1: map the composite simplex, then take its pair
                s2a, t2a = res2.pair_of(g.apply(u))
                # route 2: act on the pair componentwise
                s2b = m.f.apply(s1)
                t2b = m.phi[s1.base].apply(t1)
                if (nf_id(s2a), nf_id(t2a)) != (nf_id(s2b), nf_id(t2b)):
                    report.append(
                        f"sample {idx}: comparison square fails at {nf_id(u)!r}")
    return report


# ---------------------------------------------------------------------------
# unit laws

def unit_law_point_values(s: SimplicialSet):
    """The composite over ``s`` with every value the point is isomorphic to
    ``s``."""
    res = compose(point_family(s))
    if iso_sset(res.sset, s) is None:
        return [f"point-valued composite not isomorphic to {s.name!r}"]
    return []


def unit_law_point_base(value: SimplicialSet):
    """The composite over the point with value ``value`` is isomorphic to
    ``value``."""
    pt = one_point(value.trunc)
    res = compose(constant_family(pt, value))
    if iso_sset(res.sset, value) is None:
        return [f"point-based composite not isomorphic to {value.name!r}"]
    return []


# ---------------------------------------------------------------------------
# two-level families and associativity of composition

class ClubObjectFamily(SimplexFamily):
    """A family whose values are families, the club objects, and whose face
    maps are morphisms of club objects: a two-level family.

    ``values[y]`` is the inner family over the value of psi at y, and
    ``face_maps[(y, i)].phi[t]`` transports the value at (y, t) along the
    i-th face of y.  ``psi``, the family of the values' bases with the base
    maps of the face maps, is built from them; the tables are read-only, so
    psi cannot go stale."""

    _identity = staticmethod(identity_club_morphism)
    _compose = staticmethod(compose_club_morphisms)
    _equal = staticmethod(club_morphism_equal)

    def __init__(self, base: SimplicialSet, values, face_maps, name=""):
        super().__init__(base, values, face_maps, name=name)
        self.psi = SimplexFamily(
            base, {y: fam.base for y, fam in self.values.items()},
            {key: m.f for key, m in self.face_maps.items()}, name="psi")


def constant_inner(psi: SimplexFamily, u: SimplicialSet, name=""):
    """The two-level family over psi with every inner value u and every
    transport the identity."""
    s = psi.base
    values = {y: constant_family(psi.values[y], u) for y, _ in s.listing()}
    face_maps = {}
    for (y, i), f in psi.face_maps.items():
        phi = {t: identity_smap(u) for t, _ in psi.values[y].listing()}
        face_maps[(y, i)] = ClubMorphismSSet(
            values[y], values[s.faces[y][i].base], f, phi)
    return ClubObjectFamily(s, values, face_maps, name=name)


def validate_two_level(tlf: ClubObjectFamily):
    """Validity of both levels, each base-side face transport as a morphism
    of club objects, then functoriality of the two-level family."""
    s = tlf.base
    report = [f"inner family missing at {y!r}"
              for y, _ in s.listing() if y not in tlf.values]
    if report:
        return report
    report = [f"base family: {r}" for r in validate_family(tlf.psi)]
    if report:
        return report
    for y, _ in s.listing():
        report.extend(f"inner family at {y!r}: {r}"
                      for r in validate_family(tlf.values[y]))
    if report:
        return report
    for y, i in s.face_slots():
        step = tlf.face_maps[(y, i)]
        if (step.src is not tlf.values[y]
                or step.tgt is not tlf.values[s.faces[y][i].base]):
            report.append(f"transport along ({y!r}, {i}) has wrong endpoints")
        else:
            report.extend(f"transport {r} along ({y!r}, {i})"
                          for r in validate_club_morphism(step))
    if report:
        return report
    return [f"transport coherence fails at ({nf_id(x)!r}, {theta.values!r}, "
            f"{g.values!r})" for x, theta, g in tlf.functoriality_failures()]


def constant_two_level(s: SimplicialSet, t: SimplicialSet, u: SimplicialSet):
    """The two-level family with constant values t and u."""
    return constant_inner(constant_family(s, t), u, name="const2")


def _flattened_family(tlf: ClubObjectFamily, res1: ComposeResult):
    """The two-level data as a family over the composed base."""
    t1 = res1.sset
    values = {}
    for uid, _ in t1.listing():
        snf, tnf = res1.base_pair_nfs(uid)
        values[uid] = tlf.values[snf.base].values[tnf.base]
    face_maps = {}
    for uid, i in t1.face_slots():
        snf, tnf = res1.base_pair_nfs(uid)
        d = face_map(snf.dim, i)
        step = tlf.transport(snf, d)
        inner = step.tgt.transport(step.f.apply(tnf), d)
        face_maps[(uid, i)] = compose_smaps(inner, step.phi[tnf.base])
    return SimplexFamily(t1, values, face_maps, name="flattened")


def _inner_composites(tlf: ClubObjectFamily):
    """Per-simplex inner composites assembled into a family over the base."""
    s = tlf.base
    inner_res = {y: compose(tlf.values[y]) for y, _ in s.listing()}
    values = {y: res.sset for y, res in inner_res.items()}
    face_maps = {(y, i): compose_morphism(tlf.face_maps[(y, i)], inner_res[y],
                                          inner_res[s.faces[y][i].base])
                 for y, i in s.face_slots()}
    return SimplexFamily(s, values, face_maps, name="inner"), inner_res


def sset_equal(a: SimplicialSet, b: SimplicialSet):
    """Strict equality simplex-for-simplex (listing order ignored)."""
    if a.trunc != b.trunc:
        return False
    for k in range(a.trunc + 1):
        if sorted(a.nondeg[k]) != sorted(b.nondeg[k]):
            return False
    return all(a.faces[x] == b.faces[x] for x, k in a.listing() if k)


def associativity_check(tlf: ClubObjectFamily):
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

    res1 = compose(tlf.psi)
    flat = _flattened_family(tlf, res1)

    def outer_parts(elt):
        uid, wid = elt
        u_nf = res1.sset.normal_forms()[uid]
        snf, tnf = res1.pair_of(u_nf)
        return (nf_id(snf), nf_id(tnf), wid)

    left = compose(flat, part_fn=outer_parts)

    inner_fam, inner_res = _inner_composites(tlf)

    def right_parts(elt):
        sid, wid = elt
        snf = s_lookup[sid]
        r = inner_res[snf.base]
        w_nf = r.sset.normal_forms()[wid]
        tnf, wnf = r.pair_of(w_nf)
        return (sid, nf_id(tnf), nf_id(wnf))

    right = compose(inner_fam, part_fn=right_parts)

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
