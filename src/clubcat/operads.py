"""Set-level operads, their diagram encodings, and the club correspondence.

A non-symmetric operad is stored as graded levels with a unit and an explicit
composition table gamma, truncated at a maximal arity: entries exist exactly
when the output arity fits under the cap, and all law checking quantifies
over the entries that exist.

Encodings: a collection becomes a diagram with discrete base (one object per
element, labelled "<arity>:<name>") whose fiber over an arity-n element is
the ordered discrete category on n objects.  In the symmetric case the base
gains the permutations carrying one element to another, acting on fibers by
position.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .config import DEFAULT_GUARDRAILS, Guardrails
from .diagram import (DiagramInCat, DiagramMorphism, unit_diagram,
                      validate_diagram_morphism)
from .errors import InputError
from .fincat import (FinCategory, Functor, discrete_category,
                     identity_functor, ordinal_category, terminal_category)
from .semidirect import (ClubStructure, SemidirectProduct, _verify_iso,
                         build_semidirect)


class Collection:
    """Graded finite sets of operation names, up to a maximal arity."""

    def __init__(self, cap, levels, name=""):
        self.cap = cap
        self.levels = {n: list(levels.get(n, [])) for n in range(cap + 1)}
        self.name = name

    def arity_of(self, elem):
        for n, elems in self.levels.items():
            if elem in elems:
                return n
        raise InputError(f"unknown element {elem!r}")

    def all_elements(self):
        return [(n, p) for n in range(self.cap + 1) for p in self.levels[n]]

    def __repr__(self):
        sizes = [len(self.levels[n]) for n in range(self.cap + 1)]
        return f"Collection({self.name!r}, sizes={sizes})"


def validate_collection(p: Collection):
    report = []
    seen = set()
    for n in range(p.cap + 1):
        for e in p.levels[n]:
            if e in seen:
                report.append(f"element name {e!r} reused across levels")
            seen.add(e)
    return report


class NsOperad(Collection):
    """A collection with a unit in arity one and total in-cap compositions."""

    def __init__(self, cap, levels, unit, gamma, name=""):
        Collection.__init__(self, cap, levels, name=name)
        self.unit = unit
        self.gamma = dict(gamma)     # (p, (q1, ..., qn)) -> r

    def compose(self, p, args):
        args = tuple(args)
        if not args and p in self.levels[0]:
            return p
        return self.gamma[(p, args)]


def _bounded_tuples(n, pool, cap):
    """Each n-tuple of items of ``pool``, a list of (arity, item) pairs, whose
    arities sum to at most ``cap``, with that sum.

    Tuples come in lexicographic order of pool positions, the first position
    varying slowest.
    """
    if n == 0:
        yield (), 0
        return
    for m, item in pool:
        if m <= cap:
            for rest, total in _bounded_tuples(n - 1, pool, cap - m):
                yield (item,) + rest, m + total


def _composable_tuples(p: NsOperad):
    """All (p, args) with the output arity within the cap, n >= 1."""
    pool = p.all_elements()
    return [(op, args) for n in range(1, p.cap + 1) for op in p.levels[n]
            for args, _ in _bounded_tuples(n, pool, p.cap)]


def validate_ns_operad(p: NsOperad):
    """Totality, unit laws and associativity of gamma within the cap."""
    report = validate_collection(p)
    if p.unit not in p.levels.get(1, []):
        report.append("unit is not an element of arity one")
        return report
    tuples = _composable_tuples(p)
    tuple_set = set(tuples)
    for (op, args) in tuples:
        key = (op, args)
        if key not in p.gamma:
            report.append(f"gamma missing at {key!r}")
            continue
        out = p.gamma[key]
        want = sum(p.arity_of(q) for q in args)
        if out not in p.levels.get(want, []):
            report.append(f"gamma at {key!r} lands at {out!r}, not in arity {want}")
    for key in p.gamma:
        if key not in tuple_set:
            report.append(f"gamma entry {key!r} outside the cap or malformed")
    if report:
        return report
    for n in range(1, p.cap + 1):
        for op in p.levels[n]:
            if p.gamma[(op, tuple(p.unit for _ in range(n)))] != op:
                report.append(f"right unit law fails at {op!r}")
    for m in range(p.cap + 1):
        for q in p.levels[m]:
            if p.gamma[(p.unit, (q,))] != q:
                report.append(f"left unit law fails at {q!r}")
    # associativity: gamma(gamma(p; qs); rs) = gamma(p; gamma(q_i; r-segment))
    for (op, qs) in tuples:
        n = len(qs)
        arities = [p.arity_of(q) for q in qs]
        total = sum(arities)
        if total == 0:
            continue
        inner = p.gamma[(op, qs)]
        for (op2, rs) in tuples:
            if op2 != inner:
                continue
            if len(rs) != total:
                continue
            lhs = p.gamma[(inner, rs)]
            segments = []
            pos = 0
            for m in arities:
                segments.append(rs[pos:pos + m])
                pos += m
            mids = []
            for q, seg in zip(qs, segments):
                mids.append(p.compose(q, seg))
            rhs = p.gamma[(op, tuple(mids))]
            if lhs != rhs:
                report.append(
                    f"associativity fails at ({op!r}; {qs!r}) with {rs!r}")
    return report


# ---------------------------------------------------------------------------
# standard fixtures

def associative_operad(cap, with_nullary=False, name="assoc"):
    lo = 0 if with_nullary else 1
    levels = {n: [f"a{n}"] for n in range(lo, cap + 1)}
    op = NsOperad(cap, levels, "a1", {}, name=name)
    gamma = {(p, args): f"a{sum(op.arity_of(q) for q in args)}"
             for (p, args) in _composable_tuples(op)}
    return NsOperad(cap, levels, "a1", gamma, name=name)


def monoid_operad(table, unit, name="monoid"):
    """An operad concentrated in arity one: a finite monoid."""
    elems = sorted(table)
    cap = 1
    levels = {1: elems}
    gamma = {(a, (b,)): table[a][b] for a in elems for b in elems}
    return NsOperad(cap, levels, unit, gamma, name=name)


def cyclic_group_operad(order, name=None):
    elems = [str(i) for i in range(order)]
    table = {a: {b: str((int(a) + int(b)) % order) for b in elems} for a in elems}
    return monoid_operad(table, "0", name=name or f"Z{order}")


def free_operad(generators, cap, name="free"):
    """The free operad on single-character generators, truncated at cap.

    Elements are prefix strings over generators and the leaf symbol "_";
    composition substitutes arguments into leaves left to right.
    """
    for ar, names in generators.items():
        if ar < 2:
            raise InputError("free operad generators must have arity >= 2 "
                             "(lower arities make the term set infinite)")
        for g in names:
            if len(g) != 1 or g == "_":
                raise InputError("free operad generators must be single characters")
    arity_of_gen = {g: ar for ar, names in generators.items() for g in names}

    levels = {n: [] for n in range(cap + 1)}
    levels[1].append("_")

    # all terms with <= cap leaves, closed under root application
    def build(max_leaves):
        terms = {1: ["_"]}
        changed = True
        all_terms = {"_"}
        while changed:
            changed = False
            for g, ar in sorted(arity_of_gen.items()):
                pools = []
                for k, ts in sorted(terms.items()):
                    pools.extend((k, t) for t in ts)
                for combo in itertools.product(pools, repeat=ar):
                    total = sum(k for (k, _) in combo)
                    if total > max_leaves:
                        continue
                    term = g + "".join(t for (_, t) in combo)
                    if term not in all_terms:
                        all_terms.add(term)
                        terms.setdefault(total, []).append(term)
                        changed = True
        return terms

    terms = build(cap)
    for k, ts in terms.items():
        if k <= cap:
            levels[k] = sorted(set(ts), key=lambda t: (len(t), t))

    def substitute(term, args):
        out = []
        it = iter(args)
        for ch in term:
            if ch == "_":
                out.append(next(it))
            else:
                out.append(ch)
        return "".join(out)

    op = NsOperad(cap, levels, "_", {}, name=name)
    gamma = {}
    for (p, args) in _composable_tuples(op):
        gamma[(p, args)] = substitute(p, args)
    return NsOperad(cap, levels, "_", gamma, name=name)


# ---------------------------------------------------------------------------
# diagram encodings (non-symmetric)

class EncodedCollection(NamedTuple):
    diagram: DiagramInCat
    obj_of: dict          # element -> base object id
    elem_of: dict         # base object id -> (arity, element)
    # (permutation, source object id) <-> morphism id; empty when not symmetric
    mor_of: dict
    mor_data: dict


def _encoded_objects(p: Collection):
    """One base object id "<arity>:<element>" per element, in level order,
    with the maps from elements to ids and back."""
    elements = p.all_elements()
    objects = [f"{n}:{e}" for n, e in elements]
    elem_of = dict(zip(objects, elements))
    obj_of = {e: oid for oid, (_, e) in elem_of.items()}
    return objects, obj_of, elem_of


def encode_ns(p: Collection):
    """Discrete base with one object per element; fibers are ordered tuples."""
    objects, obj_of, elem_of = _encoded_objects(p)
    fibers, fiber_mor = {}, {}
    base = discrete_category(objects, name=f"P({p.name})")
    for oid in objects:
        n, _ = elem_of[oid]
        fibers[oid] = ordinal_category(n)
        fiber_mor[base.identity(oid)] = identity_functor(fibers[oid])
    return EncodedCollection(
        DiagramInCat(base, fibers, fiber_mor, name=f"enc({p.name})"),
        obj_of, elem_of, {}, {})


def _composite_name(op, args):
    return f"{op}[" + ",".join(args) + "]"


def _composite_tuples(p: Collection, q: Collection):
    """Each element of the composite collection of p and q: its name, the
    (op, args) tuple it names and its total arity."""
    cap = min(p.cap, q.cap)
    pool = q.all_elements()
    for n, op in p.all_elements():
        for args, total in _bounded_tuples(n, pool, cap):
            yield _composite_name(op, args), (op, args), total


def circ(p: Collection, q: Collection):
    """The composite collection: tuples (op; args) graded by total arity."""
    cap = min(p.cap, q.cap)
    levels = {k: [] for k in range(cap + 1)}
    for name, _, total in _composite_tuples(p, q):
        levels[total].append(name)
    return Collection(cap, levels, name=f"({p.name}∘{q.name})")


def _square_within_cap(enc: EncodedCollection, cap, guard):
    """The product of the encoding with itself, restricted to the objects
    whose total landing arity is at most ``cap``."""
    base = enc.diagram.base
    pool = [(enc.elem_of[oid][0], oid) for oid in base.objects]
    keep = {}
    for oid in base.objects:
        n, _ = enc.elem_of[oid]
        keep[oid] = {(chosen, tuple(base.identities[o] for o in chosen))
                     for chosen, _ in _bounded_tuples(n, pool, cap)}
    return build_semidirect(enc.diagram, enc.diagram, guard, keep=keep)


def _decode(elem_of, prod: SemidirectProduct, oid):
    """The (op, args) pair that a product object of an encoding stands for."""
    d, psi = prod.obj_data[oid]
    n, op = elem_of[d]
    return op, tuple(elem_of[psi.omap[str(i)]][1] for i in range(n))


def _flat_order(carrier: DiagramInCat, prod: SemidirectProduct, oid):
    """The fiber objects of a product object in flattened order: by position
    in the operation, then by position in that argument."""
    d, psi = prod.obj_data[oid]
    fib = prod.fibers[oid]
    return [fib.obj_id[(a, b)]
            for a in carrier.fiber_obj[d].objects
            for b in carrier.fiber_obj[psi.omap[a]].objects]


def _order_functor(kfib: FinCategory, fib, order):
    """The order-preserving functor from an ordinal fiber onto a flattened
    product fiber: position l goes to order[l]."""
    fomap = {str(l): pid for l, pid in enumerate(order)}
    fmmap = {kfib.identity(str(l)): fib.cat.identity(pid)
             for l, pid in enumerate(order)}
    return Functor(kfib, fib.cat, fomap, fmmap)


class NsIsoResult(NamedTuple):
    forward: DiagramMorphism
    product: SemidirectProduct
    composite_encoding: EncodedCollection
    problems: list     # from ``_verify_iso``; empty when forward is invertible


def ns_iso_check(p: Collection, guard: Guardrails = DEFAULT_GUARDRAILS):
    """Exhibit the isomorphism from the encoded composite collection to the
    (arity-truncated) product of the encoding with itself; ``problems`` is
    empty when it is invertible."""
    enc = encode_ns(p)
    pp = circ(p, p)
    tuple_of = {name: tup for name, tup, _ in _composite_tuples(p, p)}
    enc_pp = encode_ns(pp)
    prod = _square_within_cap(enc, p.cap, guard)

    def product_oid(op, args):
        oid = enc.obj_of[op]
        omap_t = tuple(enc.obj_of[q] for q in args)
        mmap_t = tuple(enc.diagram.base.identities[o] for o in omap_t)
        return prod.obj_id[(oid, (omap_t, mmap_t))]

    # forward: encoded composite -> product
    omap, mmap = {}, {}
    rho = {}
    for cid in enc_pp.diagram.base.objects:
        _, elem = enc_pp.elem_of[cid]
        op, args = tuple_of[elem]
        oid = product_oid(op, args)
        omap[cid] = oid
        mmap[enc_pp.diagram.base.identity(cid)] = prod.diagram.base.identity(oid)
        fib = prod.fibers[oid]
        kfib = enc_pp.diagram.fiber_obj[cid]
        order = _flat_order(enc.diagram, prod, oid)
        fomap = {pid: str(l) for l, pid in enumerate(order)}
        fmmap = {fib.cat.identity(pid): kfib.identity(str(l))
                 for l, pid in enumerate(order)}
        rho[cid] = Functor(fib.cat, kfib, fomap, fmmap)
    base_fwd = Functor(enc_pp.diagram.base, prod.diagram.base, omap, mmap)
    forward = DiagramMorphism(enc_pp.diagram, prod.diagram, base_fwd, rho,
                              name="tuple-to-pair")
    return NsIsoResult(forward, prod, enc_pp, _verify_iso(forward))


# ---------------------------------------------------------------------------
# operads as clubs

def _club_from_encoding(p: NsOperad, enc: EncodedCollection, guard):
    """Build the multiplication and unit of an encoded operad.

    mu sends a pair (op, args) to gamma(op; args) with the order-preserving
    identification of the flattened fiber, identities to identities, and any
    other morphism to the block permutation it makes of the flattened
    inputs; eta picks the unit.
    """
    prod = _square_within_cap(enc, p.cap, guard)
    base = enc.diagram.base
    pbase = prod.diagram.base

    omap, mmap, rho = {}, {}, {}
    for oid in pbase.objects:
        op, args = _decode(enc.elem_of, prod, oid)
        result = p.compose(op, args)
        roid = enc.obj_of.get(result)
        if roid is None:
            # signal breakage structurally; club_check reports it
            roid = base.objects[0]
        omap[oid] = roid
        kfib = enc.diagram.fiber_obj[roid]
        order = _flat_order(enc.diagram, prod, oid)
        if len(order) == len(kfib.objects):
            rho[oid] = _order_functor(kfib, prod.fibers[oid], order)
        else:
            rho[oid] = Functor(kfib, prod.fibers[oid].cat, {}, {})
    for mid in pbase.mor_ids:
        roid = omap[pbase.src[mid]]
        if pbase.is_identity(mid):
            mmap[mid] = base.identity(roid)
        else:
            perm = enc.mor_of.get((_block_of(enc, prod, mid), roid))
            # a result of the wrong arity has no such permutation: leave the
            # entry unset, and club_check reports the broken mu
            if perm is not None:
                mmap[mid] = perm
    mu = DiagramMorphism(prod.diagram, enc.diagram,
                         Functor(pbase, base, omap, mmap), rho, name="mu")

    u = unit_diagram()
    e_oid = enc.obj_of[p.unit]
    eta_base = Functor(u.base, base, {"*": e_oid}, {"id_*": base.identity(e_oid)})
    one = terminal_category()
    efib = enc.diagram.fiber_obj[e_oid]
    eta_rho = {"*": Functor(efib, one, {o: "*" for o in efib.objects},
                            {m: "id_*" for m in efib.mor_ids})}
    eta = DiagramMorphism(u, enc.diagram, eta_base, eta_rho, name="eta")
    return ClubStructure(enc.diagram, prod, mu, eta, cap=p.cap)


def operad_to_club(p: NsOperad, guard: Guardrails = DEFAULT_GUARDRAILS):
    """The club structure on the non-symmetric encoding of an operad."""
    return _club_from_encoding(p, encode_ns(p), guard)


def club_to_operad(s: ClubStructure):
    """Read the composition table back from a club on an encoded collection.

    Requires the rho components to be the unique order-preserving invertible
    identifications; raises otherwise.
    """
    base = s.carrier.base
    levels = {}
    elem_of = {}
    for oid in base.objects:
        n_str, _, e = oid.partition(":")
        n = int(n_str)
        levels.setdefault(n, []).append(e)
        elem_of[oid] = (n, e)
    # the truncation bound is invisible when the top levels are empty, so
    # prefer the recorded one
    cap = s.cap
    if cap is None:
        cap = max(levels) if levels else 0
    for k in range(cap + 1):
        levels.setdefault(k, [])
    unit_oid = s.eta.base_functor.omap["*"]
    unit = elem_of[unit_oid][1]
    gamma = {}
    p = s.product
    for oid in p.diagram.base.objects:
        op, args = _decode(elem_of, p, oid)
        result_oid = s.mu.base_functor.omap[oid]
        if not args:
            continue
        gamma[(op, args)] = elem_of[result_oid][1]
        # rho must be the order-preserving identification
        order = _flat_order(s.carrier, p, oid)
        expected = {str(l): pid for l, pid in enumerate(order)}
        if s.mu.rho[oid].omap != expected:
            raise InputError(
                f"rho at {oid!r} is not the order-preserving identification")
    return NsOperad(cap, levels, unit, gamma, name="decoded")


def club_round_trips(p: NsOperad, guard: Guardrails = DEFAULT_GUARDRAILS):
    """Whether reading the club of ``p`` back gives its levels, unit and
    composition table."""
    back = club_to_operad(operad_to_club(p, guard))
    return (back.gamma == p.gamma and back.unit == p.unit
            and back.levels == p.levels)


# ---------------------------------------------------------------------------
# symmetric operads

def _perm_compose(s, t):
    """(s ∘ t)[i] = s[t[i]]."""
    return tuple(s[t[i]] for i in range(len(t)))


def _perm_inverse(s):
    out = [0] * len(s)
    for i, v in enumerate(s):
        out[v] = i
    return tuple(out)


def _perm_id(n):
    return tuple(range(n))


def _all_perms(n):
    return sorted(itertools.permutations(range(n)))


def block_permutation(sigma, taus, sizes):
    """The permutation of the flattened inputs induced by permuting blocks.

    ``sizes[i]`` is the size of source block i; block i lands at position
    sigma[i] with its entries permuted by taus[i].
    """
    n = len(sizes)
    tgt_sizes = [0] * n
    for i in range(n):
        tgt_sizes[sigma[i]] = sizes[i]
    tgt_offsets = [sum(tgt_sizes[:l]) for l in range(n)]
    src_offsets = [sum(sizes[:i]) for i in range(n)]
    total = sum(sizes)
    out = [0] * total
    for i in range(n):
        for j in range(sizes[i]):
            out[src_offsets[i] + j] = tgt_offsets[sigma[i]] + taus[i][j]
    return tuple(out)


class SymCollection(Collection):
    """A collection with a left action of each symmetric group on its level."""

    def __init__(self, cap, levels, actions, name=""):
        super().__init__(cap, levels, name=name)
        # actions[n][(perm, elem)] = image element
        self.actions = {n: dict(actions.get(n, {})) for n in range(cap + 1)}

    def act(self, perm, elem):
        n = self.arity_of(elem)
        if len(perm) != n:
            raise InputError(f"permutation of length {len(perm)} on arity {n}")
        if n <= 1:
            return elem
        return self.actions[n][(tuple(perm), elem)]


def trivial_actions(cap, levels):
    actions = {}
    for n in range(cap + 1):
        actions[n] = {(perm, e): e
                      for perm in _all_perms(n) for e in levels.get(n, [])}
    return actions


def validate_sym_collection(p: SymCollection):
    report = validate_collection(p)
    for n in range(2, p.cap + 1):
        perms = _all_perms(n)
        for e in p.levels[n]:
            for perm in perms:
                if (perm, e) not in p.actions[n]:
                    report.append(f"action missing at ({perm!r}, {e!r})")
    if report:
        return report
    for n in range(2, p.cap + 1):
        perms = _all_perms(n)
        for e in p.levels[n]:
            if p.act(_perm_id(n), e) != e:
                report.append(f"identity action fails at {e!r}")
            for s in perms:
                if p.act(s, e) not in p.levels[n]:
                    report.append(f"action leaves the level at ({s!r}, {e!r})")
                for t in perms:
                    if p.act(_perm_compose(s, t), e) != p.act(s, p.act(t, e)):
                        report.append(
                            f"action composition fails at ({s!r}, {t!r}, {e!r})")
    return report


class SymOperad(NsOperad, SymCollection):
    """An operad with symmetric group actions, equivariant compositions."""

    def __init__(self, cap, levels, unit, gamma, actions, name=""):
        NsOperad.__init__(self, cap, levels, unit, gamma, name=name)
        self.actions = {n: dict(actions.get(n, {})) for n in range(cap + 1)}


def validate_sym_operad(p: SymOperad):
    report = validate_sym_collection(p)
    report += validate_ns_operad(p)
    if report:
        return report
    # equivariance: block(sigma, taus) . gamma(op; qs) = gamma(sigma.op; moved)
    for (op, qs) in _composable_tuples(p):
        n = len(qs)
        sizes = [p.arity_of(q) for q in qs]
        for sigma in _all_perms(n):
            tau_pools = [_all_perms(m) for m in sizes]
            for taus in itertools.product(*tau_pools):
                moved = [None] * n
                for i in range(n):
                    moved[sigma[i]] = p.act(taus[i], qs[i])
                lhs = p.act(block_permutation(sigma, taus, sizes),
                            p.gamma[(op, qs)])
                rhs = p.gamma[(p.act(sigma, op), tuple(moved))]
                if lhs != rhs:
                    report.append(
                        f"equivariance fails at ({op!r}; {qs!r}) with "
                        f"sigma={sigma!r}, taus={taus!r}")
    return report


def commutative_operad(cap, with_nullary=False, name="comm"):
    base = associative_operad(cap, with_nullary=with_nullary, name=name)
    return SymOperad(cap, base.levels, base.unit, base.gamma,
                     trivial_actions(cap, base.levels), name=name)


def swap_pair_operad(name="swap2"):
    """Arity-two elements swapped by the transposition; compositions unital."""
    cap = 2
    levels = {1: ["e"], 2: ["a", "b"]}
    gamma = {
        ("e", ("e",)): "e",
        ("e", ("a",)): "a", ("e", ("b",)): "b",
        ("a", ("e", "e")): "a", ("b", ("e", "e")): "b",
    }
    actions = trivial_actions(cap, levels)
    actions[2][((1, 0), "a")] = "b"
    actions[2][((1, 0), "b")] = "a"
    return SymOperad(cap, levels, "e", gamma, actions, name=name)


def encode_sym(p: SymCollection):
    """Base objects are elements; morphisms are the permutations carrying one
    to another, acting on the ordered fibers by position."""
    objects, obj_of, elem_of = _encoded_objects(p)
    morphisms = []
    mor_of = {}
    identities = {}
    for oid in objects:
        n, e = elem_of[oid]
        for perm in _all_perms(n):
            target = p.act(perm, e) if n >= 2 else e
            mid = "s" + "".join(str(v) for v in perm) + "@" + oid
            morphisms.append((mid, oid, obj_of[target]))
            mor_of[(perm, oid)] = mid
            if perm == _perm_id(n):
                identities[oid] = mid
    comp = {}
    mor_data = {}
    for (perm, oid), mid in mor_of.items():
        mor_data[mid] = (perm, oid)
    for (mid1, s1, t1) in morphisms:
        perm1, _ = mor_data[mid1]
        for (mid2, s2, t2) in morphisms:
            if s2 != t1:
                continue
            perm2, _ = mor_data[mid2]
            comp[(mid2, mid1)] = mor_of[(_perm_compose(perm2, perm1), s1)]
    base = FinCategory(objects, morphisms, identities, comp, name=f"P({p.name})")
    fibers = {oid: ordinal_category(elem_of[oid][0]) for oid in objects}
    fiber_mor = {}
    for mid, (perm, oid) in mor_data.items():
        n = elem_of[oid][0]
        fib = fibers[oid]
        tgt_fib = fibers[base.tgt[mid]]
        omap = {str(i): str(perm[i]) for i in range(n)}
        mmap = {fib.identity(str(i)): tgt_fib.identity(str(perm[i]))
                for i in range(n)}
        fiber_mor[mid] = Functor(fib, tgt_fib, omap, mmap)
    return EncodedCollection(
        DiagramInCat(base, fibers, fiber_mor, name=f"enc({p.name})"),
        obj_of, elem_of, mor_of, mor_data)


def _block_of(enc: EncodedCollection, prod: SemidirectProduct, mid):
    """The permutation of the flattened inputs that a product morphism of a
    symmetric encoding makes."""
    f, phi = prod.mor_data[mid]
    _, psi = prod.obj_data[prod.diagram.base.src[mid]]
    sigma, _ = enc.mor_data[f]
    positions = [str(i) for i in range(len(sigma))]
    sizes = [enc.elem_of[psi.omap[i]][0] for i in positions]
    taus = tuple(enc.mor_data[phi.components[i]][0] for i in positions)
    return block_permutation(sigma, taus, sizes)


def _orbit_rep(p: SymCollection, op, args, perm):
    """The least decorated tuple in the orbit of (op, args, perm) under
    relabelling by (sigma, taus)."""
    n = len(args)
    sizes = [p.arity_of(q) for q in args]
    seen = set()
    for sigma in _all_perms(n):
        tau_pools = [_all_perms(m) for m in sizes]
        for taus in itertools.product(*tau_pools):
            moved = [None] * n
            for i in range(n):
                moved[sigma[i]] = p.act(taus[i], args[i])
            blk = block_permutation(sigma, taus, sizes)
            seen.add((p.act(sigma, op) if n >= 2 else op, tuple(moved),
                      _perm_compose(perm, _perm_inverse(blk))))
    return min(seen)


def _class_name(rep):
    op, args, perm = rep
    return _composite_name(op, args) + "#" + "".join(str(v) for v in perm)


def sym_circ(p: SymCollection):
    """The symmetric composite collection: orbit classes of decorated tuples.

    Elements of level k are equivalence classes of (op, args, perm in S_k)
    under relabelling by (sigma, taus); the class is named by its least
    representative.  Carries the left S_k action by post-composition.
    """
    cap = p.cap
    levels = {k: [] for k in range(cap + 1)}
    class_rep = {}
    for _, (op, args), total in _composite_tuples(p, p):
        for perm in _all_perms(total):
            rep = _orbit_rep(p, op, args, perm)
            name = _class_name(rep)
            if name not in class_rep:
                class_rep[name] = rep
                levels[total].append(name)
    for k in levels:
        levels[k] = sorted(levels[k])
    actions = {}
    for k in range(cap + 1):
        acts = {}
        for name in levels[k]:
            op, args, perm = class_rep[name]
            for s in _all_perms(k):
                acts[(s, name)] = _class_name(
                    _orbit_rep(p, op, args, _perm_compose(s, perm)))
        actions[k] = acts
    return SymCollection(cap, levels, actions, name=f"({p.name}∘{p.name})")


class SymInclusionResult(NamedTuple):
    morphism: DiagramMorphism
    product: SemidirectProduct
    composite: SymCollection
    injective: bool
    surjective_on_objects: bool
    missing_objects: list


def sym_inclusion(p: SymCollection, guard: Guardrails = DEFAULT_GUARDRAILS):
    """The inclusion of the product of the symmetric encoding into the encoded
    symmetric composite, with injectivity and surjectivity diagnostics."""
    enc = encode_sym(p)
    prod = _square_within_cap(enc, p.cap, guard)
    comp = sym_circ(p)
    enc_c = encode_sym(comp)
    pbase = prod.diagram.base

    omap, mmap, rho = {}, {}, {}
    for oid in pbase.objects:
        op, args = _decode(enc.elem_of, prod, oid)
        total = sum(p.arity_of(a) for a in args)
        rep = _orbit_rep(p, op, args, _perm_id(total))
        cid = enc_c.obj_of[_class_name(rep)]
        omap[oid] = cid
        order = _flat_order(enc.diagram, prod, oid)
        rho[oid] = _order_functor(enc_c.diagram.fiber_obj[cid], prod.fibers[oid],
                                  order)
    for mid in pbase.mor_ids:
        blk = _block_of(enc, prod, mid)
        mmap[mid] = enc_c.mor_of[(blk, omap[pbase.src[mid]])]
    base = Functor(pbase, enc_c.diagram.base, omap, mmap)
    morphism = DiagramMorphism(prod.diagram, enc_c.diagram, base, rho,
                               name="sym-inclusion")
    problems = validate_diagram_morphism(morphism)
    if problems:
        raise InputError(f"symmetric inclusion is not a diagram morphism: "
                         f"{problems[:3]}")
    inj_obj = len(set(omap.values())) == len(omap)
    inj_mor = len(set(mmap.values())) == len(mmap)
    hit = set(omap.values())
    missing = [cid for cid in enc_c.diagram.base.objects if cid not in hit]
    return SymInclusionResult(morphism, prod, comp, inj_obj and inj_mor,
                              not missing, missing)


def sym_operad_to_club(p: SymOperad, guard: Guardrails = DEFAULT_GUARDRAILS):
    """The club structure on the symmetric encoding of an operad: gamma on
    objects and block permutations on morphisms."""
    return _club_from_encoding(p, encode_sym(p), guard)


def symmetric_associative_operad(cap, name="sym-assoc"):
    """Permutations in every arity, composed by block substitution.

    Level n is the n-th symmetric group; composition splices the argument
    permutations into the blocks permuted by the operation, and each group
    acts on its own level by composition.
    """
    levels = {n: ["s" + "".join(str(v) for v in perm)
                  for perm in _all_perms(n)] if n >= 1 else []
              for n in range(cap + 1)}
    perm_of = {}
    for n in range(1, cap + 1):
        for perm in _all_perms(n):
            perm_of["s" + "".join(str(v) for v in perm)] = perm

    def name_of(perm):
        return "s" + "".join(str(v) for v in perm)

    op = NsOperad(cap, levels, name_of.__call__((0,)), {}, name=name)
    gamma = {}
    for (p, args) in _composable_tuples(op):
        sizes = [op.arity_of(q) for q in args]
        taus = tuple(perm_of[q] for q in args)
        gamma[(p, args)] = name_of(block_permutation(perm_of[p], taus, sizes))
    actions = {}
    for n in range(cap + 1):
        acts = {}
        for e in levels.get(n, []):
            for sigma in _all_perms(n):
                acts[(sigma, e)] = name_of(
                    _perm_compose(perm_of[e], _perm_inverse(sigma)))
        actions[n] = acts
    return SymOperad(cap, levels, name_of((0,)), gamma, actions, name=name)
