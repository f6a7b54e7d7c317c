"""The three morphisms out of an operad's truncated square, each built by
its own loop, as they were before ``operads._square_morphism`` built them.

``_club_from_encoding`` gives the club's mu and eta, ``sym_inclusion`` the
inclusion into the symmetric composite, and ``ns_iso_check`` the
correspondence E(P∘P) ≅ E⋉E, mapped from the encoded composite to the
square (``tuple-to-pair``), the inverse of the direction the package now
builds.  They are the oracles of ``test_operads``'s reference sweeps.

``validate_ns_operad`` scans every composable tuple for the outer
compositions of its associativity law, as it did before the law read the
tuples of the inner composite's arity directly.
"""

from clubcat.config import DEFAULT_GUARDRAILS, Guardrails
from clubcat.diagram import (DiagramMorphism, unit_diagram,
                             validate_diagram_morphism)
from clubcat.errors import InputError
from clubcat.fincat import Functor, terminal_category
from clubcat.operads import (Collection, EncodedCollection, NsIsoResult,
                             NsOperad, SymCollection, SymInclusionResult,
                             _block_of, _class_name, _composable_tuples,
                             _composite_tuples, _decode, _flat_order,
                             _order_functor, _orbit_rep, _perm_id,
                             _square_within_cap, circ, encode_ns, encode_sym,
                             sym_circ, validate_collection)
from clubcat.semidirect import ClubStructure, SemidirectProduct, _verify_iso


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
    return NsIsoResult(forward, prod, _verify_iso(forward))


def _club_from_encoding(p: NsOperad, enc: EncodedCollection,
                        prod: SemidirectProduct):
    """Build the multiplication and unit of an encoded operad on ``prod``,
    the truncated square ``_square_within_cap(enc, p.cap, guard)``.

    mu sends a pair (op, args) to gamma(op; args) with the order-preserving
    identification of the flattened fiber, identities to identities, and any
    other morphism to the block permutation it makes of the flattened
    inputs; eta picks the unit.  The encoding and the square depend only on
    the levels and the cap, so operads that differ only in gamma can share
    them.
    """
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
    return ClubStructure(prod, mu, eta, cap=p.cap)


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
    return SymInclusionResult(prod, inj_obj and inj_mor, not missing, missing)


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
