"""The unit-law check as it was when ``club_check`` built its unit products.

``_unit_laws`` builds 1 ⋉ C and C ⋉ 1 in a ``Products`` table, takes the
left and right unitors out of them and compares mu after the unit on either
side against the unitors' tables.  It is the oracle for
``semidirect._unit_laws``, which reads the same identifications from the
carrier's own tables: both must note the same messages in the same order.
Call it as ``_unit_laws(club, club.product, Products(), note, e_obj)``.
"""

from clubcat.fincat import Functor, functor_key, terminal_category
from clubcat.semidirect import left_unitor, right_unitor


def _unit_laws(s, p, products, note, e_obj):
    """Both unit laws; returns True when ``note`` asks to stop."""
    c = s.carrier
    id_star = terminal_category().identity("*")
    id_e = c.base.identity(e_obj)

    def constant_key(fiber, value):
        return functor_key(Functor(fiber, c.base,
                                   {a: value for a in fiber.objects},
                                   {m: c.base.identity(value) for m in fiber.mor_ids}))

    # left unit: mu ∘ (eta ⋉ id) against the left unitor on 1 ⋉ C
    fiber_e = c.fiber_obj[e_obj]
    lu = left_unitor(c, products)
    if lu.problems:
        if any(note(f"left unitor: {msg}") for msg in lu.problems):
            return True
    elif _unit_half(s.mu, p, products(products.unit, c), lu.forward, note, "left",
                    lambda yv: (e_obj, constant_key(fiber_e, yv)),
                    lambda g: (id_e, tuple(g for _ in fiber_e.objects)),
                    lambda a, b: ("*", b),
                    lambda alpha, b1, beta: (id_star, b1, beta)):
        return True

    # right unit: mu ∘ (id ⋉ eta) against the right unitor on C ⋉ 1
    ru = right_unitor(c, products)
    if ru.problems:
        return any(note(f"right unitor: {msg}") for msg in ru.problems)
    return _unit_half(s.mu, p, products(c, products.unit), ru.forward, note, "right",
                      lambda d: (d, constant_key(c.fiber_obj[d], e_obj)),
                      lambda f: (f, tuple(id_e for _ in
                                          c.fiber_obj[c.base.src[f]].objects)),
                      lambda a, b: (a, "*"),
                      lambda alpha, b1, beta: (alpha, "*", id_star))


def _unit_half(mu, p, p_u, unitor, note, side, obj_key, mor_key, pair, pair_mor):
    """mu after inserting the unit on one side, against the forward
    ``unitor`` out of that side's product ``p_u``, whose base functor gives
    the expected objects and morphisms.  ``obj_key`` and ``mor_key`` send
    those to the keys the unit inclusion reaches in ``p``; ``pair`` and
    ``pair_mor`` send pair data of ``p``'s fibers to pair data of ``p_u``'s.
    Returns True when ``note`` asks to stop."""
    img_of = {}
    for oid in p_u.diagram.base.objects:
        want = unitor.base_functor.omap[oid]
        img = p.obj_id.get(obj_key(want))
        img_of[oid] = img
        if img is None:
            if note(f"{side} unit composite leaves the domain at {want!r}"):
                return True
            continue
        got = mu.base_functor.omap[img]
        if got != want:
            if note(f"{side} unit law fails on object {want!r}: mu gives {got!r}"):
                return True
        # fiber components: mu-rho then the inclusion's rho is the unitor
        # rho; rho_mu starts at the fiber over mu's object, which the fiber
        # over the expected object misses where the object law fails
        rho_mu = mu.rho[img]
        fib_img = p.fibers[img]
        fib_u = p_u.fibers[oid]
        expected = unitor.rho[oid]
        for b in expected.src.objects:
            pid = rho_mu.omap.get(b)
            lhs = None
            if pid is not None:
                lhs = fib_u.obj_id[pair(*fib_img.obj_data[pid])]
            if lhs != expected.omap[b]:
                if note(f"{side} unit law fails on fiber object {b!r} over {want!r}"):
                    return True
        for m in expected.src.mor_ids:
            qid = rho_mu.mmap.get(m)
            lhs = None
            if qid is not None:
                lhs = fib_u.mor_id[pair_mor(*fib_img.mor_data[qid])]
            if lhs != expected.mmap[m]:
                if note(f"{side} unit law fails on fiber morphism {m!r} over {want!r}"):
                    return True
    base_u = p_u.diagram.base
    for mid in base_u.mor_ids:
        s1, t1 = base_u.src[mid], base_u.tgt[mid]
        if img_of[s1] is None or img_of[t1] is None:
            continue
        want = unitor.base_functor.mmap[mid]
        img_mor = p.mor_id.get((img_of[s1], img_of[t1], *mor_key(want)))
        if img_mor is None:
            if note(f"{side} unit composite morphism leaves the domain at {want!r}"):
                return True
            continue
        if mu.base_functor.mmap[img_mor] != want:
            if note(f"{side} unit law fails on morphism {want!r}"):
                return True
    return False
