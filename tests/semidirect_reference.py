"""The enumeration of a product's psis as it was when ``semidirect`` kept its
own backtracking search for discrete fibers.

Over a discrete fiber, ``_enumerate_psis`` walks object tuples in
lexicographic order, prunes with the prefixes of the kept keys and ranks a
tuple as a base-n numeral; over any other fiber it filters
``enumerate_functors``.  It is the oracle of ``test_semidirect``'s psi
sweep: the package's enumeration must yield the same ``(rank, psi)`` pairs
in the same order and refuse the same fibers.
"""

from clubcat.errors import GuardrailExceeded
from clubcat.fincat import (FinCategory, Functor, enumerate_functors,
                            functor_key)
from clubcat.semidirect import _is_discrete


def _enumerate_psis(fiber: FinCategory, target: FinCategory, keep_keys, guard):
    """Yield (rank, psi) in lexicographic order, honouring an optional key filter.

    The rank is the position in the full enumeration so that ids agree
    between restricted and unrestricted builds of the same product.  A
    discrete fiber's functors are built one at a time, so a caller that
    stops early builds no more of them.
    """
    if _is_discrete(fiber):
        objs = fiber.objects
        n = len(target.objects)
        prefixes = None
        if keep_keys is not None:
            prefixes = set()
            for (omap_t, _) in keep_keys:
                for i in range(len(omap_t) + 1):
                    prefixes.add(omap_t[:i])
        weights = [n ** (len(objs) - 1 - i) for i in range(len(objs))]
        obj_index = {o: i for i, o in enumerate(target.objects)}

        def rec(i, chosen):
            if prefixes is not None and tuple(chosen) not in prefixes:
                return
            if i == len(objs):
                omap = dict(zip(objs, chosen))
                mmap = {fiber.identities[x]: target.identities[omap[x]] for x in objs}
                psi = Functor(fiber, target, omap, mmap)
                key = functor_key(psi)
                if keep_keys is None or key in keep_keys:
                    rank = sum(weights[j] * obj_index[chosen[j]] for j in range(len(objs)))
                    yield rank, psi
                return
            for o in target.objects:
                chosen.append(o)
                yield from rec(i + 1, chosen)
                chosen.pop()

        yield from rec(0, [])
        return
    bound = len(target.objects) ** max(1, len(fiber.objects))
    if bound > 200_000:
        raise GuardrailExceeded(
            f"functor enumeration bound {bound} too large for a non-discrete fiber")
    for rank, psi in enumerate(enumerate_functors(fiber, target, guard)):
        if keep_keys is None or functor_key(psi) in keep_keys:
            yield rank, psi
