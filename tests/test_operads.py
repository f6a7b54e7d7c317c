import pytest

from clubcat.diagram import validate_diagram
from clubcat.errors import InputError
from clubcat.operads import (Collection, NsOperad, associative_operad,
                             block_permutation, circ, club_to_operad,
                             commutative_operad, cyclic_group_operad,
                             encode_ns, encode_sym, free_operad,
                             ns_iso_check, operad_to_club, swap_pair_operad,
                             sym_inclusion, sym_operad_to_club,
                             validate_ns_operad, validate_sym_operad)
from clubcat.semidirect import club_check


# ---------------------------------------------------------------------------
# basic structures

def test_associative_operad_is_valid():
    assert validate_ns_operad(associative_operad(3)) == []
    assert validate_ns_operad(associative_operad(3, with_nullary=True)) == []


def test_ns_encodings_share_no_tables():
    a, b = encode_ns(associative_operad(2)), encode_ns(associative_operad(2))
    assert a.mor_of == a.mor_data == {}
    assert a.mor_of is not b.mor_of and a.mor_data is not b.mor_data
    assert a.mor_of is not a.mor_data


def test_cyclic_group_operad_is_valid():
    assert validate_ns_operad(cyclic_group_operad(3)) == []


def test_free_operad_levels():
    f = free_operad({2: ["g"]}, 4)
    assert validate_ns_operad(f) == []
    assert [len(f.levels[n]) for n in range(5)] == [0, 1, 1, 2, 5]


def test_free_operad_rejects_low_arity_generators():
    with pytest.raises(InputError):
        free_operad({1: ["u"]}, 3)


def test_validate_catches_broken_associativity():
    z3 = cyclic_group_operad(3)
    gamma = dict(z3.gamma)
    gamma[("1", ("1",))] = "0"   # 1+1 should be 2
    bad = NsOperad(1, z3.levels, "0", gamma)
    assert any("associativity" in r for r in validate_ns_operad(bad))


# ---------------------------------------------------------------------------
# encodings

def test_encode_unit_only_collection():
    p = Collection(1, {1: ["e"]})
    enc = encode_ns(p)
    assert validate_diagram(enc.diagram) == []
    assert len(enc.diagram.base.objects) == 1
    assert len(enc.diagram.fiber_obj[enc.obj_of["e"]].objects) == 1


def test_encode_associative_with_nullary():
    p = associative_operad(3, with_nullary=True)
    enc = encode_ns(p)
    assert validate_diagram(enc.diagram) == []
    assert len(enc.diagram.base.objects) == 4


def test_encode_free_magma_collection():
    p = Collection(3, {1: ["e"], 2: ["m"], 3: ["l", "r"]})
    enc = encode_ns(p)
    assert validate_diagram(enc.diagram) == []
    assert len(enc.diagram.base.objects) == 4


# ---------------------------------------------------------------------------
# the composite collection

def test_circ_count_compositions_of_four():
    p = associative_operad(4)   # no nullary part
    pp = circ(p, p)
    assert len(pp.levels[4]) == 8  # compositions of 4 into ordered positive parts


def test_circ_unit_substitution():
    p = Collection(3, {1: ["e"], 2: ["m", "n"]})
    q = Collection(3, {1: ["u"]})
    right = circ(p, q)
    for k in range(4):
        assert len(right.levels[k]) == len(p.levels[k])
    left = circ(q, p)
    for k in range(4):
        assert len(left.levels[k]) == len(p.levels[k])


def test_ns_iso_check_unit_only():
    res = ns_iso_check(Collection(1, {1: ["e"]}))
    assert res.problems == []
    assert len(res.product.diagram.base.objects) == 1


def test_ns_iso_check_associative():
    p = associative_operad(3)
    res = ns_iso_check(p)
    assert res.problems == []
    assert validate_diagram(res.product.diagram) == []
    # levelwise counts agree by construction; the check verified both ways
    pp = circ(p, p)
    for k in range(4):
        got = [oid for oid in res.composite_encoding.diagram.base.objects
               if res.composite_encoding.elem_of[oid][0] == k]
        assert len(got) == len(pp.levels[k])


def test_ns_iso_check_random_small_collections():
    import random
    rng = random.Random(7)
    for _ in range(5):
        cap = rng.choice([2, 3])
        levels = {n: [f"x{n}{i}" for i in range(rng.randint(0, 2))]
                  for n in range(cap + 1)}
        levels.setdefault(1, [])
        p = Collection(cap, levels)
        assert ns_iso_check(p).problems == []


# ---------------------------------------------------------------------------
# operads as clubs

def test_associative_operad_club_passes():
    club = operad_to_club(associative_operad(3, with_nullary=True))
    assert club_check(club) == []


def test_free_operad_club_passes():
    club = operad_to_club(free_operad({2: ["g"]}, 3))
    assert club_check(club) == []


def test_cyclic_club_passes_and_roundtrip():
    z3 = cyclic_group_operad(3)
    club = operad_to_club(z3)
    assert club_check(club) == []
    back = club_to_operad(club)
    assert back.gamma == z3.gamma
    assert back.unit == z3.unit
    assert back.levels == z3.levels


def test_roundtrip_free_operad():
    f = free_operad({2: ["g"]}, 4)
    club = operad_to_club(f)
    back = club_to_operad(club)
    assert back.gamma == f.gamma
    assert back.levels == f.levels
    assert back.unit == f.unit


def test_corrupted_gamma_fails_club_check():
    z3 = cyclic_group_operad(3)
    gamma = dict(z3.gamma)
    gamma[("1", ("1",))] = "0"
    bad = NsOperad(1, z3.levels, "0", gamma)
    assert validate_ns_operad(bad) != []
    club = operad_to_club(bad)
    assert club_check(club, stop_early=True) != []


def test_arity_corruption_fails_club_check():
    f = free_operad({2: ["g"]}, 3)
    gamma = dict(f.gamma)
    # send a composite to an element of the wrong arity
    key = ("g__", ("g__", "_"))
    assert f.gamma[key] in f.levels[3]
    gamma[key] = "g__"
    bad = NsOperad(3, f.levels, "_", gamma)
    club = operad_to_club(bad)
    assert club_check(club, stop_early=True) != []


# ---------------------------------------------------------------------------
# symmetric case

def test_block_permutation_composes():
    sizes = [2, 1, 3]
    import random
    rng = random.Random(3)
    for _ in range(20):
        sigma = tuple(rng.sample(range(3), 3))
        taus = tuple(tuple(rng.sample(range(m), m)) for m in sizes)
        blk = block_permutation(sigma, taus, sizes)
        assert sorted(blk) == list(range(6))


def test_swap_pair_operad_is_valid():
    assert validate_sym_operad(swap_pair_operad()) == []


def test_commutative_operad_is_valid():
    assert validate_sym_operad(commutative_operad(3)) == []


def test_encode_sym_base_has_permutations():
    p = swap_pair_operad()
    enc = encode_sym(p)
    assert validate_diagram(enc.diagram) == []
    a, b = enc.obj_of["a"], enc.obj_of["b"]
    assert len(enc.diagram.base.hom_set(a, b)) == 1


def test_encode_sym_com_counts():
    p = commutative_operad(3)
    enc = encode_sym(p)
    assert validate_diagram(enc.diagram) == []
    # one object per arity, all permutations as endomorphisms
    assert len(enc.diagram.base.objects) == 3
    o3 = enc.obj_of["a3"]
    assert len(enc.diagram.base.hom_set(o3, o3)) == 6


def test_sym_inclusion_injective_not_surjective():
    p = commutative_operad(3)   # associative operad with trivial symmetries
    res = sym_inclusion(p)
    assert res.injective
    assert not res.surjective_on_objects
    assert res.missing_objects
    # derived count at the top level: orbit classes of decorated tuples
    comp = res.composite
    level3_classes = len(comp.levels[3])
    level3_objects = sum(1 for oid in res.product.diagram.base.objects
                         if _total_arity(res, p, oid) == 3)
    assert level3_classes == 5
    assert level3_objects == 4


def _total_arity(res, p, oid):
    d, psi = res.product.obj_data[oid]
    n = int(d.partition(":")[0])
    total = 0
    for i in range(n):
        arg_oid = psi.omap[str(i)]
        total += int(arg_oid.partition(":")[0])
    return total


def test_sym_operad_clubs_pass():
    assert club_check(sym_operad_to_club(commutative_operad(2))) == []
    assert club_check(sym_operad_to_club(swap_pair_operad())) == []


def test_com_club_cap3_passes():
    assert club_check(sym_operad_to_club(commutative_operad(3))) == []


@pytest.mark.parametrize("make, key, result", [
    (lambda: commutative_operad(2), ("a1", ("a2",)), "a1"),
    (swap_pair_operad, ("a", ("e", "e")), "e"),
], ids=["comm2", "swap2"])
def test_sym_club_with_wrong_arity_result_is_reported(make, key, result):
    # the composite lands on an element whose arity has no block
    # permutation for the product's non-identity morphism over it
    op = make()
    op.gamma[key] = result
    club = sym_operad_to_club(op)
    report = club_check(club)
    assert report and report[0].startswith("mu: ")


def test_club_operad_bijection_both_ways():
    # decoding and re-encoding reproduces the multiplication tables exactly
    for op in [cyclic_group_operad(3), free_operad({2: ["g"]}, 3)]:
        club = operad_to_club(op)
        again = operad_to_club(club_to_operad(club))
        assert again.mu.base_functor.omap == club.mu.base_functor.omap
        assert again.eta.base_functor.omap == club.eta.base_functor.omap
        assert set(again.product.diagram.base.objects) == \
            set(club.product.diagram.base.objects)


def test_symmetric_associative_operad_valid():
    from clubcat.operads import symmetric_associative_operad
    assert validate_sym_operad(symmetric_associative_operad(3)) == []
