import itertools
import random
import sys

import pytest

from clubcat import generate as gen
from clubcat.config import DEFAULT_GUARDRAILS
from clubcat.diagram import validate_diagram, validate_diagram_morphism
from clubcat.errors import InputError
from clubcat.operads import (Collection, NsOperad, SymCollection,
                             _all_perms, _class_name, _club_from_encoding,
                             _composite_tuples, _orbit_rep, _perm_compose,
                             _square_within_cap, associative_operad,
                             block_permutation, circ, club_to_operad,
                             commutative_operad,
                             cyclic_group_operad, encode_ns, encode_sym,
                             free_operad, ns_iso_check, operad_to_club,
                             swap_pair_operad, sym_circ, sym_inclusion,
                             sym_operad_to_club, symmetric_associative_operad,
                             validate_ns_operad, validate_sym_operad)
from clubcat import operads, suites
from clubcat.semidirect import club_check
import operads_reference
from mutants import with_gamma


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
    enc_pp = encode_ns(pp)
    for k in range(4):
        got = [oid for oid in enc_pp.diagram.base.objects
               if enc_pp.elem_of[oid][0] == k]
        assert len(got) == len(pp.levels[k])


def test_ns_iso_check_random_small_collections():
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
# mutants on their host's encoding

def _bijection_mutant_clubs(monkeypatch, seed):
    """Each (mutant, club) that ``operad-bijection`` checks at ``seed`` and
    the benchmark's two samples: the club built on the host's shared
    encoding and square."""
    built = []

    def recording_club(mutant, enc, square):
        club = _club_from_encoding(mutant, enc, square)
        built.append((mutant, club))
        return club

    monkeypatch.setattr(suites, "_club_from_encoding", recording_club)
    suites.run_suite("operad-bijection", seed=seed, samples=2)
    monkeypatch.undo()
    return built


def _functor_tables(f):
    return f.omap, f.mmap


@pytest.mark.parametrize("seed", range(6))
def test_shared_encoding_builds_each_mutant_club(monkeypatch, seed):
    mutants = _bijection_mutant_clubs(monkeypatch, seed)
    assert len(mutants) == 50
    for mutant, club in mutants:
        ref = operad_to_club(mutant)
        assert (club.product.diagram.base.objects
                == ref.product.diagram.base.objects)
        assert (_functor_tables(club.mu.base_functor)
                == _functor_tables(ref.mu.base_functor))
        assert ({oid: _functor_tables(f) for oid, f in club.mu.rho.items()}
                == {oid: _functor_tables(f) for oid, f in ref.mu.rho.items()})
        assert (_functor_tables(club.eta.base_functor)
                == _functor_tables(ref.eta.base_functor))
        assert ({o: _functor_tables(f) for o, f in club.eta.rho.items()}
                == {o: _functor_tables(f) for o, f in ref.eta.rho.items()})
        assert club.cap == ref.cap
        for stop_early in (True, False):
            assert club_check(club, stop_early=stop_early) != []


def test_mutants_of_one_host_share_its_square(monkeypatch):
    mutants = _bijection_mutant_clubs(monkeypatch, 0)
    shared = [(id(club.carrier), id(club.product)) for _, club in mutants]
    runs = [(key, len(list(group)))
            for key, group in itertools.groupby(shared)]
    # three hosts in turn, each with one encoding and one square
    assert [n for _, n in runs] == [18, 16, 16]
    assert len({key for key, _ in runs}) == 3


def test_square_is_built_once_per_host(monkeypatch):
    # the correspondence for the word operad and 2 random collections, 4
    # round trips, 3 hosts, the symmetric inclusion and 3 symmetric clubs
    # make 14 squares; one square per mutant in place of one per host would
    # make 61
    original = operads._square_within_cap
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # every module that imported it holds its own reference
    for name, module in list(sys.modules.items()):
        if (name.startswith("clubcat.")
                and getattr(module, "_square_within_cap", None) is original):
            monkeypatch.setattr(module, "_square_within_cap", counting)
    for seed in range(6):
        calls.clear()
        suites.run_suite("operad-bijection", seed=seed, samples=2)
        assert len(calls) == 14, seed


def test_mutant_with_other_levels_is_refused(monkeypatch):
    def relevelled(rng, op, count):
        mutant = NsOperad(op.cap, {**op.levels, 0: ["z"]}, op.unit,
                          dict(op.gamma), name=f"{op.name}-mut")
        return [(next(iter(op.gamma)), "z", mutant)]

    monkeypatch.setattr(suites.gen, "law_breaking_mutations", relevelled)
    with pytest.raises(InputError, match="levels and cap"):
        suites.run_suite("operad-bijection", seed=0, samples=0)


# ---------------------------------------------------------------------------
# symmetric case

def test_block_permutation_composes():
    sizes = [2, 1, 3]
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
    comp = sym_circ(p)
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


# a composite sent to an element whose arity has no block permutation for
# the product's non-identity morphism over it: operad, gamma key, result
WRONG_ARITY = {
    "comm2": (lambda: commutative_operad(2), ("a1", ("a2",)), "a1"),
    "swap2": (swap_pair_operad, ("a", ("e", "e")), "e"),
}


def wrong_arity_club(name):
    """The club of the symmetric operad ``WRONG_ARITY[name]`` with its one
    composite changed."""
    make, key, result = WRONG_ARITY[name]
    return sym_operad_to_club(with_gamma(make(), key, result))


@pytest.mark.parametrize("name", WRONG_ARITY)
def test_sym_club_with_wrong_arity_result_is_reported(name):
    report = club_check(wrong_arity_club(name))
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
    assert validate_sym_operad(symmetric_associative_operad(3)) == []


def _sym_circ_reference(p):
    """The levels and actions of ``sym_circ`` by ``_orbit_rep`` on every
    decorated tuple of both passes, without reusing representatives."""
    levels = {k: [] for k in range(p.cap + 1)}
    class_rep = {}
    for _, (op, args), total in _composite_tuples(p, p):
        for perm in _all_perms(total):
            rep = _orbit_rep(p, op, args, perm)
            name = _class_name(rep)
            if name not in class_rep:
                class_rep[name] = rep
                levels[total].append(name)
    levels = {k: sorted(names) for k, names in levels.items()}
    actions = {}
    for k in range(p.cap + 1):
        acts = {}
        for name in levels[k]:
            op, args, perm = class_rep[name]
            for s in _all_perms(k):
                acts[(s, name)] = _class_name(
                    _orbit_rep(p, op, args, _perm_compose(s, perm)))
        actions[k] = acts
    return levels, actions


@pytest.mark.parametrize("make", [
    lambda: symmetric_associative_operad(2),
    lambda: symmetric_associative_operad(3),
    lambda: commutative_operad(2),
    lambda: commutative_operad(3),
    swap_pair_operad,
], ids=["sym-assoc2", "sym-assoc3", "comm2", "comm3", "swap2"])
def test_sym_circ_matches_the_per_element_reference(make):
    p = make()
    comp = sym_circ(p)
    assert (comp.levels, comp.actions) == _sym_circ_reference(p)


def test_sym_circ_refuses_an_action_that_changes_arity():
    # the swap sends the binary "a" to the unary "0", which leads the
    # action table to tuples that the first pass never visited
    p = SymCollection(2, {1: ["e", "0"], 2: ["a"]},
                      {2: {((0, 1), "a"): "a", ((1, 0), "a"): "0"}})
    with pytest.raises(InputError, match="permutation of length 2"):
        sym_circ(p)


# ---------------------------------------------------------------------------
# the three morphisms out of the square against their hand-written loops

def _named_hosts():
    """The ``clubs`` benchmark pool's seven named operads and the arity-3
    commutative operad."""
    return [associative_operad(3, with_nullary=True), free_operad({2: ["g"]}, 3),
            free_operad({2: ["g"], 3: ["t"]}, 3), cyclic_group_operad(3),
            commutative_operad(2), swap_pair_operad(),
            symmetric_associative_operad(2), commutative_operad(3)]


def _club_sweep():
    """(label, operad, encoding, square) of each named host, of 20
    law-breaking mutants of each non-symmetric host, and of two stray
    mutants of every host: its last gamma entry sent outside the levels,
    and to the unit."""
    rng = random.Random(5)
    for host in _named_hosts():
        enc = (encode_sym if isinstance(host, SymCollection) else encode_ns)(host)
        square = _square_within_cap(enc, host.cap, DEFAULT_GUARDRAILS)
        yield host.name, host, enc, square
        if not isinstance(host, SymCollection):
            for key, result, mutant in gen.law_breaking_mutations(rng, host, 20):
                yield f"{host.name} {key} -> {result}", mutant, enc, square
        key = max(host.gamma)
        for result in ("nowhere", host.unit):
            yield (f"{host.name} {key} -> {result}",
                   with_gamma(host, key, result), enc, square)


def _tables(f):
    return f.omap, f.mmap


def _club_tables(club):
    return (club.mu.name, _tables(club.mu.base_functor),
            {d: _tables(comp) for d, comp in club.mu.rho.items()},
            _tables(club.eta.base_functor),
            {d: _tables(comp) for d, comp in club.eta.rho.items()}, club.cap)


def test_ns_validation_matches_the_tuple_scan_reference():
    # the named non-symmetric hosts and the rest of random_operad's pool,
    # each with 30 law-breaking mutants and 30 unfiltered single-entry edits
    hosts = [associative_operad(cap, with_nullary=nullary)
             for cap in (2, 3, 4) for nullary in (False, True)]
    hosts += [free_operad({2: ["g"]}, 3), free_operad({2: ["g"]}, 4),
              free_operad({2: ["g"], 3: ["t"]}, 3), cyclic_group_operad(2),
              cyclic_group_operad(3), gen.boolean_and_operad(),
              gen.idempotent_monoid_operad(),
              gen.singleton_arity_operad([1, 2, 3], 3),
              gen.singleton_arity_operad([1, 3], 4)]
    rng = random.Random(38)
    reports = []
    for host in hosts:
        cases = [host] + [m for _, _, m in gen.law_breaking_mutations(rng, host, 30)]
        keys, elements = sorted(host.gamma), [e for _, e in host.all_elements()]
        cases += [with_gamma(host, rng.choice(keys), rng.choice(elements))
                  for _ in range(30)]
        for op in cases:
            report = validate_ns_operad(op)
            assert report == operads_reference.validate_ns_operad(op), op.name
            reports.append(report)
    assert len(reports) == 15 * 61
    assert sum(map(bool, reports)) >= 15 * 30


def test_club_from_encoding_matches_the_loop_reference():
    labels = []
    for label, op, enc, square in _club_sweep():
        club = _club_from_encoding(op, enc, square)
        want = operads_reference._club_from_encoding(op, enc, square)
        assert club.product is want.product, label
        assert _club_tables(club) == _club_tables(want), label
        labels.append(label)
    assert len(labels) == 8 + 4 * 20 + 8 * 2


def _inclusion_tables(res):
    return (res.injective, res.surjective_on_objects, res.missing_objects,
            res.product.diagram.base.objects, res.product.diagram.base.mor_ids)


@pytest.mark.parametrize("make", [
    lambda: commutative_operad(2), swap_pair_operad,
    lambda: symmetric_associative_operad(2), lambda: commutative_operad(3),
    lambda: symmetric_associative_operad(3),
], ids=["comm2", "swap2", "sym-assoc2", "comm3", "sym-assoc3"])
def test_sym_inclusion_matches_the_loop_reference(make, monkeypatch):
    # record the inclusion each side builds, to compare its tables
    built = []

    def recording(morphism):
        built.append(morphism)
        return validate_diagram_morphism(morphism)

    for module in (operads, operads_reference):
        monkeypatch.setattr(module, "validate_diagram_morphism", recording)
    got = sym_inclusion(make())
    want = operads_reference.sym_inclusion(make())
    assert _inclusion_tables(got) == _inclusion_tables(want)
    new, old = built
    assert _tables(new.base_functor) == _tables(old.base_functor)
    assert ({d: _tables(comp) for d, comp in new.rho.items()}
            == {d: _tables(comp) for d, comp in old.rho.items()})


def _flipped(f):
    """A functor's tables with their maps reversed; both must be injective."""
    omap = {v: k for k, v in f.omap.items()}
    mmap = {v: k for k, v in f.mmap.items()}
    assert len(omap) == len(f.omap) and len(mmap) == len(f.mmap)
    return omap, mmap


def test_ns_iso_check_inverts_the_loop_reference():
    rng = random.Random(5)
    collections = [associative_operad(4)]
    collections += [gen.random_collection(rng) for _ in range(40)]
    for i, p in enumerate(collections):
        got, want = ns_iso_check(p), operads_reference.ns_iso_check(p)
        assert got.problems == want.problems == [], i
        new, old = got.forward, want.forward
        assert new.name == "pair-to-tuple"
        assert _tables(new.base_functor) == _flipped(old.base_functor), i
        assert new.rho.keys() == set(new.src.base.objects), i
        for oid, comp in new.rho.items():
            assert _tables(comp) == _flipped(old.rho[new.base_functor.omap[oid]]), i
