"""The fixed request pool of each workload and the input files it reads.

Every request is one ``clubcat`` command line.  The pools are fixed lists so
that the report digest and exit code of every request can be committed in
``expected.json``, and so that every run measures the same requests; the
benchmark seed decides the order in which each pass sends them.
"""

from __future__ import annotations

import os
import random

WORKLOADS = ("monoidal", "sset", "clubs", "algebra")

# Named fixture operads for the clubs workload: (file stem, constructor in
# clubcat.operads, positional and keyword arguments).  Built at set-up.
_NAMED_OPERADS = [
    ("assoc3-nullary", "associative_operad", (3,), {"with_nullary": True}),
    ("free-binary3", "free_operad", ({2: ["g"]}, 3), {}),
    ("free-binary-ternary3", "free_operad", ({2: ["g"], 3: ["t"]}, 3), {}),
    ("z3", "cyclic_group_operad", (3,), {}),
    ("comm2", "commutative_operad", (2,), {}),
    ("swap2", "swap_pair_operad", (), {}),
    ("sym-assoc2", "symmetric_associative_operad", (2,), {}),
]
_RANDOM_OPERADS = 6
# Draws from random.Random(_INPUT_SEED) whose club is checked.  Draw 1 is a
# free operad of cap 4, whose club check runs for minutes; to-club still
# covers it.
_RANDOM_CHECKED = (0, 2, 3, 4, 5)
# (host file stem, constructor, arguments, mutant count); the mutants are drawn
# from the same generator, after the random operads.
_MUTANT_HOSTS = [
    ("free-binary3", "free_operad", ({2: ["g"]}, 3), 3),
    ("z3", "cyclic_group_operad", (3,), 3),
    ("free-binary-ternary3", "free_operad", ({2: ["g"], 3: ["t"]}, 3), 2),
]
_INPUT_SEED = 1001


def _suite(name, seed, *flags):
    return ["--json", "suite", name, "--seed", str(seed), *flags]


def requests(workload):
    """The workload's pool: a list of ``(request_id, argv)``, in a fixed order.

    Paths in argv are relative to the work directory the requests run in.
    """
    if workload == "monoidal":
        return [(f"monoidal-laws:{s}",
                 _suite("monoidal-laws", s, "--samples", "1"))
                for s in range(40)]
    if workload == "sset":
        return [(f"sset-laws:{s}",
                 _suite("sset-laws", s, "--trunc", "3", "--samples", "1"))
                for s in range(4)]
    if workload == "clubs":
        named = [stem for stem, *_ in _NAMED_OPERADS]
        pool = [(f"to-club:{stem}",
                 ["--json", "operad", "to-club", f"operads/{stem}.json",
                  "-o", f"out/{stem}.club.json"])
                for stem in named + [f"random{i}"
                                     for i in range(_RANDOM_OPERADS)]]
        checked = named + [f"random{i}" for i in _RANDOM_CHECKED]
        pool += [(f"club-check:{stem}",
                  ["--json", "club-check", f"clubs/{stem}.json"])
                 for stem in checked + _mutant_stems()]
        pool += [(f"operad-bijection:{s}",
                  _suite("operad-bijection", s, "--samples", "2"))
                 for s in range(6)]
        return pool
    if workload == "algebra":
        pool = []
        for s in range(20):
            pool.append((f"algebra-laws:{s}", _suite(
                "algebra-laws", s, "--trunc", "2", "--samples", "1")))
            pool.append((f"stability:{s}", _suite(
                "stability", s, "--trunc", "2", "--samples", "4")))
        return pool
    raise ValueError(f"unknown workload {workload!r}")


def _mutant_stems():
    return [f"mutant-{stem}-{i}" for stem, _, _, count in _MUTANT_HOSTS
            for i in range(count)]


def order(workload, seed, passes):
    """Request ids in the order a run sends them: each pass is the whole
    pool, shuffled by a generator seeded from ``seed`` and the workload."""
    ids = [rid for rid, _ in requests(workload)]
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(passes):
        ids = ids[:]
        rng.shuffle(ids)
        out.extend(ids)
    return out


def prepare(workload, workdir):
    """Write the input files the workload's requests read into ``workdir``.

    Imports clubcat, so the caller must have put its ``src`` on sys.path.
    """
    os.makedirs(workdir, exist_ok=True)
    if workload != "clubs":
        return
    from clubcat import formats, generate, operads

    for sub in ("operads", "clubs", "out"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)

    def to_club(op):
        if isinstance(op, operads.SymOperad):
            return operads.sym_operad_to_club(op)
        return operads.operad_to_club(op)

    built = [(stem, getattr(operads, fn)(*args, **kw))
             for stem, fn, args, kw in _NAMED_OPERADS]
    rng = random.Random(_INPUT_SEED)
    built += [(f"random{i}", generate.random_operad(rng))
              for i in range(_RANDOM_OPERADS)]
    checked = {f"random{i}" for i in _RANDOM_CHECKED}
    for stem, op in built:
        formats.write_file(os.path.join(workdir, "operads", f"{stem}.json"),
                           "operad", op)
        if stem.startswith("random") and stem not in checked:
            continue
        if op.cap > 3:
            raise RuntimeError(f"{stem} has cap {op.cap}; its club check "
                               "would run for minutes")
        formats.write_file(os.path.join(workdir, "clubs", f"{stem}.json"),
                           "club", to_club(op))
    for stem, fn, args, count in _MUTANT_HOSTS:
        host = getattr(operads, fn)(*args)
        mutants = generate.law_breaking_mutations(rng, host, count)
        if len(mutants) != count:
            raise RuntimeError(f"host {stem} gave {len(mutants)} mutants, "
                               f"wanted {count}")
        for i, (_, _, mutant) in enumerate(mutants):
            formats.write_file(
                os.path.join(workdir, "clubs", f"mutant-{stem}-{i}.json"),
                "club", operads.operad_to_club(mutant))
