"""Many requests in one interpreter give the bytes of one interpreter each.

Interned and memoized state lives across requests in one process: the
``MonotoneMap``, ``NormalForm`` and ``SimplicialMap`` interning,
``SimplicialSet.category()``, the transport caches and ``_club_identity``.
A fixed mixed list of commands runs through ``clubcat.cli.main`` in one
interpreter, once in order and once reversed; each exit code, report and
written file must equal a run of the same command in a fresh interpreter.
The normal-form table is keyed by value, so a second identical pass adds no
entry to it: it is bounded by the distinct simplices built, not by requests.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

from clubcat import formats, generate
from clubcat.operads import (free_operad, operad_to_club,
                             symmetric_associative_operad)

SRC = str(Path(__file__).resolve().parents[1] / "src")

# one request of each benchmark pool shape, two clubs written and then
# checked, and a mutant club that fails its check
COMMANDS = [
    ["--json", "suite", "monoidal-laws", "--seed", "1", "--samples", "1"],
    ["--json", "suite", "sset-laws", "--seed", "1", "--trunc", "3",
     "--samples", "1"],
    ["--json", "operad", "to-club", "operads/sym-assoc2.json",
     "-o", "out/sym-assoc2.json"],
    ["--json", "operad", "to-club", "operads/free-binary3.json",
     "-o", "out/free-binary3.json"],
    ["--json", "club-check", "clubs/sym-assoc2.json"],
    ["--json", "club-check", "clubs/free-binary3.json"],
    ["--json", "club-check", "clubs/mutant.json"],
    ["--json", "suite", "operad-bijection", "--seed", "1", "--samples", "2"],
    ["--json", "suite", "algebra-laws", "--seed", "1", "--trunc", "2",
     "--samples", "1"],
    ["--json", "suite", "stability", "--seed", "1", "--trunc", "2",
     "--samples", "4"],
    ["--json", "suite", "club-check", "--seed", "1"],
    ["--json", "suite", "monoidal-laws", "--seed", "2", "--samples", "1"],
]

# runs each argv of the JSON list argv[1] through main, and prints the exit
# code, stdout and stderr of each as one JSON list
BATCH = """
import contextlib, io, json, sys
from clubcat.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
sys.stdout.write(json.dumps(results))
"""

# runs the JSON list argv[1] through main twice and prints the size of the
# normal-form table after each pass
TWICE = """
import contextlib, io, json, sys
from clubcat import simpset
from clubcat.cli import main
sizes = []
for _ in range(2):
    for argv in json.loads(sys.argv[1]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(argv)
    sizes.append(len(simpset._NORMAL_FORMS))
sys.stdout.write(json.dumps(sizes))
"""


def _python(workdir, *args):
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": "0"}
    return subprocess.run([sys.executable, *args], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=300)


def _fresh(workdir, argv):
    proc = _python(workdir, "-c", "import sys; from clubcat.cli import main; "
                   "sys.exit(main(sys.argv[1:]))", *argv)
    return [proc.returncode, proc.stdout, proc.stderr]


def _written(workdir):
    out = workdir / "out"
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _inputs(tmp_path, with_clubs=False):
    """The operad files of COMMANDS and the mutant club, in a new folder;
    ``with_clubs`` also writes the clubs of the two operads."""
    inputs = tmp_path / "inputs"
    for sub in ("operads", "clubs", "out"):
        (inputs / sub).mkdir(parents=True)
    for stem, op in (("sym-assoc2", symmetric_associative_operad(2)),
                     ("free-binary3", free_operad({2: ["g"]}, 3))):
        formats.write_file(inputs / "operads" / f"{stem}.json", "operad", op)
        if with_clubs:
            formats.write_file(inputs / "clubs" / f"{stem}.json", "club",
                               operad_to_club(op))
    (_, _, mutant), = generate.law_breaking_mutations(
        random.Random(1), free_operad({2: ["g"]}, 3), 1)
    formats.write_file(inputs / "clubs" / "mutant.json", "club",
                       operad_to_club(mutant))
    return inputs


def test_one_process_in_either_order_matches_fresh_interpreters(tmp_path):
    inputs = _inputs(tmp_path)

    # fresh interpreters, in order; the clubs that to-club writes are the
    # ones club-check reads
    fresh = tmp_path / "fresh"
    shutil.copytree(inputs, fresh)
    want = []
    for argv in COMMANDS:
        want.append(_fresh(fresh, argv))
        if argv[1:3] == ["operad", "to-club"]:
            shutil.copy(fresh / argv[-1], fresh / "clubs")
    written = _written(fresh)
    assert sorted(written) == ["free-binary3.json", "sym-assoc2.json"]
    assert [code for code, _, _ in want] == [0] * 6 + [1] + [0] * 5
    for stem in written:
        shutil.copy(fresh / "clubs" / stem, inputs / "clubs")

    for label, order in (("in order", list(range(len(COMMANDS)))),
                         ("reversed", list(range(len(COMMANDS)))[::-1])):
        workdir = tmp_path / label.replace(" ", "-")
        shutil.copytree(inputs, workdir)
        proc = _python(workdir, "-c", BATCH,
                       json.dumps([COMMANDS[i] for i in order]))
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        for i, result in zip(order, got):
            assert result == want[i], (label, COMMANDS[i])
        assert _written(workdir) == written, label


def test_a_second_pass_interns_no_new_normal_form(tmp_path):
    inputs = _inputs(tmp_path, with_clubs=True)
    proc = _python(inputs, "-c", TWICE, json.dumps(COMMANDS))
    assert proc.returncode == 0, proc.stderr
    first, second = json.loads(proc.stdout)
    assert first > 0
    assert second == first
