"""Reports do not depend on the addresses of normal forms.

Normal forms are interned and define no ``__hash__``, so they hash by
identity: the order of a set of normal forms follows object addresses, not
the hash seed, and two runs under two hash seeds need not move it.  Each
command here runs in two fresh interpreters under one hash seed.  One runs
it plainly; the other first interns a few thousand normal forms in
shuffled order, which moves the address of every normal form built after
them.  Exit code, report and written file must be equal byte for byte.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from clubcat import formats
from clubcat.generate import random_family

SRC = str(Path(__file__).resolve().parents[1] / "src")

COMMANDS = [
    ["--json", "suite", "algebra-laws", "--samples", "4"],
    ["--json", "suite", "sset-laws", "--trunc", "3", "--samples", "1"],
    ["--json", "suite", "stability", "--samples", "8"],
    ["--json", "algebra", "fibration-check", "--trunc", "5", "--samples", "1"],
    ["--json", "sset", "compose", "family5.json", "-o", "composite.json"],
]

RUN = ("import sys; from clubcat.cli import main; "
       "sys.exit(main(sys.argv[1:]))")

# 31 surjections out of [0]..[4] on 100 bases each, interned in shuffled
# order and kept alive; the shuffled key list is freed afterwards, which
# leaves holes in the allocator's free lists in shuffled order too
PAD = """
import random
from clubcat.simpset import NormalForm, surjections
keys = [(eta, f"pad{i}") for i in range(100) for m in range(5)
        for j in range(m + 1) for eta in surjections(m, j)]
random.Random(0).shuffle(keys)
padding = [NormalForm(eta, base) for eta, base in keys]
del keys
"""


def _run(workdir, code, argv):
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": "0"}
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=workdir,
                          env=env, capture_output=True, timeout=300)
    written = workdir / "composite.json"
    return (proc.returncode, proc.stdout, proc.stderr,
            written.read_bytes() if written.exists() else None)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[1:4]))
def test_outputs_do_not_depend_on_normal_form_addresses(tmp_path, argv):
    runs = []
    for label, code in (("plain", RUN), ("padded", PAD + RUN)):
        workdir = tmp_path / label
        workdir.mkdir()
        formats.write_file(workdir / "family5.json", "club-object",
                           random_family(random.Random(5), 2))
        runs.append(_run(workdir, code, argv))
    plain, padded = runs
    assert plain[0] == 0, plain[2]
    assert plain[1]
    assert ("-o" in argv) == (plain[3] is not None)
    assert padded == plain
