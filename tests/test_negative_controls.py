"""Full reports of the negative controls that change one entry of a valid
value, compared line by line with the ones in golden/negative_controls.json.

The two-level controls are pinned in golden/two_level_reports.json and the
unit-law mutants of the associative operad in golden/unit_law_reports.json;
this file pins the others: families with one face map changed, the pair
category and the set-valued diagrams with one composite or one map entry
changed, and the clubs of operads with one composition changed.
"""

import json
import pathlib

import pytest

from clubcat.algebra import validate_finset_diagram
from clubcat.fincat import validate_functor
from clubcat.semidirect import club_check
from clubcat.sset_club import validate_family

from test_algebra import (degenerate_map_mutant, identity_map_mutant,
                          overridden_composite_diagram, pool_diagrams)
from test_cli import unit_breaking_club
from test_operads import wrong_arity_club
from test_sset_club import (corrupted_pair_functor, invalid_family,
                            swapped_face_family, swapped_face_families)

NEGATIVE_GOLDEN = pathlib.Path(__file__).parent / "golden" / "negative_controls.json"


def negative_control_cases(monkeypatch):
    """(case id, thunk) for every recorded report, in order."""
    cases = [("validate_family:invalid-family",
              lambda: validate_family(invalid_family())),
             ("validate_family:swapped-face",
              lambda: validate_family(swapped_face_family()))]
    for n in (2, 3):
        for i, fam in enumerate(swapped_face_families(n)):
            cases.append((f"validate_family:swapped-face-families{n}-{i}",
                          lambda fam=fam: validate_family(fam)))
    cases += [
        ("validate_functor:corrupted-pair-category",
         lambda: validate_functor(corrupted_pair_functor()[0])),
        ("validate_finset_diagram:identity-map-mutant",
         lambda: validate_finset_diagram(
             identity_map_mutant(pool_diagrams(monkeypatch))[0])),
        ("validate_finset_diagram:degenerate-map-mutant",
         lambda: validate_finset_diagram(
             degenerate_map_mutant(pool_diagrams(monkeypatch)))),
        ("validate_finset_diagram:overridden-composite",
         lambda: validate_finset_diagram(
             overridden_composite_diagram(pool_diagrams(monkeypatch))[0])),
        ("club_check:unit-breaking", lambda: club_check(unit_breaking_club())),
        ("club_check:wrong-arity-comm2",
         lambda: club_check(wrong_arity_club("comm2"))),
        ("club_check:wrong-arity-swap2",
         lambda: club_check(wrong_arity_club("swap2"))),
    ]
    return cases


def test_negative_control_reports_match_the_golden(monkeypatch):
    golden = json.loads(NEGATIVE_GOLDEN.read_text(encoding="utf-8"))
    cases = negative_control_cases(monkeypatch)
    assert [name for name, _ in cases] == list(golden)
    for name, report in cases:
        assert report() == golden[name], name
    # every control fails
    assert all(golden.values())


if __name__ == "__main__":
    # re-record only when a report changes on purpose
    with pytest.MonkeyPatch.context() as mp:
        NEGATIVE_GOLDEN.write_text(
            json.dumps({name: report() for name, report in negative_control_cases(mp)},
                       indent=1) + "\n", encoding="utf-8")
