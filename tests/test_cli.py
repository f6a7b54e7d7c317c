import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from clubcat import cli, formats, simpset, suites
from clubcat.cli import build_parser, main
from clubcat.fincat import walking_arrow
from clubcat.generate import random_diagram, random_family
from clubcat.operads import (commutative_operad, cyclic_group_operad,
                             free_operad, operad_to_club)
from clubcat.simpset import (NormalForm, SimplicialMap, degeneracy_map,
                             disjoint_union, identity_smap, nondeg, one_point,
                             standard_simplex)
from clubcat.sset_club import constant_family
from clubcat.algebra import AlgebraMorphism, constant_algebra_object
from mutants import with_face_map, with_gamma


@pytest.fixture
def workspace(tmp_path):
    formats.write_file(tmp_path / "interval.json", "sset", standard_simplex(1, 2))
    formats.write_file(tmp_path / "op.json", "operad", free_operad({2: ["g"]}, 3))
    formats.write_file(tmp_path / "com.json", "operad", commutative_operad(2))
    s = standard_simplex(1, 2)
    formats.write_file(tmp_path / "obj.json", "club-object",
                       constant_family(s, s))
    formats.write_file(tmp_path / "alg.json", "algebra-object",
                       constant_algebra_object(s, ["u", "v"]))
    return tmp_path


def test_validate_pass(workspace, capsys):
    assert main(["validate", str(workspace / "interval.json")]) == 0
    assert "PASS" in capsys.readouterr().out


def test_validate_missing_file(workspace, capsys):
    assert main(["validate", str(workspace / "nope.json")]) == 2


def test_validate_schema_error(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "clubcat/1", "nonsense": true}')
    assert main(["validate", str(bad)]) == 2
    # malformed operator values in a face normal form are invalid input too
    for eta in ([[0]], "0", [True], [0.0], 0):
        data = json.loads((workspace / "interval.json").read_text())
        data["faces"]["01"][0]["eta"] = eta
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["validate", str(bad)]) == 2, eta
        assert capsys.readouterr().err.startswith("error:"), eta
    # malformed structure around the faces and simplex lists, and a boolean
    # truncation, are invalid input too
    edits = {
        "face base is a list": lambda d: d["faces"]["01"][0].update(base=["1"]),
        "face is an integer": lambda d: d["faces"]["01"].__setitem__(0, 5),
        "faces entry is an integer": lambda d: d["faces"].__setitem__("01", 5),
        "nondeg entry is an integer": lambda d: d["nondeg"].__setitem__("0", 5),
        "nondeg is an integer": lambda d: d.__setitem__("nondeg", 5),
        "faces is an integer": lambda d: d.__setitem__("faces", 5),
        "trunc is a boolean": lambda d: d.__setitem__("trunc", True),
    }
    for label, edit in edits.items():
        data = json.loads((workspace / "interval.json").read_text())
        edit(data)
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["validate", str(bad)]) == 2, label
        assert capsys.readouterr().err.startswith("error:"), label
    # the same for operad, club and club-object files: wrong containers,
    # boolean caps, a face map out of a vertex and club domain entries that
    # name no object of the carrier's square
    from clubcat.operads import associative_operad, operad_to_club
    formats.write_file(workspace / "club.json", "club",
                       operad_to_club(cyclic_group_operad(3)))
    formats.write_file(workspace / "assoc-club.json", "club",
                       operad_to_club(associative_operad(2)))
    edits = {
        "operad gamma is an integer": ("op.json", lambda d: d.update(gamma=5)),
        "operad gamma args is an integer":
            ("op.json", lambda d: d["gamma"][0].update(args=5)),
        "operad gamma op is a list":
            ("op.json", lambda d: d["gamma"][0].update(op=["x"])),
        "operad gamma argument is a list":
            ("op.json", lambda d: d["gamma"][0]["args"].__setitem__(0, ["x"])),
        "operad levels is an integer": ("op.json", lambda d: d.update(levels=5)),
        "operad level is an integer":
            ("op.json", lambda d: d["levels"].__setitem__("0", 5)),
        "operad cap is a boolean": ("op.json", lambda d: d.update(cap=True)),
        "operad unit is null": ("op.json", lambda d: d.update(unit=None)),
        "operad unit is an integer": ("op.json", lambda d: d.update(unit=5)),
        "operad actions is an integer": ("com.json", lambda d: d.update(actions=5)),
        "operad actions entry is an integer":
            ("com.json", lambda d: d["actions"].__setitem__("2", 5)),
        "operad action perm holds a list":
            ("com.json", lambda d: d["actions"]["2"][0]["perm"].__setitem__(0, ["x"])),
        "club domain is an integer": ("club.json", lambda d: d.update(domain=5)),
        "club domain entry is an integer":
            ("club.json", lambda d: d["domain"].__setitem__(0, 5)),
        "club cap is a boolean": ("club.json", lambda d: d.update(cap=True)),
        "club cap is a string": ("club.json", lambda d: d.update(cap="1")),
        "club domain object is unknown":
            ("assoc-club.json", lambda d: d["domain"].append(["9:zz", [], []])),
        "club domain omap has the wrong length":
            ("assoc-club.json", lambda d: d["domain"].append(
                ["1:a1", ["1:a1", "1:a1"], ["id_1:a1", "id_1:a1"]])),
        "club domain omap leaves the carrier base":
            ("assoc-club.json", lambda d: d["domain"].append(
                ["1:a1", ["9:zz"], ["id_9:zz"]])),
        "club domain mmap is not the identities":
            ("assoc-club.json", lambda d: d["domain"].append(
                ["1:a1", ["1:a1"], ["id_2:a2"]])),
        "club-object fiber map on a vertex":
            ("obj.json", lambda d: d["fiber_maps"].update(
                {"d0@0": d["fiber_maps"]["d0@01"]})),
    }
    for label, (source, edit) in edits.items():
        data = json.loads((workspace / source).read_text())
        edit(data)
        bad.write_text(json.dumps(data))
        commands = ["validate"] + (["club-check"] if source.endswith("club.json")
                                   else [])
        for command in commands:
            capsys.readouterr()
            assert main([command, str(bad)]) == 2, (command, label)
            assert capsys.readouterr().err.startswith("error:"), (command, label)


def test_validate_one_vertex_at_high_truncation_is_quick(tmp_path):
    # degeneracies of one vertex are few at any truncation; listing them must
    # not walk every monotone map [k] -> [j].  A subprocess with a timeout
    # turns a hang into a failure.
    path = tmp_path / "point22.json"
    path.write_text(json.dumps({"schema": "clubcat/1", "kind": "sset",
                                "trunc": 22, "nondeg": {"0": ["v"]}}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from clubcat.cli import main; sys.exit(main(sys.argv[1:]))",
         "validate", str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "[PASS] well-formed:sset" in proc.stdout


def test_algebra_colimit_above_the_size_bound_exits_3(tmp_path, capsys):
    # a refusal for size is a guardrail (exit 3), not invalid input (exit 2)
    path = tmp_path / "big.json"
    formats.write_file(path, "algebra-object", constant_algebra_object(
        one_point(0), [f"e{i}" for i in range(10_001)]))
    capsys.readouterr()
    assert main(["algebra", "colimit", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("guardrail:") and "10000" in err
    assert "Traceback" not in err


def test_ipoints_above_the_probe_bound_exits_3(workspace, capsys):
    # two values over the interval at truncation 2: 3 * 2**gen probes at
    # dimension 1, counted before any is listed
    path = str(workspace / "alg.json")
    capsys.readouterr()
    assert main(["algebra", "ipoints", path, "--gen", "17", "--dim", "1"]) == 3
    err = capsys.readouterr().err
    assert err == ("guardrail: 393216 probes at dimension 1, above the bound "
                   "PROBE_COUNT_BOUND = 100000\n")
    assert main(["--json", "algebra", "ipoints", path, "--gen", "15",
                 "--dim", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["details"] == {
        "count": 98_304, "dimension": 1}


def test_validation_failure_exit_code(workspace, tmp_path):
    data = formats.serialize("operad", cyclic_group_operad(3))
    for entry in data["gamma"]:
        if entry["op"] == "1" and entry["args"] == ["1"]:
            entry["result"] = "0"
    path = tmp_path / "badop.json"
    path.write_text(formats.to_json_string(data))
    assert main(["operad", "validate", str(path)]) == 1


def test_product_and_reload(workspace, capsys):
    out = workspace / "square.json"
    assert main(["sset", "product", str(workspace / "interval.json"),
                 str(workspace / "interval.json"), "-o", str(out)]) == 0
    assert main(["validate", str(out)]) == 0


def test_diag_matches_product_counts(workspace, capsys):
    out = workspace / "diag.json"
    assert main(["--json", "sset", "diag", str(workspace / "interval.json"),
                 str(workspace / "interval.json"), "-o", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    counts = report["checks"][0]["details"]["nondegenerate_counts"]
    assert counts == [4, 5, 2]
    # unequal truncation levels are invalid input
    formats.write_file(workspace / "interval3.json", "sset", standard_simplex(1, 3))
    assert main(["sset", "diag", str(workspace / "interval.json"),
                 str(workspace / "interval3.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_product_and_diag_refuse_an_invalid_sset(workspace, capsys):
    # Δ[2] with the faces of its 2-simplex listed in reverse order
    data = formats.serialize("sset", standard_simplex(2, 2))
    data["faces"]["012"].reverse()
    bad = workspace / "reversed-faces.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 1
    good = str(workspace / "triangle.json")
    formats.write_file(good, "sset", standard_simplex(2, 2))
    for command in ("product", "diag"):
        for pair in ([str(bad), good], [good, str(bad)]):
            capsys.readouterr()
            assert main(["sset", command, *pair]) == 2, (command, pair)
            assert capsys.readouterr().err.startswith(
                f"error: {bad} is not a valid sset"), (command, pair)


def _refusal(argv, capsys):
    """The exit code and stderr of one command line."""
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err


def test_compose_refuses_an_invalid_family(tmp_path, capsys):
    # two points over the triangle, with the points swapped along one face
    u = disjoint_union(one_point(2), one_point(2))
    a, b = u.nondeg[0]
    fam = with_face_map(constant_family(standard_simplex(2, 2), u), ("012", 0),
                        SimplicialMap(u, u, {a: nondeg(b, 0), b: nondeg(a, 0)}))
    path = tmp_path / "swapped.json"
    formats.write_file(path, "club-object", fam)
    assert _refusal(["sset", "compose", str(path)], capsys) == (
        2, "error: invalid family: functoriality fails at '012' with (1, 2) "
           "then (1,)\n")


def test_to_club_refuses_an_invalid_operad(tmp_path, capsys):
    path = tmp_path / "z3.json"
    formats.write_file(path, "operad",
                       with_gamma(cyclic_group_operad(3), ("1", ("1",)), "0"))
    assert _refusal(["operad", "to-club", str(path)], capsys) == (
        2, "error: invalid operad: associativity fails at ('1'; ('1',)) "
           "with ('2',)\n")


def test_kan_check_refuses_an_invalid_map(tmp_path, capsys):
    # the edge of the interval sent to a vertex, against its faces
    data = formats.serialize("map", identity_smap(standard_simplex(1, 2)))
    data["images"]["01"] = {"eta": [0, 0], "base": "0"}
    path = tmp_path / "collapsed.json"
    path.write_text(json.dumps(data))
    assert _refusal(["sset", "kan-check", str(path)], capsys) == (
        2, "error: invalid map: face d0 not preserved at '01'\n")


def test_a_map_between_two_truncations_is_invalid(tmp_path, capsys):
    # the interval at trunc 3 onto itself at trunc 1: every image exists,
    # but the horn search would need 2-simplices of the target
    s = standard_simplex(1, 3)
    path = tmp_path / "trunc-map.json"
    formats.write_file(path, "map", SimplicialMap(
        s, standard_simplex(1, 1), {x: nondeg(x, k) for x, k in s.listing()}))
    capsys.readouterr()
    assert main(["--json", "validate", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["checks"][0]["details"] == {
        "violations": ["source truncation 3 differs from target truncation 1"]}
    assert _refusal(["sset", "kan-check", str(path)], capsys) == (
        2, "error: invalid map: source truncation 3 differs from target "
           "truncation 1\n")


def test_compose_refuses_a_non_ascii_face_index(workspace, capsys):
    # "²" is a digit to str.isdigit, but not an index int() reads
    data = json.loads((workspace / "obj.json").read_text())
    data["fiber_maps"]["d²@01"] = data["fiber_maps"].pop("d0@01")
    path = workspace / "superscript.json"
    path.write_text(json.dumps(data))
    assert _refusal(["sset", "compose", str(path)], capsys) == (
        2, "error: club object fiber map key 'd²@01' is not 'd<i>@<simplex>'\n")


def test_simplex_lists_outside_the_truncation_are_refused(tmp_path, capsys):
    path = tmp_path / "interval.json"

    def sset_file(nondeg):
        path.write_text(json.dumps({
            "schema": "clubcat/1", "kind": "sset", "trunc": 1, "nondeg": nondeg,
            "faces": {"ab": [{"eta": [0], "base": "b"}, {"eta": [0], "base": "a"}]}}))
        return ["validate", str(path)]

    assert _refusal(sset_file({"0": ["a", "b"], "1": ["ab"], "2": ["abc"],
                               "x": ["q"]}), capsys) == (
        2, "error: simplicial set nondeg key '2' is not a dimension in 0..1\n")
    for key in ("x", "01", "-1", "1.0"):
        assert _refusal(sset_file({"0": ["a", "b"], "1": ["ab"], key: []}),
                        capsys) == (
            2, f"error: simplicial set nondeg key {key!r} is not a dimension "
               f"in 0..1\n"), key
    # a missing dimension reads as empty
    assert _refusal(sset_file({"0": ["a", "b"], "1": ["ab"]}), capsys) == (0, "")
    path.write_text(json.dumps({"schema": "clubcat/1", "kind": "sset",
                                "trunc": 1, "nondeg": {"1": []}}))
    assert _refusal(["validate", str(path)], capsys) == (0, "")


def test_operad_arities_above_the_cap_are_refused(workspace, tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({
        "schema": "clubcat/1", "kind": "operad", "cap": 1,
        "levels": {"1": ["e"], "2": ["m"]}, "unit": "e",
        "gamma": [{"op": "e", "args": ["e"], "result": "e"}]}))
    for command in (["operad", "validate"], ["operad", "to-club"]):
        assert _refusal([*command, str(path)], capsys) == (
            2, "error: operad levels key '2' is not an arity in 0..1\n"), command
    data = json.loads((workspace / "com.json").read_text())
    data["actions"]["3"] = data["actions"]["2"]
    path.write_text(json.dumps(data))
    assert _refusal(["operad", "validate", str(path)], capsys) == (
        2, "error: operad actions key '3' is not an arity in 0..2\n")
    data["actions"] = {"x": []}
    path.write_text(json.dumps(data))
    assert _refusal(["operad", "validate", str(path)], capsys) == (
        2, "error: operad actions key 'x' is not an arity in 0..2\n")


def test_compose_and_law_check(workspace):
    assert main(["sset", "compose", str(workspace / "obj.json"),
                 "-o", str(workspace / "comp.json")]) == 0
    assert main(["validate", str(workspace / "comp.json")]) == 0
    assert main(["sset", "law-check", "--unit", "--assoc",
                 str(workspace / "obj.json")]) == 0


def test_operad_pipeline(workspace):
    club_path = workspace / "club.json"
    assert main(["operad", "validate", str(workspace / "op.json")]) == 0
    assert main(["operad", "encode", str(workspace / "op.json"),
                 "-o", str(workspace / "enc.json")]) == 0
    assert main(["validate", str(workspace / "enc.json")]) == 0
    assert main(["operad", "to-club", str(workspace / "op.json"),
                 "-o", str(club_path)]) == 0
    assert main(["club-check", str(club_path)]) == 0
    assert main(["operad", "roundtrip", str(workspace / "op.json")]) == 0


def test_club_check_corrupted_exit_1(workspace, tmp_path):
    from clubcat.operads import NsOperad, operad_to_club
    z3 = cyclic_group_operad(3)
    gamma = dict(z3.gamma)
    gamma[("1", ("1",))] = "0"
    club = operad_to_club(NsOperad(1, z3.levels, "0", gamma))
    path = tmp_path / "badclub.json"
    formats.write_file(path, "club", club)
    assert main(["club-check", str(path)]) == 1


def test_broken_rebracketing_is_a_law_failure(capsys, monkeypatch):
    # a coherence isomorphism found not invertible is a failed check
    # (exit 1), not invalid input (exit 2)
    from clubcat import semidirect
    monkeypatch.setattr(semidirect, "_verify_iso",
                        lambda forward: ["not invertible"])
    assert main(["suite", "monoidal-laws", "--samples", "1"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] rebracketing-and-unit-isomorphisms" in captured.out
    assert captured.err == ""


def _json_paths(node, prefix=()):
    """Every key or index path into a JSON document, parents first."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def _single_field_fuzz(original, tmp_path, capsys):
    """Set every field of a serialized file, in turn, to a number, a list or
    a boolean: validate reports, or rejects the file with an error line.
    Returns the number of mutations run."""
    path = tmp_path / "mutant.json"
    mutations = 0
    for where in _json_paths(original):
        for value in (5, ["x"], True):
            data = json.loads(json.dumps(original))
            node = data
            for key in where[:-1]:
                node = node[key]
            node[where[-1]] = value
            path.write_text(json.dumps(data))
            capsys.readouterr()
            code = main(["validate", str(path)])
            assert code in (0, 1, 2), (where, value)
            if code == 2:
                assert capsys.readouterr().err.startswith("error:"), (where, value)
            mutations += 1
    return mutations


def test_club_file_single_field_fuzz_never_crashes(tmp_path, capsys):
    original = formats.serialize("club", operad_to_club(free_operad({2: ["g"]}, 2)))
    assert _single_field_fuzz(original, tmp_path, capsys) == 438


def test_club_object_file_single_field_fuzz_never_crashes(tmp_path, capsys):
    original = formats.serialize("club-object", random_family(random.Random(3), 1))
    assert _single_field_fuzz(original, tmp_path, capsys) == 279


def test_algebra_object_file_single_field_fuzz_never_crashes(tmp_path, capsys):
    original = formats.serialize(
        "algebra-object", constant_algebra_object(standard_simplex(1, 1), ["u", "v"]))
    assert _single_field_fuzz(original, tmp_path, capsys) == 282


def _identity_algebra_morphism(x):
    return AlgebraMorphism(x, x, identity_smap(x.shape),
                           {oid: {e: e for e in x.diagram.values[oid]}
                            for oid in x.shape.category().objects})


# kind -> (fixture, number of single-field mutations of its file)
LOADER_FUZZ_FIXTURES = {
    "category": (walking_arrow, 114),
    "diagram": (lambda: random_diagram(random.Random(1)), 117),
    "sset": (lambda: standard_simplex(2, 2), 174),
    "map": (lambda: identity_smap(standard_simplex(1, 1)), 156),
    "operad": (lambda: free_operad({2: ["g"]}, 2), 81),
    "algebra-morphism": (lambda: _identity_algebra_morphism(
        constant_algebra_object(standard_simplex(1, 1), ["u", "v"])), 654),
}


@pytest.mark.parametrize("kind", LOADER_FUZZ_FIXTURES)
def test_loader_single_field_fuzz_never_crashes(kind, tmp_path, capsys):
    make, mutations = LOADER_FUZZ_FIXTURES[kind]
    original = formats.serialize(kind, make())
    assert _single_field_fuzz(original, tmp_path, capsys) == mutations


# kind -> the commands besides validate that read a file of that kind
FILE_READERS = {
    "map": [["sset", "kan-check"]],
    "operad": [["operad", "to-club"], ["operad", "roundtrip"]],
    "club": [["club-check"]],
    "club-object": [["sset", "compose"], ["sset", "law-check"]],
    "algebra-object": [["algebra", "ipoints"], ["algebra", "colimit"]],
    "algebra-morphism": [["algebra", "fibration-check"]],
}

# fixture -> number of dict keys in its file
_DELETIONS = {"category": 17, "diagram": 27, "sset": 30, "map": 34,
              "operad": 18, "algebra-morphism": 180}

# fixture -> (kind, fixture, number of dict keys in its file): the loader
# fixtures, and those of the club, club-object and algebra-object fuzz tests
DELETION_FUZZ_FIXTURES = {
    **{kind: (kind, make, _DELETIONS[kind])
       for kind, (make, _) in LOADER_FUZZ_FIXTURES.items()},
    # trunc 1 has no horns, so kan-check searches only from trunc 2 on
    "map-trunc-2": ("map", lambda: identity_smap(standard_simplex(2, 2)), 82),
    "club": ("club", lambda: operad_to_club(free_operad({2: ["g"]}, 2)), 96),
    "club-object": ("club-object",
                    lambda: random_family(random.Random(3), 1), 63),
    "algebra-object": ("algebra-object", lambda: constant_algebra_object(
        standard_simplex(1, 1), ["u", "v"]), 77),
}


@pytest.mark.parametrize("fixture", DELETION_FUZZ_FIXTURES)
def test_single_key_deletion_fuzz_never_crashes(fixture, tmp_path, capsys):
    """Delete every dict key of a serialized file in turn, and run validate
    and each command that reads the file's kind: each exits 0-3, and an
    exit 2 prints an error line."""
    kind, make, deletions = DELETION_FUZZ_FIXTURES[fixture]
    original = formats.serialize(kind, make())
    path = tmp_path / "mutant.json"
    count = 0
    for where in _json_paths(original):
        data = json.loads(json.dumps(original))
        node = data
        for key in where[:-1]:
            node = node[key]
        if not isinstance(node, dict):
            continue
        del node[where[-1]]
        path.write_text(json.dumps(data))
        for command in [["validate"]] + FILE_READERS.get(kind, []):
            capsys.readouterr()
            code = main(command + [str(path)])
            assert code in (0, 1, 2, 3), (where, command)
            if code == 2:
                assert capsys.readouterr().err.startswith("error:"), (where, command)
        count += 1
    assert count == deletions


def test_validating_a_deep_truncation_composes_almost_nothing(tmp_path,
                                                               monkeypatch):
    # the algebra object's shape raised to truncation 5 lacks the maps of
    # the new operators: validate says so without composing the operators
    # of its category of simplices, of which there are millions
    data = formats.serialize(
        "algebra-object", constant_algebra_object(standard_simplex(1, 1), ["u", "v"]))
    data["shape"]["trunc"] = 5
    path = tmp_path / "trunc5.json"
    path.write_text(json.dumps(data))
    calls = 0
    compose_maps = simpset.compose_maps

    def counting_compose_maps(g, f):
        nonlocal calls
        calls += 1
        return compose_maps(g, f)

    monkeypatch.setattr(simpset, "compose_maps", counting_compose_maps)
    assert main(["validate", str(path)]) == 1
    assert calls <= 100_000


def unit_breaking_club():
    """The club of the associative operad with a nullary element whose mu
    sends the unit applied to a3 to the nullary a0, whose fiber has none of
    the objects of the fiber over a3."""
    from clubcat.operads import associative_operad, operad_to_club
    op = associative_operad(3, with_nullary=True)
    return operad_to_club(with_gamma(op, ("a1", ("a3",)), "a0"))


def test_club_check_reports_unit_law_failing_on_objects(tmp_path, capsys):
    from clubcat.semidirect import club_check
    club = unit_breaking_club()
    violations = club_check(club)
    assert "left unit law fails on object '3:a3': mu gives '0:a0'" in violations
    assert "left unit law fails on fiber object '0' over '3:a3'" in violations
    path = tmp_path / "badunit.json"
    formats.write_file(path, "club", club)
    capsys.readouterr()
    assert main(["--json", "club-check", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["status"] == "fail"


def test_algebra_commands(workspace, capsys):
    assert main(["--json", "algebra", "colimit", str(workspace / "alg.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["details"]["classes"] == 2
    assert main(["algebra", "ipoints", str(workspace / "alg.json"),
                 "--dim", "0"]) == 0
    assert main(["algebra", "fibration-check", "--samples", "4",
                 "--seed", "1"]) == 0


def test_algebra_commands_refuse_a_map_that_leaves_its_target(tmp_path, capsys):
    x = constant_algebra_object(standard_simplex(1, 1), ["u", "v"])
    obj = formats.serialize("algebra-object", x)
    obj["maps"]["01!0"]["v"] = "w"
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(obj))
    assert main(["algebra", "ipoints", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: invalid set diagram: map at '01!0' leaves the target")
    morphism = formats.serialize("algebra-morphism", _identity_algebra_morphism(x))
    morphism["tgt"] = obj
    path.write_text(json.dumps(morphism))
    assert main(["--json", "validate", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["checks"][0]["details"][
        "violations"] == ["target diagram: map at '01!0' leaves the target at 'v'"]
    assert main(["algebra", "fibration-check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid morphism: target diagram: ")


def _repeated_constant(obj):
    del obj["values"], obj["maps"]
    obj["constant"] = ["u", "u"]


def _unknown_value_key(obj):
    obj["values"]["9"] = ["u"]


def _unknown_map_key(obj):
    obj["maps"]["9!0"] = {"u": "u"}


def _map_entry_outside_the_source(obj):
    obj["maps"]["01!0"]["w"] = "u"


# edit of an algebra-object file over the interval at trunc 2 -> the first
# violation that validate reports
BAD_ALGEBRA_OBJECTS = {
    "repeated-constant": (_repeated_constant, "value at '0' repeats 'u'"),
    "unknown-value-key": (_unknown_value_key, "value at '9', which is no object"),
    "unknown-map-key": (_unknown_map_key, "map at '9!0', which is no morphism"),
    "map-entry-outside-the-source": (
        _map_entry_outside_the_source,
        "map at '01!0' is defined on 'w' outside its source"),
}


@pytest.mark.parametrize("case", BAD_ALGEBRA_OBJECTS)
def test_algebra_object_files_that_name_too_much_are_refused(case, tmp_path, capsys):
    edit, first = BAD_ALGEBRA_OBJECTS[case]
    obj = formats.serialize("algebra-object", constant_algebra_object(
        standard_simplex(1, 2), ["u", "v"]))
    edit(obj)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["--json", "validate", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["checks"][0]["details"][
        "violations"][0] == first
    for command in (["algebra", "colimit"], ["algebra", "ipoints"]):
        assert _refusal([*command, str(path)], capsys) == (
            2, f"error: invalid set diagram: {first}\n"), command


def _unknown_component_key(morphism):
    morphism["components"]["9"] = {"u": "u"}


def _component_entry_outside_the_source(morphism):
    morphism["components"]["01"]["w"] = "u"


# edit of the identity morphism of that algebra object -> the one violation
BAD_ALGEBRA_MORPHISMS = {
    "unknown-component-key": (_unknown_component_key,
                              "component at '9', which is no object"),
    "component-entry-outside-the-source": (
        _component_entry_outside_the_source,
        "component at '01' is defined on 'w' outside its source"),
}


@pytest.mark.parametrize("case", BAD_ALGEBRA_MORPHISMS)
def test_algebra_morphism_files_that_name_too_much_are_refused(case, tmp_path, capsys):
    edit, violation = BAD_ALGEBRA_MORPHISMS[case]
    morphism = formats.serialize("algebra-morphism", _identity_algebra_morphism(
        constant_algebra_object(standard_simplex(1, 2), ["u", "v"])))
    edit(morphism)
    path = tmp_path / "mor.json"
    path.write_text(json.dumps(morphism))
    capsys.readouterr()
    assert main(["--json", "validate", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["checks"][0]["details"][
        "violations"] == [violation]
    assert _refusal(["algebra", "fibration-check", str(path)], capsys) == (
        2, f"error: invalid morphism: {violation}\n")


def test_suite_deterministic(capsys):
    assert main(["--json", "suite", "club-check", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "suite", "club-check", "--seed", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_suite_unknown_name():
    with pytest.raises(SystemExit):
        main(["suite", "nope"])


def test_suite_low_truncation_and_negative_samples(capsys):
    # at truncation 1 the squares check compares the counts it took, [4, 5]
    assert main(["suite", "sset-laws", "--trunc", "1"]) == 0
    assert "[PASS] constant-composite-is-product:squares" in capsys.readouterr().out
    # at truncation 0 the fixtures are not the shapes the laws are stated for
    for argv in (["suite", "sset-laws", "--trunc", "0"],
                 ["suite", "algebra-laws", "--trunc", "0"],
                 ["suite", "stability", "--samples", "-1"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:"), argv


def test_fibration_check_keeps_explicit_counts(capsys):
    assert main(["--json", "algebra", "fibration-check", "--samples", "0",
                 "--trunc", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["details"]["samples"] == 0
    for flag in ("--trunc", "--samples"):
        assert main(["algebra", "fibration-check", flag, "-1"]) == 2, flag
        assert capsys.readouterr().err.startswith("error:"), flag


def test_negative_dimension_bounds_are_rejected(workspace, capsys):
    # the interval collapsed to a point fails horn lifting at dimension 2;
    # a negative bound would check no horn and pass
    collapse = SimplicialMap(standard_simplex(1, 3), one_point(3), {
        "0": nondeg("pt", 0), "1": nondeg("pt", 0),
        "01": NormalForm(degeneracy_map(0, 0), "pt")})
    formats.write_file(workspace / "collapse.json", "map", collapse)
    formats.write_file(workspace / "id0.json", "map",
                       identity_smap(standard_simplex(1, 0)))
    assert main(["sset", "kan-check", str(workspace / "collapse.json"),
                 "--max-dim", "2"]) == 1
    capsys.readouterr()
    for argv in (["sset", "kan-check", str(workspace / "collapse.json"),
                  "--max-dim", "-3"],
                 # the default bound at truncation 0 is -1
                 ["--json", "sset", "kan-check", str(workspace / "id0.json")],
                 ["algebra", "ipoints", str(workspace / "alg.json"),
                  "--dim", "-1"],
                 # a negative generator size is not the empty generator
                 ["algebra", "ipoints", str(workspace / "alg.json"),
                  "--gen", "-1", "--dim", "0"],
                 ["algebra", "fibration-check", "--gen", "-2",
                  "--samples", "2"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:"), argv


def test_word_operad_correspondence_failure_is_recorded(monkeypatch):
    def broken(p):
        return SimpleNamespace(problems=["no correspondence"])
    monkeypatch.setattr(suites, "ns_iso_check", broken)
    report = suites.run_suite("operad-bijection", samples=0)
    statuses = {c["law"]: c["status"] for c in report["checks"]}
    assert statuses["composite-collection-correspondence:word-operad"] == "fail"


def _readme_session():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    session = readme.split("Example session:")[1].split("```sh\n")[1]
    lines = session.split("```")[0].splitlines()
    assert lines
    argvs = []
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "clubcat"
        argvs.append(argv)
    return argvs


def test_readme_example_session_parses():
    for argv in _readme_session():
        build_parser().parse_args(argv)


PLAIN_ARGVS = [
    # one argv of each request shape of the benchmark pools
    ["--json", "suite", "monoidal-laws", "--seed", "3", "--samples", "1"],
    ["--json", "suite", "sset-laws", "--seed", "1", "--trunc", "3",
     "--samples", "1"],
    ["--json", "operad", "to-club", "operads/assoc.json",
     "-o", "out/assoc.club.json"],
    ["--json", "club-check", "clubs/assoc.json"],
    ["--json", "suite", "operad-bijection", "--seed", "2", "--samples", "2"],
    ["--json", "suite", "algebra-laws", "--seed", "4", "--trunc", "2",
     "--samples", "1"],
    ["--json", "suite", "stability", "--seed", "4", "--trunc", "2",
     "--samples", "4"],
    # one argv of each command
    ["validate", "F"],
    ["semidirect", "L", "R", "-o", "OUT"],
    ["--report-out", "R", "club-check", "F"],
    ["sset", "validate", "F"],
    ["sset", "product", "A", "B", "--out", "OUT"],
    ["sset", "diag", "A", "B"],
    ["sset", "compose", "F", "-o", "OUT"],
    ["sset", "kan-check", "F", "--max-dim", "2"],
    ["sset", "law-check", "F", "--assoc"],
    ["operad", "validate", "F"],
    ["operad", "encode", "F", "-o", "OUT"],
    ["operad", "to-club", "F"],
    ["operad", "roundtrip", "F"],
    ["algebra", "colimit", "F"],
    ["algebra", "ipoints", "F", "--gen", "2", "--dim", "0"],
    ["algebra", "fibration-check", "--samples", "3"],
    ["suite", "stability", "--trunc", "1"],
    # an option before a positional, a repeated option, an optional
    # positional first, and an option value that is a command name
    ["sset", "law-check", "--unit", "--assoc", "F"],
    ["suite", "club-check", "--seed", "1", "--seed", "2"],
    ["algebra", "fibration-check", "F", "--gen", "0"],
    ["--report-out", "validate", "suite", "club-check"],
]

OTHER_ARGVS = [
    ["suite", "club-check", "--seed=3"],
    ["--rep", "FILE", "validate", "F"],
    ["sset", "kan-check", "F", "--max-dim", "-1"],
    ["operad", "to-club", "F", "-oOUT"],
    ["validate", "--", "F"],
    ["algebra", "fibration-check", "--gen", "0", "F"],
    ["suite", "nope"],
    ["semidirect", "L", "R"],
    ["validate", "F", "extra"],
    ["algebra", "ipoints", "F", "--dim", "x"],
    ["club-check", "F", "--json"],
] + [[*path, "-h"] for path in cli._GRAMMAR]


@pytest.mark.parametrize("argv", _readme_session() + PLAIN_ARGVS + OTHER_ARGVS,
                         ids=" ".join)
def test_one_path_parse_matches_the_full_parser(argv):
    # the plain reader reads argv as argparse does, or leaves it to argparse
    args = cli._read_plain(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


def test_plain_command_lines_build_no_parser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _, handler, _ in cli._GRAMMAR.values():
        if handler:
            monkeypatch.setattr(cli, handler, lambda args: 0)
    for argv in _readme_session() + PLAIN_ARGVS:
        assert main(argv) == 0, argv
    assert built == []


def test_commands_resolve_through_module_attributes(monkeypatch):
    # the benchmark's tracer wraps commands by rebinding module attributes,
    # which a table of commands built at import would not see
    monkeypatch.setattr(cli, "cmd_club_check", lambda args: 7)
    assert main(["club-check", "F"]) == 7


def _exit_and_output(argv, parse, capsys):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [["-h"], ["--json", "-h"], ["sset", "-h"],
                                  ["sset", "kan-check", "-h"],
                                  ["operad", "to-club", "-h"]], ids=" ".join)
def test_help_is_the_full_parsers(argv, capsys):
    code, out, err = _exit_and_output(argv, main, capsys)
    assert (code, out, err) == _exit_and_output(
        argv, build_parser().parse_args, capsys)
    assert code == 0 and out.startswith("usage: clubcat") and not err


@pytest.mark.parametrize("argv", [[], ["--json"], ["bogus", "F"],
                                  ["sset"], ["sset", "bogus", "F"],
                                  ["validate", "F", "extra"],
                                  ["algebra", "ipoints", "--dim", "x", "F"]],
                         ids=" ".join)
def test_usage_errors_are_the_full_parsers(argv, capsys):
    code, out, err = _exit_and_output(argv, main, capsys)
    assert (code, out, err) == _exit_and_output(
        argv, build_parser().parse_args, capsys)
    assert code == 2 and err.startswith("usage: clubcat")


def test_importing_the_cli_generates_no_dataclass_code():
    # -S keeps site hooks out, so a .pth file can neither import the modules
    # nor hide their import
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import clubcat.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))", src],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_reading_a_plain_command_line_loads_neither_locale_nor_shutil(
        tmp_path):
    # argparse imports them when it builds a parser; -S as above
    from clubcat.operads import operad_to_club
    path = tmp_path / "z3.json"
    formats.write_file(path, "club", operad_to_club(cyclic_group_operad(3)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); "
         "from clubcat.cli import main; "
         "code = main(['--json', 'club-check', sys.argv[2]]); "
         "print(code, sorted({'locale', 'shutil'} & set(sys.modules)))",
         src, str(path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("\n0 []\n")


class _BrokenPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("stdout", [None, _BrokenPipe()],
                         ids=["closed", "broken-pipe"])
def test_unwritable_stdout_is_invalid_input(stdout, workspace, capsys,
                                            monkeypatch):
    # exit 1 says a law failed; a report that cannot be printed is exit 2
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["--json", "validate", str(workspace / "interval.json")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write stdout")


def test_non_utf8_input_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr()
    assert out.err == f"error: {path} is not UTF-8 JSON\n"
    assert out.out == ""


def test_unwritable_outputs_are_invalid_input(workspace, capsys):
    missing = workspace / "missing"
    interval = str(workspace / "interval.json")
    for argv in (["--report-out", str(missing / "r.json"), "validate", interval],
                 ["--report-out", str(workspace), "validate", interval],
                 ["operad", "to-club", str(workspace / "op.json"),
                  "-o", str(missing / "x.json")],
                 ["sset", "product", interval, interval,
                  "-o", str(missing / "y.json")]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        out = capsys.readouterr()
        assert out.err.startswith("error: cannot write "), argv
        assert out.out == "", argv


def test_report_out_writes_file(workspace, tmp_path):
    out = tmp_path / "report.json"
    assert main(["--report-out", str(out), "validate",
                 str(workspace / "interval.json")]) == 0
    data = json.loads(out.read_text())
    assert data["summary"]["failed"] == 0


def _cli_subprocess(argv, cwd):
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-m", "clubcat.cli"] + argv,
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=120)


def test_no_output_is_lost_at_exit(tmp_path):
    # the CLI freezes the heap at exit, so finalization frees no cycles; every
    # byte of stdout, --report-out and -o must still be written
    suite = ["suite", "stability", "--trunc", "2", "--seed", "3",
             "--samples", "4"]
    proc = _cli_subprocess(["--json", "--report-out", "R"] + suite, tmp_path)
    assert proc.returncode == 0, proc.stderr
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["--json", "--report-out",
                     str(tmp_path / "in-process.json")] + suite) == 0
    assert proc.stdout == (tmp_path / "R").read_bytes()
    assert proc.stdout == stdout.getvalue().encode("utf-8")
    assert proc.stdout == (tmp_path / "in-process.json").read_bytes()

    operad = free_operad({2: ["g"]}, 3)
    formats.write_file(tmp_path / "F", "operad", operad)
    proc = _cli_subprocess(["operad", "to-club", "F", "-o", "OUT"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    formats.write_file(tmp_path / "in-process-club.json", "club",
                       operad_to_club(operad))
    assert ((tmp_path / "OUT").read_bytes()
            == (tmp_path / "in-process-club.json").read_bytes())


@pytest.mark.parametrize("module, frozen", [("clubcat", False),
                                            ("clubcat.cli", True)])
def test_only_the_cli_freezes_the_heap_at_exit(module, frozen):
    # -S keeps site hooks out, so no .pth file registers an exit function
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import atexit, gc, sys; sys.path.insert(0, sys.argv[1]); "
         f"import {module}; atexit._run_exitfuncs(); "
         "print(gc.get_freeze_count())", src],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (int(proc.stdout) > 0) == frozen


def test_main_freezes_nothing(workspace, capsys):
    # a long-lived caller keeps collecting its garbage after main returns
    before = gc.get_freeze_count()
    assert main(["--json", "validate", str(workspace / "interval.json")]) == 0
    assert main(["suite", "club-check", "--seed", "9"]) == 0
    assert gc.get_freeze_count() == before


# the goldens below are recorded with ``python tests/test_cli.py``;
# re-record only when an output changes on purpose
CLUB_OBJECT_GOLDEN = Path(__file__).parent / "golden" / "club_object_cli.json"


def _club_object_inputs():
    """The club objects whose command outputs ``club_object_cli.json`` pins:
    four random families and the constant family of the workspace."""
    inputs = {f"random_family:{seed}": random_family(random.Random(seed), 2)
              for seed in (1, 2, 3, 5)}
    s = standard_simplex(1, 2)
    inputs["constant-interval"] = constant_family(s, s)
    return inputs


def _club_object_cli_outputs(directory):
    """Exit code, stdout and ``-o`` bytes of the club-object commands on
    each input, keyed by input and command."""
    outputs = {}
    for label, obj in _club_object_inputs().items():
        path = directory / f"{label.replace(':', '-')}.json"
        out = directory / "composite.json"
        formats.write_file(path, "club-object", obj)
        for name, argv in (("validate", ["validate", str(path)]),
                           ("compose", ["sset", "compose", str(path),
                                        "-o", str(out)]),
                           ("law-check", ["sset", "law-check", str(path),
                                          "--unit", "--assoc"])):
            out.unlink(missing_ok=True)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(["--json"] + argv)
            written = out.read_text(encoding="utf-8") if out.exists() else None
            outputs[f"{label}:{name}"] = {
                "exit": code, "stdout": stdout.getvalue(), "out": written}
    return outputs


def test_club_object_commands_match_golden(tmp_path):
    golden = json.loads(CLUB_OBJECT_GOLDEN.read_text(encoding="utf-8"))
    assert _club_object_cli_outputs(tmp_path) == golden


# ``semidirect -o`` writes product ids "<d>:psi<rank>", ranks in the functor
# enumeration at d, which no benchmark report covers
SEMIDIRECT_GOLDEN = Path(__file__).parent / "golden" / "semidirect_cli.json"


def _semidirect_inputs():
    """The pairs whose written products ``semidirect_cli.json`` pins: twenty
    seeded random diagram pairs, eight of them with a walking-arrow left
    fiber, and both orders of the product-non-symmetry witness."""
    pairs = {}
    for seed in range(20):
        rng = random.Random(seed)
        pairs[f"random_diagram:{seed}"] = (random_diagram(rng, "L"),
                                           random_diagram(rng, "R"))
    one = suites._pointed_diagram(["d"], [2])
    two = suites._pointed_diagram(["u", "v"], [1, 1])
    pairs["non-symmetry:left"] = (one, two)
    pairs["non-symmetry:right"] = (two, one)
    return pairs


def _semidirect_cli_digests(directory):
    """Exit code and sha256 of the ``-o`` bytes of ``semidirect`` on each
    pair, keyed by pair."""
    left, right, out = (directory / f"{name}.json"
                        for name in ("left", "right", "product"))
    digests = {}
    for label, pair in _semidirect_inputs().items():
        for path, value in zip((left, right), pair):
            formats.write_file(path, "diagram", value)
        out.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["semidirect", str(left), str(right), "-o", str(out)])
        digests[label] = {"exit": code, "sha256": hashlib.sha256(
            out.read_bytes()).hexdigest() if out.exists() else None}
    return digests


def test_written_products_match_golden(tmp_path):
    golden = json.loads(SEMIDIRECT_GOLDEN.read_text(encoding="utf-8"))
    assert _semidirect_cli_digests(tmp_path) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for golden, outputs in ((CLUB_OBJECT_GOLDEN, _club_object_cli_outputs),
                                (SEMIDIRECT_GOLDEN, _semidirect_cli_digests)):
            golden.write_text(
                json.dumps(outputs(Path(scratch)), indent=1,
                           sort_keys=True) + "\n", encoding="utf-8")
