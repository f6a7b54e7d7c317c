import json

import pytest

from clubcat import formats
from clubcat.errors import SchemaError
from clubcat.fincat import validate_category, walking_arrow
from clubcat.diagram import constantify, validate_diagram
from clubcat.operads import (associative_operad, commutative_operad,
                             free_operad, operad_to_club, swap_pair_operad)
from clubcat.semidirect import club_check
from clubcat.simpset import boundary, product, standard_simplex, validate_sset
from clubcat.sset_club import constant_family, validate_family
from clubcat.algebra import constant_algebra_object, validate_finset_diagram


def roundtrip(kind, value):
    data = json.loads(formats.to_json_string(formats.serialize(kind, value)))
    got_kind, got = formats.parse_payload(data)
    assert got_kind == kind
    return got


def test_category_roundtrip():
    c = walking_arrow()
    back = roundtrip("category", c)
    assert back.objects == c.objects
    assert back.comp == c.comp
    assert validate_category(back) == []


def test_diagram_roundtrip():
    x = constantify(walking_arrow())
    back = roundtrip("diagram", x)
    assert validate_diagram(back) == []
    assert back.base.objects == x.base.objects


def test_sset_roundtrip():
    s = boundary(2, 3)
    back = roundtrip("sset", s)
    assert validate_sset(back) == []
    assert back.nondeg == s.nondeg
    assert back.faces == s.faces


def test_product_output_reloads():
    p = product(standard_simplex(1, 2), standard_simplex(1, 2))
    back = roundtrip("sset", p)
    assert validate_sset(back) == []


def test_operad_roundtrip():
    op = free_operad({2: ["g"]}, 3)
    back = roundtrip("operad", op)
    assert back.gamma == op.gamma
    assert back.levels == op.levels


def test_sym_operad_roundtrip():
    op = swap_pair_operad()
    back = roundtrip("operad", op)
    assert back.actions[2] == op.actions[2]
    assert type(back).__name__ == "SymOperad"


def test_club_object_roundtrip():
    s = standard_simplex(1, 2)
    obj = constant_family(s, boundary(2, 2))
    back = roundtrip("club-object", obj)
    assert validate_family(back) == []


def test_club_roundtrip_and_check():
    club = operad_to_club(associative_operad(2, with_nullary=True))
    back = roundtrip("club", club)
    assert club_check(back) == []
    assert back.cap == 2


def test_algebra_object_roundtrip():
    x = constant_algebra_object(standard_simplex(1, 1), ["u", "v"])
    back = roundtrip("algebra-object", x)
    assert validate_finset_diagram(back.diagram) == []


def test_schema_version_is_enforced():
    with pytest.raises(SchemaError):
        formats.parse_payload({"schema": "clubcat/999", "trunc": 1, "nondeg": {}})
    with pytest.raises(SchemaError):
        formats.parse_payload({"trunc": 1, "nondeg": {}})


def test_dangling_face_reference():
    data = formats.serialize("sset", standard_simplex(1, 1))
    data["faces"]["01"][0]["base"] = "nope"
    with pytest.raises(SchemaError):
        formats.parse_payload(data)


def test_kind_inference_diagram_vs_club_object():
    d = formats.serialize("diagram", constantify(walking_arrow()))
    d.pop("kind")
    assert formats.infer_kind(d) == "diagram"
    s = standard_simplex(1, 1)
    o = formats.serialize("club-object", constant_family(s, s))
    o.pop("kind")
    assert formats.infer_kind(o) == "club-object"


def test_byte_identical_serialization():
    club = operad_to_club(commutative_operad(2))
    a = formats.to_json_string(formats.serialize("club", club))
    b = formats.to_json_string(formats.serialize(
        "club", operad_to_club(commutative_operad(2))))
    assert a == b
