import pytest

from clubcat.diagram import (DiagramInCat, DiagramMorphism,
                             compose_diagram_morphisms, constantify,
                             diagram_morphism_equal, identity_diagram_morphism,
                             unit_diagram, validate_diagram,
                             validate_diagram_morphism)
from clubcat.errors import InputError
from clubcat.fincat import (Functor, discrete_category, enumerate_functors,
                            identity_functor, terminal_category, walking_arrow)

from fincat_reference import constant_functor


def arrow_diagram_with_fibers():
    """Base = walking arrow, fiber x = discrete 2, fiber y = 1, collapse map."""
    base = walking_arrow()
    two = discrete_category(["p", "q"])
    one = terminal_category()
    fibers = {"x": two, "y": one}
    collapse = constant_functor(two, one, "*")
    fiber_mor = {"id_x": identity_functor(two), "id_y": identity_functor(one),
                 "a": collapse}
    return DiagramInCat(base, fibers, fiber_mor, name="arrow-diag")


def test_constant_diagram_over_any_base_is_valid():
    assert validate_diagram(constantify(walking_arrow())) == []
    assert validate_diagram(constantify(discrete_category(["a", "b"]))) == []


def test_unit_diagram():
    u = unit_diagram()
    assert len(u.base.objects) == 1
    assert len(u.base.mor_ids) == 1
    assert validate_diagram(u) == []
    v = constantify(terminal_category())
    assert u.base.objects == v.base.objects
    assert u.fiber_obj["*"].objects == v.fiber_obj["*"].objects


def test_broken_fiber_functoriality_is_reported():
    base = walking_arrow()
    two = discrete_category(["p", "q"])
    # fiber of the arrow fails to equal itself composed with an identity? build
    # a genuinely broken pair instead: a composite whose table disagrees.
    x = arrow_diagram_with_fibers()
    bad_fiber_mor = dict(x.fiber_mor)
    bad_fiber_mor["a"] = Functor(two, x.fiber_obj["y"],
                                 {"p": "*", "q": "*"},
                                 {"id_p": "id_*", "id_q": "id_*"})
    # corrupt by renaming an image morphism to something wrong: make id map fail
    bad_fiber_mor["id_x"] = constant_functor(two, two, "p")
    bad = DiagramInCat(base, x.fiber_obj, bad_fiber_mor)
    report = validate_diagram(bad)
    assert any("identity" in r for r in report)


def test_valid_nonconstant_diagram():
    assert validate_diagram(arrow_diagram_with_fibers()) == []


def test_identity_and_composition_of_diagram_morphisms():
    x = arrow_diagram_with_fibers()
    ident = identity_diagram_morphism(x)
    assert validate_diagram_morphism(ident) == []
    both = compose_diagram_morphisms(ident, ident)
    assert diagram_morphism_equal(both, ident)


def test_composition_endpoint_mismatch():
    x = arrow_diagram_with_fibers()
    u = unit_diagram()
    with pytest.raises(InputError):
        compose_diagram_morphisms(identity_diagram_morphism(x),
                                  identity_diagram_morphism(u))


def test_hom_adjunction_at_desk_scale():
    # morphisms const(M) -> X biject with functors M -> base(X) when all
    # fibers of X are terminal: rho components are forced, so the lift of
    # each functor is valid and distinct.
    m = walking_arrow()
    x = constantify(discrete_category(["u", "v"]))
    lifted = []
    for f in enumerate_functors(m, x.base):
        one = terminal_category()
        cand = DiagramMorphism(constantify(m), x, f,
                               {d: identity_functor(one) for d in m.objects})
        assert validate_diagram_morphism(cand) == []
        lifted.append(cand)
    keys = {tuple(sorted(c.base_functor.omap.items())) for c in lifted}
    assert len(keys) == len(lifted) == len(enumerate_functors(m, x.base))


def test_associativity_of_composition_on_triple():
    c = walking_arrow()
    y = constantify(c)
    one = terminal_category()
    swapless = Functor(c, c, {"x": "y", "y": "y"},
                       {"id_x": "id_y", "id_y": "id_y", "a": "id_y"})
    e = DiagramMorphism(y, y, swapless, {d: identity_functor(one) for d in c.objects})
    assert validate_diagram_morphism(e) == []
    lhs = compose_diagram_morphisms(e, compose_diagram_morphisms(e, e))
    rhs = compose_diagram_morphisms(compose_diagram_morphisms(e, e), e)
    assert diagram_morphism_equal(lhs, rhs)
    assert validate_diagram_morphism(lhs) == []
