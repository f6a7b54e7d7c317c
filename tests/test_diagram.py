import pytest

from clubcat.diagram import (DiagramInCat, DiagramMorphism,
                             compose_diagram_morphisms, constantify,
                             diagram_morphism_equal, find_diagram_isomorphism,
                             identity_diagram_morphism, lift_functor,
                             unit_diagram,
                             validate_diagram, validate_diagram_morphism)
from clubcat.errors import InputError
from clubcat.fincat import (Functor, compose_functors, constant_functor,
                            discrete_category, enumerate_functors,
                            functor_equal, identity_functor,
                            terminal_category, validate_functor,
                            walking_arrow)


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


def test_constantify_lifts_functors_functorially():
    c = walking_arrow()
    d = discrete_category(["u", "v"])
    for f in enumerate_functors(c, c):
        lifted = lift_functor(f)
        assert validate_diagram_morphism(lifted) == []
    # composition preserved
    f = constant_functor(c, c, "y")
    g = identity_functor(c)
    lf, lg = lift_functor(f), lift_functor(g)
    comp_then_lift = lift_functor(compose_functors(g, f))
    lift_then_comp = compose_diagram_morphisms(lg, lf)
    assert diagram_morphism_equal(comp_then_lift, lift_then_comp)


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
    x = arrow_diagram_with_fibers()
    i = identity_diagram_morphism(x)
    # build a non-identity endomorphism of the constant diagram instead
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


def test_find_diagram_isomorphism_on_renamed_copy():
    x = arrow_diagram_with_fibers()
    iso = find_diagram_isomorphism(x, x)
    assert iso is not None
    assert validate_diagram_morphism(iso) == []
    assert validate_functor(iso.base_functor) == []


def test_find_diagram_isomorphism_fails_on_different_fibers():
    base = terminal_category()
    one = terminal_category()
    two = discrete_category(["p", "q"])
    x = DiagramInCat(base, {"*": one}, {"id_*": identity_functor(one)})
    y = DiagramInCat(base, {"*": two}, {"id_*": identity_functor(two)})
    assert find_diagram_isomorphism(x, y) is None


def test_find_diagram_isomorphism_backtracks_over_fiber_isos():
    # over the walking arrow, X acts on {p, q} by the swap and Y by the
    # identity; taking the first isomorphism of every fiber is not natural,
    # so the search must move on to rho_y = swap
    base = walking_arrow()
    two = discrete_category(["p", "q"])
    swap = Functor(two, two, {"p": "q", "q": "p"},
                   {"id_p": "id_q", "id_q": "id_p"})
    ident = identity_functor(two)
    x = DiagramInCat(base, {"x": two, "y": two},
                     {"id_x": ident, "id_y": ident, "a": swap})
    y = DiagramInCat(base, {"x": two, "y": two},
                     {"id_x": ident, "id_y": ident, "a": ident})
    assert validate_diagram(x) == [] and validate_diagram(y) == []
    iso = find_diagram_isomorphism(x, y)
    assert iso is not None
    assert validate_diagram_morphism(iso) == []
    assert functor_equal(iso.base_functor, identity_functor(base))
    assert functor_equal(iso.rho["x"], ident)
    assert functor_equal(iso.rho["y"], swap)
