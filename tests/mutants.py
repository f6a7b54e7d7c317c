"""Values with one entry changed, built through their constructors.

A built value is frozen, so a negative control that wants a family, a
two-level family or an operad with one entry changed builds a new one from
the original's tables with that entry replaced.  Every derived table (a
two-level family's psi, the transport caches) is then built from the new
tables.
"""

from clubcat.operads import NsOperad, SymOperad


def with_face_map(fam, key, m):
    """The family fam with its face map at key replaced by m."""
    return type(fam)(fam.base, fam.values, {**fam.face_maps, key: m}, name=fam.name)


def with_component(tlf, key, t, m):
    """The two-level family tlf with the component at t of its face map at
    key replaced by m."""
    step = tlf.face_maps[key]
    return with_face_map(tlf, key, step._replace(phi={**step.phi, t: m}))


def with_gamma(op, key, result):
    """The operad op with its composition at key sent to result."""
    gamma = {**op.gamma, key: result}
    if isinstance(op, SymOperad):
        return SymOperad(op.cap, op.levels, op.unit, gamma, op.actions, name=op.name)
    return NsOperad(op.cap, op.levels, op.unit, gamma, name=op.name)
