"""JSON formats for categories, diagrams, simplicial data, operads and clubs.

Every file carries a schema version; the parser rejects unknown versions and
infers the kind from the key layout (an explicit "kind" field wins).  Ids may
not contain "@", which tags degenerate simplices internally.
"""

from __future__ import annotations

import json

from .algebra import (AlgebraMorphism, AlgebraObject, FinSetDiagram,
                      constant_algebra_object)
from .config import SCHEMA_VERSION
from .diagram import (DiagramInCat, DiagramMorphism, unit_diagram,
                      validate_diagram)
from .errors import InputError, SchemaError
from .fincat import FinCategory, Functor, functor_key
from .operads import NsOperad, SymOperad
from .semidirect import ClubStructure, build_semidirect
from .simpset import (MonotoneMap, NormalForm, SimplicialMap, SimplicialSet,
                      nf_id, validate_sset)
from .sset_club import SimplexFamily


def _check_id(value, what):
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{what} must be a nonempty string, got {value!r}")
    return value


def _need_dict(value, what):
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be a JSON object, got {value!r}")
    return value


def _need_list(value, what):
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a JSON list, got {value!r}")
    return value


def _need(data, key, what):
    if key not in _need_dict(data, what):
        raise SchemaError(f"missing key {key!r} in {what}")
    return data[key]


def _need_id_map(data, key, what):
    """The JSON object at ``key`` of ``data``, with every value an id."""
    raw = _need_dict(_need(data, key, what), f"{what} {key}")
    return {x: _check_id(v, f"{what} {key} value") for x, v in raw.items()}


def _need_id_tuple(value, what):
    return tuple(_check_id(v, what) for v in _need_list(value, what))


def _need_graded(value, top, what, degree):
    """A JSON object keyed by degrees ``str(n)`` for 0 <= n <= top; any other
    key is refused, and the caller reads a missing one as empty."""
    raw = _need_dict(value, what)
    degrees = {str(n) for n in range(top + 1)}
    for key in raw:
        if key not in degrees:
            raise SchemaError(f"{what} key {key!r} is not {degree} in 0..{top}")
    return raw


def _need_cap(value, what):
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SchemaError(f"{what} cap must be a positive integer")
    return value


# ---------------------------------------------------------------------------
# categories and functors

def category_to_json(c: FinCategory):
    return {
        "objects": list(c.objects),
        "morphisms": [{"id": m, "src": s, "tgt": t} for (m, s, t) in c.morphisms],
        "identities": dict(c.identities),
        "comp": [[g, f, gf] for (g, f), gf in c.comp.items()],
    }


def category_from_json(data, what="category"):
    objects = [_check_id(o, f"{what} object")
               for o in _need_list(_need(data, "objects", what), f"{what} objects")]
    morphisms = []
    for entry in _need_list(_need(data, "morphisms", what), f"{what} morphisms"):
        morphisms.append(tuple(
            _check_id(_need(entry, key, what), f"{what} morphism {key}")
            for key in ("id", "src", "tgt")))
    identities = _need_id_map(data, "identities", what)
    comp = {}
    for entry in _need_list(_need(data, "comp", what), f"{what} comp"):
        if len(_need_list(entry, f"{what} comp entry")) != 3:
            raise SchemaError(f"{what} comp entries must be [g, f, gf] triples")
        g, f, gf = (_check_id(m, f"{what} comp entry") for m in entry)
        comp[(g, f)] = gf
    return FinCategory(objects, morphisms, identities, comp)


def functor_to_json(f: Functor):
    return {"omap": dict(f.omap), "mmap": dict(f.mmap)}


def functor_from_json(data, src, tgt, what="functor"):
    return Functor(src, tgt, _need_id_map(data, "omap", what),
                   _need_id_map(data, "mmap", what))


# ---------------------------------------------------------------------------
# diagrams and their morphisms

def diagram_to_json(x: DiagramInCat):
    return {
        "base": category_to_json(x.base),
        "fibers": {d: category_to_json(x.fiber_obj[d]) for d in x.base.objects},
        "fiber_maps": {m: functor_to_json(x.fiber_mor[m]) for m in x.base.mor_ids},
    }


def diagram_from_json(data, what="diagram"):
    base = category_from_json(_need(data, "base", what), f"{what} base")
    fibers_raw = _need_dict(_need(data, "fibers", what), f"{what} fibers")
    fibers = {}
    for d in base.objects:
        if d not in fibers_raw:
            raise SchemaError(f"{what} has no fiber for object {d!r}")
        fibers[d] = category_from_json(fibers_raw[d], f"{what} fiber {d!r}")
    maps_raw = _need_dict(_need(data, "fiber_maps", what), f"{what} fiber maps")
    fiber_mor = {}
    for m in base.mor_ids:
        if m not in maps_raw:
            raise SchemaError(f"{what} has no fiber map for morphism {m!r}")
        if base.src[m] not in fibers or base.tgt[m] not in fibers:
            raise SchemaError(f"{what} morphism {m!r} has an unlisted endpoint")
        fiber_mor[m] = functor_from_json(maps_raw[m], fibers[base.src[m]],
                                         fibers[base.tgt[m]], f"{what} map {m!r}")
    return DiagramInCat(base, fibers, fiber_mor)


# ---------------------------------------------------------------------------
# simplicial sets and maps

def normal_form_to_json(nf: NormalForm):
    return {"eta": list(nf.eta.values), "base": nf.base}


def normal_form_from_json(data, base_dim_of, what="normal form"):
    base = _check_id(_need(data, "base", what), f"{what} base")
    if base not in base_dim_of:
        raise SchemaError(f"{what} references unknown simplex {base!r}")
    eta = MonotoneMap(base_dim_of[base], _need(data, "eta", what))
    if not eta.is_surjective():
        raise SchemaError(f"{what} operator part is not surjective")
    return NormalForm(eta, base)


def sset_to_json(s: SimplicialSet):
    return {
        "trunc": s.trunc,
        "nondeg": {str(k): list(s.nondeg[k]) for k in range(s.trunc + 1)},
        "faces": {x: [normal_form_to_json(nf) for nf in fs]
                  for x, fs in s.faces.items()},
    }


def sset_from_json(data, what="simplicial set"):
    trunc = _need(data, "trunc", what)
    if not isinstance(trunc, int) or isinstance(trunc, bool) or trunc < 0:
        raise SchemaError(f"{what} truncation must be a nonnegative integer")
    raw = _need_graded(_need(data, "nondeg", what), trunc, f"{what} nondeg",
                       "a dimension")
    nondeg = {}
    dim_of = {}
    for k in range(trunc + 1):
        ids = _need_list(raw.get(str(k), []), f"{what} nondeg entry {k}")
        nondeg[k] = [_check_id(x, f"{what} simplex") for x in ids]
        for x in ids:
            dim_of[x] = k
    faces_raw = _need_dict(data.get("faces", {}), f"{what} faces")
    faces = {}
    for x, fs in faces_raw.items():
        if x not in dim_of:
            raise SchemaError(f"{what} lists faces for unknown simplex {x!r}")
        faces[x] = [normal_form_from_json(nf, dim_of, f"face of {x!r}")
                    for nf in _need_list(fs, f"{what} faces of {x!r}")]
    result = SimplicialSet(trunc, nondeg, faces)
    # canonical names of all simplices, degenerate ones included, must be
    # unambiguous: a stored id may otherwise collide with a degeneracy tag
    seen = {}
    for k in range(trunc + 1):
        for nf in result.all_simplices(k):
            name = nf_id(nf)
            if name in seen and seen[name] != nf:
                raise SchemaError(
                    f"{what} ids are ambiguous: {name!r} names two simplices")
            seen[name] = nf
    return result


def smap_images_to_json(f: SimplicialMap):
    return {x: normal_form_to_json(nf) for x, nf in f.images.items()}


def smap_images_from_json(data, src: SimplicialSet, tgt: SimplicialSet,
                          what="map"):
    images = {}
    for x, nf in _need_dict(data, f"{what} images").items():
        images[x] = normal_form_from_json(nf, tgt.dim_of, f"{what} image of {x!r}")
    return SimplicialMap(src, tgt, images)


def smap_to_json(f: SimplicialMap):
    return {"src": sset_to_json(f.src), "tgt": sset_to_json(f.tgt),
            "images": smap_images_to_json(f)}


def smap_from_json(data, what="map"):
    src = sset_from_json(_need(data, "src", what), f"{what} source")
    tgt = sset_from_json(_need(data, "tgt", what), f"{what} target")
    return smap_images_from_json(_need(data, "images", what), src, tgt, what)


# ---------------------------------------------------------------------------
# club objects over simplicial sets

def club_object_to_json(fam: SimplexFamily):
    out = {
        "base": sset_to_json(fam.base),
        "fibers": {y: sset_to_json(v) for y, v in fam.values.items()},
        "fiber_maps": {f"d{i}@{y}": smap_images_to_json(m)
                       for (y, i), m in fam.face_maps.items()},
    }
    return out


def _valid_sset_from_json(data, what):
    """``sset_from_json`` for a simplicial set the loader builds on: one
    that fails ``validate_sset`` is refused with ``SchemaError``."""
    s = sset_from_json(data, what)
    bad = validate_sset(s)
    if bad:
        raise SchemaError(f"{what} is not a valid simplicial set: {bad[0]}")
    return s


def club_object_from_json(data, what="club object"):
    base = _valid_sset_from_json(_need(data, "base", what), f"{what} base")
    fibers_raw = _need_dict(_need(data, "fibers", what), f"{what} fibers")
    values = {}
    for y, _ in base.listing():
        if y not in fibers_raw:
            raise SchemaError(f"{what} has no fiber for simplex {y!r}")
        values[y] = sset_from_json(fibers_raw[y], f"{what} fiber {y!r}")
    face_maps = {}
    maps_raw = _need_dict(_need(data, "fiber_maps", what), f"{what} fiber_maps")
    for key, images in maps_raw.items():
        op, _, simplex = key.partition("@")
        index = op[1:]
        if (not op.startswith("d") or not (index.isascii() and index.isdigit())
                or not simplex):
            raise SchemaError(f"{what} fiber map key {key!r} is not 'd<i>@<simplex>'")
        i = int(index)
        if simplex not in values:
            raise SchemaError(f"{what} fiber map for unknown simplex {simplex!r}")
        k = base.dim_of[simplex]
        if k == 0:
            raise SchemaError(f"{what} has a fiber map on the vertex {simplex!r}")
        if not 0 <= i <= k:
            raise SchemaError(f"{what} fiber map index {i} out of range at {simplex!r}")
        tgt = values[base.faces[simplex][i].base]
        face_maps[(simplex, i)] = smap_images_from_json(images, values[simplex],
                                                        tgt, f"{what} map {key!r}")
    return SimplexFamily(base, values, face_maps)


# ---------------------------------------------------------------------------
# operads

def operad_to_json(p: NsOperad):
    out = {
        "cap": p.cap,
        "levels": {str(n): list(p.levels[n]) for n in range(p.cap + 1)},
        "unit": p.unit,
        "gamma": [{"op": op, "args": list(args), "result": r}
                  for (op, args), r in sorted(p.gamma.items())],
    }
    if isinstance(p, SymOperad):
        out["actions"] = {
            str(n): [{"perm": list(perm), "src": e, "tgt": t}
                     for (perm, e), t in sorted(p.actions[n].items())]
            for n in range(p.cap + 1) if p.actions.get(n)
        }
    return out


def operad_from_json(data, what="operad"):
    cap = _need_cap(_need(data, "cap", what), what)
    raw = _need_graded(_need(data, "levels", what), cap, f"{what} levels",
                       "an arity")
    levels = {n: [_check_id(e, f"{what} element")
                  for e in _need_list(raw.get(str(n), []), f"{what} level {n}")]
              for n in range(cap + 1)}
    unit = _check_id(_need(data, "unit", what), f"{what} unit")
    gamma = {}
    for entry in _need_list(_need(data, "gamma", what), f"{what} gamma"):
        op = _check_id(_need(entry, "op", what), f"{what} gamma op")
        args = tuple(_check_id(a, f"{what} gamma argument")
                     for a in _need_list(_need(entry, "args", what),
                                         f"{what} gamma args"))
        gamma[(op, args)] = _check_id(_need(entry, "result", what),
                                      f"{what} gamma result")
    if "actions" in data and data["actions"]:
        actions = {}
        for n_str, entries in _need_graded(data["actions"], cap, f"{what} actions",
                                           "an arity").items():
            acts = {}
            for entry in _need_list(entries, f"{what} actions {n_str}"):
                perm = _need_list(_need(entry, "perm", what), f"{what} action perm")
                if any(not isinstance(v, int) or isinstance(v, bool) for v in perm):
                    raise SchemaError(f"{what} action perm must list integers, "
                                      f"got {perm!r}")
                src = _check_id(_need(entry, "src", what), f"{what} action source")
                acts[(tuple(perm), src)] = _check_id(_need(entry, "tgt", what),
                                                     f"{what} action target")
            actions[int(n_str)] = acts
        return SymOperad(cap, levels, unit, gamma, actions)
    return NsOperad(cap, levels, unit, gamma)


# ---------------------------------------------------------------------------
# clubs

def club_to_json(s):
    p = s.product
    domain = []
    for oid in p.diagram.base.objects:
        d, psi = p.obj_data[oid]
        okey, mkey = functor_key(psi)
        domain.append([d, list(okey), list(mkey)])
    return {
        "carrier": diagram_to_json(s.carrier),
        **({"cap": s.cap} if s.cap is not None else {}),
        "domain": domain,
        "mu": {
            "base_functor": functor_to_json(s.mu.base_functor),
            "rho": {oid: functor_to_json(s.mu.rho[oid])
                    for oid in p.diagram.base.objects},
        },
        "eta": {
            "base_functor": functor_to_json(s.eta.base_functor),
            "rho": {"*": functor_to_json(s.eta.rho["*"])},
        },
    }


def club_from_json(data, what="club"):
    carrier = diagram_from_json(_need(data, "carrier", what), f"{what} carrier")
    cap = _need_cap(data["cap"], what) if "cap" in data else None
    keep, domain = {}, []
    for entry in _need_list(_need(data, "domain", what), f"{what} domain"):
        if len(_need_list(entry, f"{what} domain entry")) != 3:
            raise SchemaError(f"{what} domain entries must be [d, omap, mmap]")
        d, okey, mkey = entry
        d = _check_id(d, f"{what} domain object")
        key = (_need_id_tuple(okey, f"{what} domain omap"),
               _need_id_tuple(mkey, f"{what} domain mmap"))
        keep.setdefault(d, set()).add(key)
        domain.append((d, key))
    # the product is built on the carrier, so it must be a diagram first
    bad = validate_diagram(carrier)
    if bad:
        raise SchemaError(f"{what} carrier is not a valid diagram: {bad[0]}")
    for d in carrier.base.objects:
        keep.setdefault(d, set())
    product = build_semidirect(carrier, carrier, keep=keep)
    # in file order, so that the message does not follow the hash seed
    for d, key in domain:
        if (d, key) not in product.obj_id:
            raise SchemaError(f"{what} domain entry {[d, *map(list, key)]} "
                              "names no object of the carrier's square")
    mu_raw = _need(data, "mu", what)
    mu_base = functor_from_json(_need(mu_raw, "base_functor", what),
                                product.diagram.base, carrier.base)
    rho_raw = _need_dict(_need(mu_raw, "rho", what), f"{what} mu rho")
    rho = {}
    for oid in product.diagram.base.objects:
        if oid not in rho_raw:
            raise SchemaError(f"{what} mu has no rho at {oid!r}")
        tgt_fiber = carrier.fiber_obj.get(mu_base.omap.get(oid))
        if tgt_fiber is None:
            raise SchemaError(f"{what} mu base map misses object {oid!r}")
        rho[oid] = functor_from_json(rho_raw[oid], tgt_fiber,
                                     product.fibers[oid].cat)
    mu = DiagramMorphism(product.diagram, carrier, mu_base, rho, name="mu")
    u = unit_diagram()
    eta_raw = _need(data, "eta", what)
    eta_base = functor_from_json(_need(eta_raw, "base_functor", what),
                                 u.base, carrier.base)
    e_obj = eta_base.omap.get("*")
    if e_obj not in carrier.fiber_obj:
        raise SchemaError(f"{what} eta does not pick a carrier object")
    eta_rho = {"*": functor_from_json(_need(_need(eta_raw, "rho", what), "*",
                                            f"{what} eta rho"),
                                      carrier.fiber_obj[e_obj],
                                      u.fiber_obj["*"])}
    eta = DiagramMorphism(u, carrier, eta_base, eta_rho, name="eta")
    return ClubStructure(product, mu, eta, cap=cap)


# ---------------------------------------------------------------------------
# algebra objects (set-valued diagrams over a shape)

def algebra_object_to_json(x):
    return {
        "shape": sset_to_json(x.shape),
        "values": {o: list(v) for o, v in x.diagram.values.items()},
        "maps": {m: dict(f) for m, f in x.diagram.maps.items()},
    }


def algebra_object_from_json(data, what="algebra object"):
    shape = _valid_sset_from_json(_need(data, "shape", what), f"{what} shape")
    if "constant" in data:
        return constant_algebra_object(
            shape, _need_id_tuple(data["constant"], f"{what} constant element"))
    values_raw = _need_dict(_need(data, "values", what), f"{what} values")
    values = {o: _need_id_tuple(v, f"{what} element at {o!r}")
              for o, v in values_raw.items()}
    maps_raw = _need_dict(_need(data, "maps", what), f"{what} maps")
    maps = {m: _need_id_map(maps_raw, m, f"{what} map") for m in maps_raw}
    return AlgebraObject(shape, FinSetDiagram(shape.category(), values, maps))


def algebra_morphism_to_json(m):
    return {
        "src": algebra_object_to_json(m.src),
        "tgt": algebra_object_to_json(m.tgt),
        "shape_map": smap_images_to_json(m.f),
        "components": {o: dict(f) for o, f in m.phi.items()},
    }


def algebra_morphism_from_json(data, what="algebra morphism"):
    src = algebra_object_from_json(_need(data, "src", what), f"{what} source")
    tgt = algebra_object_from_json(_need(data, "tgt", what), f"{what} target")
    f = smap_images_from_json(_need(data, "shape_map", what), src.shape,
                              tgt.shape, f"{what} shape map")
    comps = _need_dict(_need(data, "components", what), f"{what} components")
    phi = {o: _need_id_map(comps, o, f"{what} component") for o in comps}
    return AlgebraMorphism(src, tgt, f, phi)


# ---------------------------------------------------------------------------
# envelopes

_KIND_KEYS = [
    ("club", {"carrier", "mu", "eta"}),
    ("algebra-morphism", {"shape_map", "components"}),
    ("algebra-object", {"shape"}),
    ("map", {"images", "src", "tgt"}),
    ("sset", {"trunc", "nondeg"}),
    ("operad", {"cap", "levels"}),
    ("category", {"objects", "morphisms"}),
]

# kind -> (parser, serializer)
_FORMATS = {
    "category": (category_from_json, category_to_json),
    "diagram": (diagram_from_json, diagram_to_json),
    "sset": (sset_from_json, sset_to_json),
    "map": (smap_from_json, smap_to_json),
    "club-object": (club_object_from_json, club_object_to_json),
    "operad": (operad_from_json, operad_to_json),
    "club": (club_from_json, club_to_json),
    "algebra-object": (algebra_object_from_json, algebra_object_to_json),
    "algebra-morphism": (algebra_morphism_from_json, algebra_morphism_to_json),
}


def infer_kind(data):
    if "kind" in data:
        kind = _check_id(data["kind"], "kind")
        if kind not in _FORMATS:
            raise SchemaError(f"unknown kind {kind!r}")
        return kind
    keys = set(data)
    # diagrams in categories and families over simplicial sets share their
    # key layout; the shape of the base tells them apart
    if {"base", "fibers"} <= keys and isinstance(data["base"], dict):
        if "trunc" in data["base"]:
            return "club-object"
        if "objects" in data["base"]:
            return "diagram"
    for kind, markers in _KIND_KEYS:
        if markers <= keys:
            return kind
    raise SchemaError(f"cannot infer the kind from keys {sorted(keys)!r}")


def parse_payload(data):
    """Parse a dict into (kind, value); schema errors carry locations."""
    if not isinstance(data, dict):
        raise SchemaError("top level must be an object")
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema {schema!r}; expected {SCHEMA_VERSION!r}")
    kind = infer_kind(data)
    parse, _ = _FORMATS[kind]
    return kind, parse(data)


def parse_file(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        raise SchemaError(f"{path} is not UTF-8 JSON") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None
    return parse_payload(data)


def to_json_string(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def serialize(kind, value):
    _, dump = _FORMATS[kind]
    return {"schema": SCHEMA_VERSION, "kind": kind, **dump(value)}


def write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def write_file(path, kind, value):
    write_text(path, to_json_string(serialize(kind, value)))
