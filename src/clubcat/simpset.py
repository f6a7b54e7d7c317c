"""Truncated simplicial sets in Eilenberg-Zilber normal form.

A simplicial set stores only its non-degenerate simplices (per dimension, up
to the truncation level) together with the normal form of every face.  A
k-simplex in general is a pair (eta, base): a surjective monotone map applied
to a non-degenerate simplex.  Operators act by normal-form arithmetic: factor
the composed monotone map into surjection-after-injection, evaluate the
injective part on stored faces, keep the surjective part symbolic.

Monotone maps are interned, one instance per value list, and validated once.
Composition and Eilenberg-Zilber factorization of maps are memoized on the
interned maps, and so are the identity, face and degeneracy maps by their
indices, and the tuple of all monotone maps [m] -> [n] by (m, n).
Normal forms are interned too, one instance per operator part and base,
and keep their canonical id in a slot.  They define no ``__eq__`` or
``__hash__``, so equality is identity and hashing runs in C.  A set of
normal forms is therefore read for membership only, never iterated: its
order follows object addresses.  The hot memos key on the interned form and
the operator's interning index, not on tuples whose hash calls Python:
``apply_operator`` on (x, theta._index), and in ``sset_club`` the transports
on (x, theta._index) and the law walks on (x.base, index of x.eta∘theta).
Each simplicial set memoizes the action of operators on its simplices, its
simplices and generators per dimension, its identity map and its category
of simplices, and lists once, as tuples, the three orders every law walk
visits: its non-degenerate simplices (``listing``), their face slots
(``face_slots``) and the operators into each dimension (``operators_into``).
The category of simplices keeps, beside its morphism list, a table of
operators per object, ``mor_of[oid]`` (operator -> morphism id), so a
composite is one lookup and composing builds no id per pair.
Simplicial maps are interned per source set, one instance per target, name
and image table, and their composition is memoized on the interned maps.
All of these are pure, so the memos never change a result.  The module-level
tables are keyed by value: the maps by their value lists, which are bounded
by the largest dimension in use, and the normal forms by (operator index,
base id), which are bounded by the distinct simplices ever built.  A request
repeated in one process adds no entry.  The per-set memos live as long as
their set.

Operator orientation: a monotone map theta: [m] -> [n] acts on n-simplices
and yields m-simplices; in the category of simplices it is a morphism from x
to theta*x.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType

from .errors import InputError
from .fincat import FinCategory, LazyComposites


# ---------------------------------------------------------------------------
# monotone maps in the simplex category

# (n, values) -> the canonical map.  Filled lazily and bounded by the maps
# that exist up to the largest dimension in use; the memos of compose_maps
# and ez_factor live on these maps, so they are bounded too.
_INTERNED = {}


class MonotoneMap:
    """A weakly increasing map [m] -> [n], stored as its value tuple.

    Maps are interned: ``MonotoneMap(n, values)`` returns the one instance
    with that codomain and those values, validated once when it is first
    built.  Equal maps are therefore the same object, so equality is
    identity; the hash stays value-based, so hash order does not depend on
    object addresses.  ``label`` is the value list joined by dots, as it
    appears in simplex and operator ids.  ``_index`` numbers the maps in
    interning order; ``_composed`` (index of f -> self∘f) and ``_factors``
    memoize ``compose_maps`` and ``ez_factor``.
    """

    __slots__ = ("m", "n", "values", "label", "_surjective", "_identity",
                 "_hash", "_index", "_composed", "_factors")

    def __new__(cls, n, values):
        try:
            values = tuple(values)
        except TypeError:
            raise InputError(f"monotone map values {values!r} are not a list") from None
        # checked before the lookup: a list value is unhashable, and a bool
        # or an integral float compares equal to an interned int
        for v in values:
            if type(v) is not int:
                raise InputError(f"value {v!r} is not an integer")
        key = (n, values)
        self = _INTERNED.get(key)
        if self is None:
            if not values:
                raise InputError("monotone maps need a nonempty domain")
            for i, v in enumerate(values):
                if not 0 <= v <= n:
                    raise InputError(f"value {v} out of range [0..{n}]")
                if i and values[i - 1] > v:
                    raise InputError(f"values {values} are not monotone")
            self = object.__new__(cls)
            self.values = values
            self.m = len(values) - 1
            self.n = n
            self.label = ".".join(map(str, values))
            self._surjective = set(values) == set(range(n + 1))
            self._identity = values == tuple(range(n + 1))
            self._hash = hash(key)
            self._index = len(_INTERNED)
            self._composed = {}
            self._factors = None
            _INTERNED[key] = self
        return self

    # Interning lives in __new__.  __init__ is kept, with this signature,
    # because construction counters wrap MonotoneMap.__init__: without it
    # they would wrap object.__init__, which rejects the arguments.
    def __init__(self, n, values):
        pass

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"MonotoneMap({self.n}, {list(self.values)})"

    def is_identity(self):
        return self._identity

    def is_surjective(self):
        return self._surjective

    def peel_face(self):
        """(i, rest) with self = face_map(n, i) ∘ rest, for an injective map
        that is not the identity; i is the largest vertex it skips."""
        image = set(self.values)
        i = max(v for v in range(self.n + 1) if v not in image)
        return i, MonotoneMap(self.n - 1, [v if v < i else v - 1 for v in self.values])


# n or (n, i) -> the identity, face and degeneracy maps: a memo of interned
# maps, so each lookup skips building the value list.  Only valid arguments
# are stored, so a bad index raises on every call.
_IDENTITIES = {}
_FACES = {}
_DEGENERACIES = {}


def identity_map(n):
    f = _IDENTITIES.get(n)
    if f is None:
        f = _IDENTITIES[n] = MonotoneMap(n, range(n + 1))
    return f


def face_map(n, i):
    """The injection [n-1] -> [n] skipping i."""
    f = _FACES.get((n, i))
    if f is None:
        if not 0 <= i <= n or n < 1:
            raise InputError(f"no face index {i} in dimension {n}")
        f = _FACES[(n, i)] = MonotoneMap(n, [v for v in range(n + 1) if v != i])
    return f


def degeneracy_map(n, i):
    """The surjection [n+1] -> [n] repeating i."""
    f = _DEGENERACIES.get((n, i))
    if f is None:
        if not 0 <= i <= n:
            raise InputError(f"no degeneracy index {i} in dimension {n}")
        f = _DEGENERACIES[(n, i)] = MonotoneMap(n, sorted(list(range(n + 1)) + [i]))
    return f


def compose_maps(g: MonotoneMap, f: MonotoneMap):
    """g∘f for f: [k] -> [m], g: [m] -> [n]."""
    gf = g._composed.get(f._index)
    if gf is None:
        if f.n != g.m:
            raise InputError("monotone maps not composable")
        gf = g._composed[f._index] = MonotoneMap(
            g.n, [g.values[v] for v in f.values])
    return gf


def ez_factor(theta: MonotoneMap):
    """Unique factorization theta = delta ∘ sigma with delta injective, sigma surjective."""
    if theta._factors is None:
        image = sorted(set(theta.values))
        delta = MonotoneMap(theta.n, image)
        pos = {v: i for i, v in enumerate(image)}
        sigma = MonotoneMap(len(image) - 1, [pos[v] for v in theta.values])
        theta._factors = (delta, sigma)
    return theta._factors


# (m, n) -> every monotone [m] -> [n]: a memo of tuples of interned maps,
# bounded like _FACES by the dimensions in use.
_ALL_MAPS = {}


def all_monotone_maps(m, n):
    """All monotone [m] -> [n] in lexicographic order of value tuples, as
    one tuple per (m, n), built once."""
    maps = _ALL_MAPS.get((m, n))
    if maps is None:
        maps = _ALL_MAPS[(m, n)] = tuple(
            MonotoneMap(n, c)
            for c in itertools.combinations_with_replacement(range(n + 1), m + 1))
    return maps


def surjections(m, j):
    """All surjective monotone [m] ->> [j], lexicographic."""
    if j > m:
        return []
    return [t for t in all_monotone_maps(m, j) if t.is_surjective()]


# ---------------------------------------------------------------------------
# normal forms and simplicial sets

# (eta._index, base) -> the canonical normal form.  Filled lazily and bounded
# by the distinct simplices of the sets in use, not by the requests that
# build them: the same simplex always gets the same entry.
_NORMAL_FORMS = {}


class NormalForm:
    """A simplex written as a surjective operator applied to a non-degenerate one.

    Normal forms are interned: ``NormalForm(eta, base)`` returns the one
    instance with that operator part and base, checked once when it is first
    built.  Equal forms are therefore the same object, and the class defines
    no ``__eq__`` or ``__hash__``: equality is identity and hashing runs in
    C.  Hash order follows object addresses, so a set of normal forms is
    only ever read for membership, never iterated.  ``_id`` is the canonical
    id that ``nf_id`` returns.
    """

    __slots__ = ("eta", "base", "_id")

    def __new__(cls, eta: MonotoneMap, base: str):
        key = (eta._index, base)
        self = _NORMAL_FORMS.get(key)
        if self is None:
            if not eta.is_surjective():
                raise InputError("normal forms need a surjective operator part")
            self = object.__new__(cls)
            self.eta = eta
            self.base = base
            self._id = base if eta.is_identity() else base + "@" + eta.label
            _NORMAL_FORMS[key] = self
        return self

    @property
    def dim(self):
        return self.eta.m

    def is_nondegenerate(self):
        return self.eta.is_identity()

    def __repr__(self):
        return f"NormalForm({self.eta!r}, {self.base!r})"


def nf_id(nf: NormalForm):
    """Readable canonical id: the base for non-degenerate simplices, tagged otherwise."""
    return nf._id


def nondeg(base, k):
    return NormalForm(identity_map(k), base)


class SimplicialSet:
    """An N-truncated simplicial set: non-degenerate simplices plus face tables."""

    def __init__(self, trunc, nondeg_by_dim, faces, name=""):
        self.trunc = trunc
        self.nondeg = {k: list(nondeg_by_dim.get(k, [])) for k in range(trunc + 1)}
        self.faces = {s: list(fs) for s, fs in faces.items()}
        self.name = name
        self.dim_of = {x: k for k, xs in self.nondeg.items() for x in xs}
        # per-set memos: (x, theta._index) -> theta*(x) for
        # apply_operator; k -> the k-simplices, m -> the generators out of
        # dimension m, the listings of simplices and face slots, k -> the
        # operators into dimension k, the identity map, the canonical id ->
        # simplex lookup and the category of simplices, all built on first
        # use; and the interned simplicial maps out of this set (see
        # SimplicialMap)
        self._op_memo = {}
        self._smaps = {}
        self._simplices = {}
        self._generators = {}
        self._listing = None
        self._face_slots = None
        self._operators = {}
        self._identity = None
        self._nf_cache = None
        self._simplex_cat = None

    def normal_forms(self):
        """Canonical id -> normal form, for every simplex up to the truncation."""
        if self._nf_cache is None:
            self._nf_cache = {nf_id(nf): nf for k in range(self.trunc + 1)
                              for nf in self.all_simplices(k)}
        return self._nf_cache

    def category(self):
        """The category of simplices, built once."""
        if self._simplex_cat is None:
            self._simplex_cat = simplex_category(self)
        return self._simplex_cat

    def generators(self, m):
        """The face and degeneracy operators out of dimension m, in order,
        that stay within the truncation."""
        gens = self._generators.get(m)
        if gens is None:
            faces = [face_map(m, i) for i in range(m + 1)] if m >= 1 else []
            degens = ([degeneracy_map(m, i) for i in range(m + 1)]
                      if m < self.trunc else [])
            gens = self._generators[m] = tuple(faces + degens)
        return gens

    def listing(self):
        """The (id, k) of every non-degenerate simplex, by dimension k and
        then in listing order.  Read from the ``nondeg`` lists, so an id
        listed twice is visited twice.  A tuple, built once per set."""
        if self._listing is None:
            self._listing = tuple((x, k) for k in range(self.trunc + 1)
                                  for x in self.nondeg[k])
        return self._listing

    def face_slots(self):
        """The (id, i) of every face i of every non-degenerate simplex of
        dimension k >= 1, in listing order and then by i.  A tuple, built
        once per set."""
        if self._face_slots is None:
            self._face_slots = tuple((x, i) for x, k in self.listing() if k
                                     for i in range(k + 1))
        return self._face_slots

    def operators_into(self, k):
        """Every monotone [m] -> [k] with m <= trunc, by m and then
        lexicographically.  A tuple, built once per k."""
        ops = self._operators.get(k)
        if ops is None:
            ops = self._operators[k] = tuple(
                theta for m in range(self.trunc + 1)
                for theta in all_monotone_maps(m, k))
        return ops

    def all_simplices(self, k):
        """Every k-simplex (normal forms), canonical order: by base dim, base,
        eta.  A tuple, built once per set."""
        if k > self.trunc:
            raise InputError(f"dimension {k} above truncation {self.trunc}")
        out = self._simplices.get(k)
        if out is None:
            out = []
            for j in range(k, -1, -1):
                if not self.nondeg[j]:
                    continue
                for eta in surjections(k, j):
                    for base in self.nondeg[j]:
                        out.append(NormalForm(eta, base))
            # put nondegenerate ones (j == k, eta == id) first but keep a
            # total order:
            out.sort(key=lambda nf: (nf.eta.m - (len(set(nf.eta.values)) - 1),
                                     nf.base, nf.eta.values))
            out = self._simplices[k] = tuple(out)
        return out

    def __repr__(self):
        counts = [len(self.nondeg[k]) for k in range(self.trunc + 1)]
        return f"SimplicialSet({self.name!r}, trunc={self.trunc}, nondeg={counts})"


def apply_operator(s: SimplicialSet, x: NormalForm, theta: MonotoneMap):
    """The normal form of theta*(x) for theta: [m] -> [dim x]."""
    key = (x, theta._index)
    y = s._op_memo.get(key)
    if y is None:
        if theta.n != x.dim:
            raise InputError(f"operator {theta!r} does not act on dimension {x.dim}")
        if theta.m > s.trunc:
            raise InputError(f"dimension {theta.m} above truncation {s.trunc}")
        kappa = compose_maps(x.eta, theta)
        delta, sigma = ez_factor(kappa)
        z = _apply_injective(s, x.base, delta)
        y = s._op_memo[key] = NormalForm(compose_maps(z.eta, sigma), z.base)
    return y


def _apply_injective(s: SimplicialSet, base: str, delta: MonotoneMap):
    if delta.m == delta.n:
        return nondeg(base, delta.n)
    i, rest = delta.peel_face()
    return apply_operator(s, s.faces[base][i], rest)


def validate_sset(s: SimplicialSet):
    """Face-table well-formedness, simplicial identities, honesty of the skeleton."""
    report = []
    seen = set()
    for x, _ in s.listing():
        if x in seen:
            report.append(f"duplicate simplex id {x!r}")
        seen.add(x)
    for x, k in s.listing():
        fs = s.faces.get(x)
        if k == 0:
            if fs not in (None, []):
                report.append(f"vertex {x!r} has faces listed")
            continue
        if fs is None or len(fs) != k + 1:
            report.append(f"simplex {x!r} needs {k + 1} faces")
            continue
        for i, nf in enumerate(fs):
            if nf.base not in s.dim_of:
                report.append(f"face {i} of {x!r} references unknown {nf.base!r}")
            elif nf.dim != k - 1:
                report.append(f"face {i} of {x!r} has dimension {nf.dim}")
            elif s.dim_of[nf.base] != nf.eta.n:
                report.append(f"face {i} of {x!r} has inconsistent normal form")
    if report:
        return report
    # d_i d_j = d_(j-1) d_i for i < j, from dimension 2 on
    for x, k in s.listing():
        for j in range(k + 1 if k >= 2 else 0):
            for i in range(j):
                left = apply_operator(s, s.faces[x][j], face_map(k - 1, i))
                right = apply_operator(s, s.faces[x][i], face_map(k - 1, j - 1))
                if left != right:
                    report.append(f"simplicial identity d{i} d{j} fails at {x!r}")
    # declared non-degenerate simplices must not be secretly degenerate
    for x, k in s.listing():
        xf = nondeg(x, k)
        for i in range(k):
            op = compose_maps(face_map(k, i), degeneracy_map(k - 1, i))
            if apply_operator(s, xf, op) == xf:
                report.append(f"simplex {x!r} is degenerate (splits at {i})")
                break
    return report


# ---------------------------------------------------------------------------
# standard complexes

def _subset_id(vertices):
    return "".join(str(v) for v in vertices)


def _simplex_complex(trunc, subsets, name):
    """Complex whose non-degenerate simplices are vertex subsets (faces by deletion)."""
    nondeg_by_dim = {k: [] for k in range(trunc + 1)}
    faces = {}
    for vs in subsets:
        k = len(vs) - 1
        if k > trunc:
            continue
        sid = _subset_id(vs)
        nondeg_by_dim[k].append(sid)
        if k > 0:
            faces[sid] = [nondeg(_subset_id(vs[:i] + vs[i + 1:]), k - 1)
                          for i in range(k + 1)]
    return SimplicialSet(trunc, nondeg_by_dim, faces, name=name)


def standard_simplex(n, trunc):
    """Delta[n], truncated: non-degenerate k-simplices are (k+1)-subsets of [0..n]."""
    subsets = []
    for size in range(1, n + 2):
        subsets.extend(itertools.combinations(range(n + 1), size))
    return _simplex_complex(trunc, [list(c) for c in subsets], name=f"D{n}")


def one_point(trunc):
    return SimplicialSet(trunc, {0: ["pt"]}, {}, name="pt")


def boundary(n, trunc):
    """The boundary of Delta[n]: every proper nonempty vertex subset."""
    subsets = []
    for size in range(1, n + 1):
        subsets.extend(itertools.combinations(range(n + 1), size))
    return _simplex_complex(trunc, [list(c) for c in subsets], name=f"bdD{n}")


def horn(n, k, trunc):
    """The horn missing the k-th face: drop the top cell and the face opposite k."""
    if not 0 <= k <= n:
        raise InputError(f"no horn index {k} in dimension {n}")
    banned = tuple(v for v in range(n + 1) if v != k)
    subsets = []
    for size in range(1, n + 1):
        for c in itertools.combinations(range(n + 1), size):
            if c != banned:
                subsets.append(list(c))
    return _simplex_complex(trunc, subsets, name=f"L{n};{k}")


def disjoint_union(s: SimplicialSet, t: SimplicialSet):
    if s.trunc != t.trunc:
        raise InputError("disjoint union needs equal truncation levels")

    def tag(prefix, nf):
        return NormalForm(nf.eta, prefix + nf.base)

    nondeg_by_dim = {k: [f"0:{x}" for x in s.nondeg[k]] + [f"1:{x}" for x in t.nondeg[k]]
                     for k in range(s.trunc + 1)}
    faces = {}
    for prefix, part in (("0:", s), ("1:", t)):
        for x, fs in part.faces.items():
            faces[prefix + x] = [tag(prefix, nf) for nf in fs]
    return SimplicialSet(s.trunc, nondeg_by_dim, faces,
                         name=f"({s.name}+{t.name})")


# ---------------------------------------------------------------------------
# products via joint normalization

def joint_factor(eta1: MonotoneMap, eta2: MonotoneMap):
    """Split a pair of surjections through their common degeneracy.

    Returns (sigma, eta1', eta2') with eta_i = eta_i' ∘ sigma and sigma the
    largest common surjective right factor; (eta1', eta2') share no repeat.
    Index i is kept when it is 0 or when eta1 or eta2 changes value at i.
    """
    v1, v2 = eta1.values, eta2.values
    keep, sigma_vals = [], []
    for i in range(len(v1)):
        if not i or v1[i] != v1[i - 1] or v2[i] != v2[i - 1]:
            keep.append(i)
        sigma_vals.append(len(keep) - 1)
    if len(keep) == len(v1):
        return identity_map(eta1.m), eta1, eta2
    return (MonotoneMap(len(keep) - 1, sigma_vals),
            MonotoneMap(eta1.n, [v1[i] for i in keep]),
            MonotoneMap(eta2.n, [v2[i] for i in keep]))


def _pair_id(x: NormalForm, y: NormalForm):
    return f"({nf_id(x)}*{nf_id(y)})"


def product(s: SimplicialSet, t: SimplicialSet):
    """Dimensionwise product, re-expressed in normal form via joint factorization."""
    if s.trunc != t.trunc:
        raise InputError("product needs equal truncation levels")
    trunc = s.trunc
    nondeg_by_dim = {k: [] for k in range(trunc + 1)}
    faces = {}

    def normalize_pair(x: NormalForm, y: NormalForm):
        sigma, e1, e2 = joint_factor(x.eta, y.eta)
        return sigma, NormalForm(e1, x.base), NormalForm(e2, y.base)

    for k in range(trunc + 1):
        for x in s.all_simplices(k):
            for y in t.all_simplices(k):
                sigma, x0, y0 = normalize_pair(x, y)
                if not sigma.is_identity():
                    continue
                pid = _pair_id(x, y)
                nondeg_by_dim[k].append(pid)
                if k > 0:
                    fs = []
                    for i in range(k + 1):
                        d = face_map(k, i)
                        fx = apply_operator(s, x, d)
                        fy = apply_operator(t, y, d)
                        fsigma, fx0, fy0 = normalize_pair(fx, fy)
                        fs.append(NormalForm(fsigma, _pair_id(fx0, fy0)))
                    faces[pid] = fs
    return SimplicialSet(trunc, nondeg_by_dim, faces,
                         name=f"({s.name}x{t.name})")


# ---------------------------------------------------------------------------
# simplicial maps

class SimplicialMap:
    """Images of non-degenerate simplices; extended to all simplices by normal forms.

    Maps are interned: ``SimplicialMap(src, tgt, images, name)`` returns the
    one instance with that target set (by identity), name and image table
    (its items in order), kept in the source set's ``_smaps``, so it lives as
    long as the source set.  Every holder shares the instance, so ``images``
    is a read-only mapping.
    ``_composed`` (f -> self∘f) memoizes ``compose_smaps``.
    """

    def __new__(cls, src: SimplicialSet, tgt: SimplicialSet, images, name=""):
        images = dict(images)   # nondeg id -> NormalForm in tgt
        key = (tgt, name, tuple(images.items()))
        self = src._smaps.get(key)
        if self is None:
            self = src._smaps[key] = object.__new__(cls)
            self.src = src
            self.tgt = tgt
            self.images = MappingProxyType(images)
            self.name = name
            self._composed = {}
        return self

    def apply(self, x: NormalForm):
        return apply_operator(self.tgt, self.images[x.base], x.eta)

    def __repr__(self):
        return f"SimplicialMap({self.name!r})"


def identity_smap(s: SimplicialSet):
    """The identity of s, built once per set."""
    if s._identity is None:
        s._identity = SimplicialMap(s, s, {x: nondeg(x, k) for x, k in s.listing()},
                                    name="id")
    return s._identity


def compose_smaps(g: SimplicialMap, f: SimplicialMap):
    gf = g._composed.get(f)
    if gf is None:
        gf = g._composed[f] = SimplicialMap(
            f.src, g.tgt, {x: g.apply(nf) for x, nf in f.images.items()})
    return gf


def smap_equal(f: SimplicialMap, g: SimplicialMap):
    return f is g or f.images == g.images


def validate_smap(f: SimplicialMap):
    report = []
    for x, k in f.src.listing():
        img = f.images.get(x)
        if img is None:
            report.append(f"image missing for {x!r}")
        elif img.dim != k:
            report.append(f"image of {x!r} has dimension {img.dim}, wanted {k}")
        elif img.base not in f.tgt.dim_of:
            report.append(f"image of {x!r} references unknown {img.base!r}")
    if report:
        return report
    for x, i in f.src.face_slots():
        via_src = f.apply(f.src.faces[x][i])
        via_tgt = apply_operator(f.tgt, f.images[x], face_map(f.src.dim_of[x], i))
        if via_src != via_tgt:
            report.append(f"face d{i} not preserved at {x!r}")
    return report


def is_injective(f: SimplicialMap):
    """Levelwise injectivity, decided on the skeleton.

    Equivalent to: injective on non-degenerate simplices in every dimension
    and non-degenerate simplices keep non-degenerate images.
    """
    for k in range(f.src.trunc + 1):
        seen = set()
        for x in f.src.nondeg[k]:
            img = f.images[x]
            if not img.is_nondegenerate():
                return False
            if img in seen:
                return False
            seen.add(img)
    return True


def _smap_search(a: SimplicialSet, b: SimplicialSet, candidates, distinct):
    """Image tables of the simplicial maps a -> b, in backtracking order.

    The non-degenerate simplices of a are placed dimension by dimension; a
    k-simplex tries the list ``candidates(k)`` in order, keeping those whose
    faces are the images of its own faces and, when ``distinct``, that are
    not yet an image.  Each table is yielded live: copy it to keep it.
    """
    order = a.listing()
    images = {}
    used = set()

    def backtrack(i):
        if i == len(order):
            yield images
            return
        x, k = order[i]
        wanted = ([apply_operator(b, images[nf.base], nf.eta) for nf in a.faces[x]]
                  if k else [])
        for cand in candidates(k):
            if distinct and cand in used:
                continue
            if any(apply_operator(b, cand, face_map(k, j)) != w
                   for j, w in enumerate(wanted)):
                continue
            images[x] = cand
            used.add(cand)
            yield from backtrack(i + 1)
            used.discard(cand)
            del images[x]

    return backtrack(0)


def iso_sset(s: SimplicialSet, t: SimplicialSet):
    """First isomorphism s -> t (bijective on non-degenerate simplices), or None."""
    if s.trunc != t.trunc:
        return None
    for k in range(s.trunc + 1):
        if len(s.nondeg[k]) != len(t.nondeg[k]):
            return None
    candidates = [[nondeg(y, k) for y in t.nondeg[k]] for k in range(t.trunc + 1)]
    images = next(_smap_search(s, t, lambda k: candidates[k], distinct=True), None)
    if images is None:
        return None
    return SimplicialMap(s, t, dict(images), name="iso")


# ---------------------------------------------------------------------------
# the category of simplices

class SimplexCategory(FinCategory):
    """A category of simplices that knows the simplex each object names
    (``simplex_of``), the operator each morphism applies (``operator_of``)
    and, per object, the morphism out of it for each operator
    (``mor_of[oid][theta]``)."""

    def __init__(self, objects, morphisms, identities, comp, simplex_of,
                 operator_of, mor_of, name=""):
        super().__init__(objects, morphisms, identities, comp, name=name)
        self.simplex_of = simplex_of
        self.operator_of = operator_of
        self.mor_of = mor_of

    @staticmethod
    def mor_id(src_id, theta):
        """The id of the operator theta as a morphism out of the object src_id."""
        return src_id + "!" + theta.label


def simplex_category(s: SimplicialSet):
    """Objects: all simplices up to the truncation; morphisms: operators.

    Hom(x, y) is the set of monotone maps theta with theta*(x) = y; the
    operator theta: [m] -> [n] is a morphism from the n-simplex x to the
    m-simplex theta*(x).  Composition is composition of monotone maps in the
    opposite order of application: a composite is looked up in the operator
    table of the source object, so no id is built per pair.  Target ids are
    looked up by normal form, so none is built per morphism either.
    """
    simplex_of = s.normal_forms()
    id_of = {nf: oid for oid, nf in simplex_of.items()}
    morphisms = []
    identities = {}
    operator_of = {}
    mor_of = {}
    for oid, x in simplex_of.items():
        row = mor_of[oid] = {}
        for theta in s.operators_into(x.dim):
            mid = SimplexCategory.mor_id(oid, theta)
            morphisms.append((mid, oid, id_of[apply_operator(s, x, theta)]))
            operator_of[mid] = theta
            row[theta] = mid
            if theta.is_identity():
                identities[oid] = mid

    def composite(g, f):
        return mor_of[cat.src[f]][compose_maps(operator_of[f], operator_of[g])]

    cat = SimplexCategory(simplex_of, morphisms, identities,
                          LazyComposites(morphisms, composite), simplex_of,
                          operator_of, mor_of, name=f"S({s.name})")
    return cat


# ---------------------------------------------------------------------------
# Kan fibration checking

def is_kan_fibration(f: SimplicialMap, max_dim):
    """Brute-force horn lifting up to the given dimension.

    For every n <= max_dim, every horn index k and every horn map u into the
    source, in the order of the map search, the n-simplices of the target
    whose faces are the images of u's faces must all be images of fillers
    of u.  Returns (True, None) or (False, witness) with the first failing
    square (u, w) in canonical order.
    """
    if max_dim > f.src.trunc - 1:
        raise InputError("horn checking needs max_dim <= trunc - 1")
    src, tgt = f.src, f.tgt
    for n in range(1, max_dim + 1):
        for k in range(n + 1):
            h = horn(n, k, src.trunc)
            horn_face_ids = [_subset_id([v for v in range(n + 1) if v != i])
                             for i in range(n + 1)]
            for u in _smap_search(h, src, src.all_simplices, distinct=False):
                # faces of the sought lift forced by u (all i except k)
                forced = {i: u[horn_face_ids[i]] for i in range(n + 1) if i != k}
                fu = {i: f.apply(forced[i]) for i in forced}
                lifted = {f.apply(z) for z in src.all_simplices(n)
                          if all(apply_operator(src, z, face_map(n, i)) == forced[i]
                                 for i in forced)}
                for w in tgt.all_simplices(n):
                    if w in lifted or any(
                            apply_operator(tgt, w, face_map(n, i)) != fu[i]
                            for i in fu):
                        continue
                    witness = {
                        "horn": (n, k),
                        "horn_map": {x: nf_id(v) for x, v in sorted(u.items())},
                        "simplex_image": nf_id(w),
                    }
                    return False, witness
    return True, None
