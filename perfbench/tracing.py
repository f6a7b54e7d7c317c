"""Spans and counters around the public functions of every clubcat layer.

``install`` wraps each public function of the layer modules and rebinds every
reference to it in the ``clubcat`` modules, including the copies that
``from .x import f`` made in the importing modules.  Nothing under ``src/``
changes.  Spans stay in memory in the traced process; ``Recorder.dump`` writes
them out once, at the end of the request.

``self_times`` and ``summarize`` turn the spans back into per-function and
per-module self time; the benchmark runs them in its own process.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "formats", "suites", "generate", "fincat", "diagram",
          "semidirect", "simpset", "sset_club", "operads", "algebra")

# Hot leaves: counted, never timed.  A span costs about a microsecond, and
# two samples of sset-laws already build 1.9 M MonotoneMaps.  Time spent in
# these counts as self time of the caller.
COUNT_ONLY = frozenset({
    "simpset.compose_maps", "simpset.apply_operator", "simpset.ez_factor",
    "simpset.identity_map", "simpset.face_map", "simpset.degeneracy_map",
    "simpset.nondeg", "simpset.nf_id",
    "fincat.compose_functors", "fincat.functor_key", "fincat.functor_equal",
    "fincat.fincat_equal",
})
# Leaves that are counted, not timed, while the scope function is running:
# club_check calls enumerate_nat_trans for every pair of composable arrows.
COUNT_ONLY_WITHIN = {"fincat.enumerate_nat_trans": "semidirect.club_check"}
# Classes whose constructions are counted (their __init__ is wrapped).
COUNTED_CLASSES = ("simpset.MonotoneMap",)


class Recorder:
    """The spans and counts of one traced request.

    A span is ``(name index, start, end, parent span index or -1,
    returned)``; ``returned`` is False when the call raised.
    """

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.cells = {}

    def counts(self):
        return {name: cell[0] for name, cell in self.cells.items()}

    def dump(self):
        return {"names": self.names, "spans": self.spans,
                "counts": self.counts()}


def _spanned(rec, name, fn, scope=None):
    index = len(rec.names)
    rec.names.append(name)
    spans, stack, clock = rec.spans, rec.stack, time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = stack[-1] if stack else -1
        me = len(spans)
        spans.append(None)
        stack.append(me)
        if scope is not None:
            scope[0] += 1
        returned = False
        start = clock()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = clock()
            if scope is not None:
                scope[0] -= 1
            stack.pop()
            spans[me] = (index, start, end, parent, returned)
    return wrapper


def _counted(rec, name, fn):
    cell = rec.cells.setdefault(name, [0])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)
    return wrapper


def _switched(rec, name, fn, scope):
    """Counted while ``scope`` is open, spanned otherwise."""
    spanned = _spanned(rec, name, fn)
    cell = rec.cells.setdefault(name, [0])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if scope[0]:
            cell[0] += 1
            return fn(*args, **kwargs)
        return spanned(*args, **kwargs)
    return wrapper


def install(rec, package="clubcat"):
    """Wrap the public functions of every layer of ``package``.

    The package must be imported.  Modules are reached through
    ``sys.modules``: the name ``clubcat.semidirect`` resolves to the function
    of that name, not to the module.  Returns the number of functions wrapped.
    """
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == package
                                     or n.startswith(package + "."))]
    scopes = {s: [0] for s in COUNT_ONLY_WITHIN.values()}
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for attr, fn in sorted(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            if name in COUNT_ONLY:
                wrapper = _counted(rec, name, fn)
            elif name in COUNT_ONLY_WITHIN:
                wrapper = _switched(rec, name, fn,
                                    scopes[COUNT_ONLY_WITHIN[name]])
            else:
                wrapper = _spanned(rec, name, fn, scopes.get(name))
            wrapped[id(fn)] = wrapper
    for name in COUNTED_CLASSES:
        layer, cls_name = name.split(".")
        cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
        cls.__init__ = _counted(rec, name, cls.__init__)
    for mod in modules:
        namespace = vars(mod)
        for attr, value in list(namespace.items()):
            if id(value) in wrapped:
                namespace[attr] = wrapped[id(value)]
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrapped:
                        value[key] = wrapped[id(item)]
    return len(wrapped)


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    ``spans`` holds ``(name, start, end, parent, ...)`` tuples, where
    ``parent`` indexes into ``spans`` (-1 for none).  Children are clipped to
    their parent, so overlapping or overhanging children count once.
    """
    children = [[] for _ in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            start, end = spans[parent][1], spans[parent][2]
            lo, hi = max(span[1], start), min(span[2], end)
            if hi > lo:
                children[parent].append((lo, hi))
    return [(span[2] - span[1]) - _union_length(kids)
            for span, kids in zip(spans, children)]


def summarize(requests):
    """Per-function and per-module totals over traced requests.

    Each request is a ``Recorder.dump()`` dict.  Returns
    ``{"functions": {name: {...}}, "modules": {layer: self_s},
    "top_level_s": total time of spans without a parent}``.
    """
    functions = {}
    modules = {layer: 0.0 for layer in LAYERS}
    top_level = 0.0

    def entry(name):
        return functions.setdefault(name, {"calls": 0, "returned": 0,
                                           "self_s": 0.0, "busy_s": 0.0})

    for req in requests:
        names = req["names"]
        spans = [tuple(s) for s in req["spans"]]
        by_name = {}
        for span, own in zip(spans, self_times(spans)):
            name = names[span[0]]
            e = entry(name)
            e["calls"] += 1
            e["returned"] += 1 if span[4] else 0
            e["self_s"] += own
            modules[name.split(".")[0]] += own
            by_name.setdefault(name, []).append((span[1], span[2]))
            if span[3] < 0:
                top_level += span[2] - span[1]
        for name, intervals in by_name.items():
            functions[name]["busy_s"] += _union_length(intervals)
        for name, count in req["counts"].items():
            e = entry(name)
            e["calls"] += count
            e["returned"] += count
    return {"functions": functions, "modules": modules,
            "top_level_s": top_level}
