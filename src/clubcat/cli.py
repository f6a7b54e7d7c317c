"""Command-line interface.

Exit codes: 0 all checks passed, 1 a check failed, 2 invalid input,
3 a size guardrail was exceeded.  Reports are deterministic: the same inputs
and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import random
import sys

from .algebra import (colimit_act, i_points, i_points_sset, is_fibration,
                      sset_stability_check, validate_algebra_morphism,
                      validate_finset_diagram)
from .diagram import validate_diagram, validate_diagram_morphism
from .errors import GuardrailExceeded, InputError
from .fincat import validate_category
from . import formats
from . import generate
from .operads import (SymOperad, club_round_trips, encode_ns, encode_sym,
                      operad_to_club, sym_operad_to_club, validate_ns_operad,
                      validate_sym_operad)
from .semidirect import club_check, semidirect
from .simpset import (is_kan_fibration, one_point, product, validate_smap,
                      validate_sset)
from .sset_club import (associativity_check, compose, constant_family,
                        constant_inner, unit_law_point_base,
                        unit_law_point_values, validate_family)
from .suites import SUITES, Report, run_suite

PASS, FAIL, BAD_INPUT, GUARDRAIL = 0, 1, 2, 3

# At exit, move every live object to the garbage collector's permanent
# generation, so that interpreter finalization walks no cycles and the OS
# reclaims the memory; gc.disable() would not do, finalization collects anyway.
atexit.register(gc.freeze)


def _emit(report, args):
    """Write ``report`` to ``--report-out`` if given, print it (as JSON with
    ``--json``) and return the exit code."""
    text = formats.to_json_string(report)
    summary = report["summary"]
    if args.report_out:
        formats.write_text(args.report_out, text)
    if not args.json:
        text = "".join(f"[{check['status'].upper():4}] {check['law']}\n"
                       for check in report["checks"])
        text += f"{summary['passed']}/{summary['total']} checks passed\n"
    if sys.stdout is None:
        raise InputError("cannot write stdout: it is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise InputError(f"cannot write stdout: {exc}") from None
    return PASS if summary["failed"] == 0 else FAIL


def _emit_check(args, command, law, ok, details, **header):
    """Report the one check of ``command`` and return the exit code."""
    report = Report(command=command, **header)
    report.record(law, ok, details)
    return _emit(report.report(), args)


def _parse_as(path, kind_wanted, what):
    kind, value = formats.parse_file(path)
    if kind != kind_wanted:
        raise InputError(f"{what} expects a {kind_wanted} file, got {kind}")
    return value


def _require_valid(violations, what):
    """Raise InputError with the first violation, if there is one."""
    if violations:
        raise InputError(f"{what}: {violations[0]}")


def _operad_violations(value):
    if isinstance(value, SymOperad):
        return validate_sym_operad(value)
    return validate_ns_operad(value)


def _generator(args):
    """The probing generator of ``--gen`` elements."""
    if args.gen < 0:
        raise InputError(f"--gen must be nonnegative, got {args.gen}")
    return tuple(f"g{i}" for i in range(args.gen))


def _validate_value(kind, value):
    if kind == "category":
        return validate_category(value)
    if kind == "diagram":
        return validate_diagram(value)
    if kind == "sset":
        return validate_sset(value)
    if kind == "map":
        return (validate_sset(value.src) + validate_sset(value.tgt)
                or validate_smap(value))
    if kind == "club-object":
        return validate_family(value)
    if kind == "operad":
        return _operad_violations(value)
    if kind == "club":
        return (validate_diagram(value.carrier)
                + [f"mu: {r}" for r in validate_diagram_morphism(value.mu)]
                + [f"eta: {r}" for r in validate_diagram_morphism(value.eta)])
    if kind == "algebra-object":
        return validate_finset_diagram(value.diagram)
    if kind == "algebra-morphism":
        return validate_algebra_morphism(value)
    raise InputError(f"no validator for kind {kind!r}")


def cmd_validate(args):
    kind, value = formats.parse_file(args.file)
    violations = _validate_value(kind, value)
    return _emit_check(args, "validate", f"well-formed:{kind}", not violations,
                       {"violations": violations[:20]}, kind=kind)


def _valid_file(path, kind, what, message):
    """The ``kind`` file at ``path``, refused with InputError ``message`` if
    it fails its validator."""
    value = _parse_as(path, kind, what)
    _require_valid(_validate_value(kind, value), message)
    return value


def _valid_pair(args, kind, what):
    """The ``left`` and ``right`` files of ``kind``, each refused with
    InputError if it fails its validator."""
    left = _parse_as(args.left, kind, what)
    right = _parse_as(args.right, kind, what)
    for value, path in ((left, args.left), (right, args.right)):
        _require_valid(_validate_value(kind, value),
                       f"{path} is not a valid {kind}")
    return left, right


def cmd_semidirect(args):
    result = semidirect(*_valid_pair(args, "diagram", "semidirect"))
    if args.out:
        formats.write_file(args.out, "diagram", result)
    return _emit_check(args, "semidirect", "product-constructed", True,
                       {"objects": len(result.base.objects),
                        "morphisms": len(result.base.mor_ids)})


def cmd_club_check(args):
    violations = club_check(_parse_as(args.file, "club", "club-check"))
    return _emit_check(args, "club-check", "monoid-axioms", not violations,
                       {"violations": violations[:20]})


def _emit_sset(args, command, law, result):
    """Write a constructed simplicial set to ``--out`` and report its
    non-degenerate counts."""
    if args.out:
        formats.write_file(args.out, "sset", result)
    counts = [len(result.nondeg[k]) for k in range(result.trunc + 1)]
    return _emit_check(args, f"sset {command}", law, True,
                       {"nondegenerate_counts": counts})


def cmd_sset_product(args):
    return _emit_sset(args, "product", "product-constructed",
                      product(*_valid_pair(args, "sset", "product")))


def cmd_sset_diag(args):
    a, b = _valid_pair(args, "sset", "diag")
    if a.trunc != b.trunc:
        raise InputError("external product needs equal truncation levels")
    # the diagonal of the external product a x b: the composite of the
    # constant family with value b over a
    result = compose(constant_family(a, b)).sset
    return _emit_sset(args, "diag", "diagonal-constructed", result)


def cmd_sset_compose(args):
    obj = _valid_file(args.file, "club-object", "compose", "invalid family")
    return _emit_sset(args, "compose", "composite-constructed",
                      compose(obj).sset)


def cmd_sset_kan_check(args):
    value = _valid_file(args.file, "map", "kan-check", "invalid map")
    max_dim = args.max_dim if args.max_dim is not None else value.src.trunc - 1
    if max_dim < 0:
        raise InputError("kan-check needs a nonnegative --max-dim")
    ok, witness = is_kan_fibration(value, max_dim)
    return _emit_check(args, "sset kan-check", "horn-lifting", ok,
                       {"max_dim": max_dim, "witness": witness})


def cmd_sset_law_check(args):
    obj = _valid_file(args.file, "club-object", "law-check", "invalid family")
    report = Report(command="sset law-check")
    if args.unit or not (args.unit or args.assoc):
        violations = unit_law_point_values(obj.base)
        report.record("unit-law-point-values", not violations,
                      {"violations": violations})
        seen = []
        for value in obj.values.values():
            if id(value) not in seen:
                seen.append(id(value))
                violations = unit_law_point_base(value)
                report.record("unit-law-point-base", not violations,
                              {"violations": violations})
    if args.assoc:
        tlf = constant_inner(obj, one_point(obj.base.trunc))
        violations = associativity_check(tlf)
        report.record("diagonal-associativity", not violations,
                      {"violations": violations[:5]})
    return _emit(report.report(), args)


def cmd_operad_validate(args):
    value = _parse_as(args.file, "operad", "operad validate")
    violations = _operad_violations(value)
    return _emit_check(args, "operad validate", "operad-laws", not violations,
                       {"violations": violations[:20]})


def cmd_operad_encode(args):
    value = _valid_file(args.file, "operad", "operad encode", "invalid operad")
    enc = encode_sym(value) if isinstance(value, SymOperad) else encode_ns(value)
    if args.out:
        formats.write_file(args.out, "diagram", enc.diagram)
    return _emit_check(args, "operad encode", "encoding-constructed", True,
                       {"objects": len(enc.diagram.base.objects)})


def cmd_operad_to_club(args):
    value = _valid_file(args.file, "operad", "operad to-club", "invalid operad")
    club = (sym_operad_to_club(value) if isinstance(value, SymOperad)
            else operad_to_club(value))
    if args.out:
        formats.write_file(args.out, "club", club)
    return _emit_check(args, "operad to-club", "club-constructed", True,
                       {"product_objects": len(club.product.diagram.base.objects)})


def cmd_operad_roundtrip(args):
    value = _valid_file(args.file, "operad", "operad roundtrip", "invalid operad")
    if isinstance(value, SymOperad):
        raise InputError("roundtrip reads back plain composition tables; "
                         "use a non-symmetric operad")
    return _emit_check(args, "operad roundtrip", "club-table-round-trip",
                       club_round_trips(value), {})


def cmd_algebra_colimit(args):
    obj = _valid_file(args.file, "algebra-object", "colimit",
                      "invalid set diagram")
    reps = colimit_act(obj)
    return _emit_check(args, "algebra colimit", "collapse-computed", True,
                       {"classes": len(reps),
                        "representatives": [list(r) for r in reps]})


def cmd_algebra_ipoints(args):
    if args.dim is not None and args.dim < 0:
        raise InputError("ipoints needs a nonnegative --dim")
    generator = _generator(args)
    obj = _valid_file(args.file, "algebra-object", "ipoints",
                      "invalid set diagram")
    if args.dim is not None:
        pts = i_points(obj, generator, args.dim)
        details = {"dimension": args.dim, "count": len(pts)}
    else:
        sset = i_points_sset(obj, generator)
        details = {"nondegenerate_counts":
                   [len(sset.nondeg[k]) for k in range(sset.trunc + 1)]}
    return _emit_check(args, "algebra ipoints", "probes-enumerated", True,
                       details)


def cmd_algebra_fibration_check(args):
    command = "algebra fibration-check"
    generator = _generator(args)
    if args.file:
        m = _valid_file(args.file, "algebra-morphism", "fibration-check",
                        "invalid morphism")
        ok, info = is_fibration(m, [generator])
        return _emit_check(args, command, "fibration-predicate", ok, info or {})
    if args.trunc < 0 or args.samples < 0:
        raise InputError("fibration-check needs a nonnegative truncation "
                         "and sample count")
    rng = random.Random(args.seed)
    samples = [generate.random_stability_sample(rng, args.trunc)
               for _ in range(args.samples)]
    violations = sset_stability_check(samples)
    return _emit_check(args, command, "injective-composites", not violations,
                       {"samples": len(samples), "violations": violations[:5]})


def cmd_suite(args):
    return _emit(run_suite(args.name, seed=args.seed, samples=args.samples,
                           trunc=args.trunc), args)


_FILE = (("file",), {})
_OUT = (("-o", "--out"), {})
_PAIR = [(("left",), {}), (("right",), {}), _OUT]

# Each command path maps to its help text (None for a command listed without
# one), its handler's name (None for the top level and the groups, whose next
# argument names a command; a name, so a rebound cmd_* is the one called) and
# the add_argument arguments of its positionals and options, in order.
_GRAMMAR = {
    (): ("Finite categories, twisted products of category-valued diagrams, "
         "clubs, operads and truncated simplicial sets, with exhaustive law "
         "checking.", None,
         [(("--json",), {"action": "store_true",
                         "help": "print the machine-readable report"}),
          (("--report-out",), {"metavar": "FILE",
                               "help": "also write the report to a file"})]),
    ("validate",): ("validate any supported file", "cmd_validate", [_FILE]),
    ("semidirect",): ("product of two diagram files", "cmd_semidirect",
                      _PAIR[:2] + [(("-o", "--out"), {"required": True})]),
    ("club-check",): ("check the monoid axioms of a club", "cmd_club_check",
                      [_FILE]),
    ("sset",): ("simplicial set operations", None, []),
    ("sset", "validate"): (None, "cmd_validate", [_FILE]),
    ("sset", "product"): (None, "cmd_sset_product", _PAIR),
    ("sset", "diag"): (None, "cmd_sset_diag", _PAIR),
    ("sset", "compose"): (None, "cmd_sset_compose", [_FILE, _OUT]),
    ("sset", "kan-check"): (None, "cmd_sset_kan_check",
                            [_FILE, (("--max-dim",), {"type": int})]),
    ("sset", "law-check"): (None, "cmd_sset_law_check",
                            [_FILE, (("--assoc",), {"action": "store_true"}),
                             (("--unit",), {"action": "store_true"})]),
    ("operad",): ("operad operations", None, []),
    ("operad", "validate"): (None, "cmd_operad_validate", [_FILE]),
    ("operad", "encode"): (None, "cmd_operad_encode", [_FILE, _OUT]),
    ("operad", "to-club"): (None, "cmd_operad_to_club", [_FILE, _OUT]),
    ("operad", "roundtrip"): (None, "cmd_operad_roundtrip", [_FILE]),
    ("algebra",): ("actions, collapses and probes", None, []),
    ("algebra", "colimit"): (None, "cmd_algebra_colimit", [_FILE]),
    ("algebra", "ipoints"): (None, "cmd_algebra_ipoints", [
        _FILE, (("--gen",), {"type": int, "default": 1,
                             "help": "size of the probing generator"}),
        (("--dim",), {"type": int})]),
    ("algebra", "fibration-check"): (None, "cmd_algebra_fibration_check", [
        (("file",), {"nargs": "?"}),
        (("--gen",), {"type": int, "default": 1}),
        (("--seed",), {"type": int, "default": 0}),
        (("--samples",), {"type": int, "default": 50}),
        (("--trunc",), {"type": int, "default": 2})]),
    ("suite",): ("run a named law-check suite", "cmd_suite",
                 [(("name",), {"choices": sorted(SUITES)}),
                  (("--seed",), {"type": int, "default": 0}),
                  (("--samples",), {"type": int}),
                  (("--trunc",), {"type": int})]),
}


def build_parser():
    """The clubcat parser, built from ``_GRAMMAR``."""
    subparsers = {}
    for path, (text, handler, arguments) in _GRAMMAR.items():
        if path:
            parser = subparsers[path[:-1]].add_parser(
                path[-1], **({"help": text} if text else {}))
        else:
            parser = top = argparse.ArgumentParser(prog="clubcat",
                                                   description=text)
        for flags, kwargs in arguments:
            parser.add_argument(*flags, **kwargs)
        if handler:
            parser.set_defaults(fn=globals()[handler])
        else:
            subparsers[path] = parser.add_subparsers(
                dest="_".join(path + ("command",)), required=True)
    return top


def _dest(flags):
    return flags[-1].lstrip("-").replace("-", "_")


def _typed(kwargs, text):
    """``text`` as argparse stores it; ValueError for a usage error."""
    value = kwargs.get("type", str)(text)
    if value not in kwargs.get("choices", (value,)):
        raise ValueError(text)
    return value


def _read_plain(argv):
    """``build_parser().parse_args(argv)``, read without a parser, or None
    unless ``argv`` is spelled plainly: exact command and option names, each
    option value a separate token not starting with "-", every required
    argument given, and an optional positional only as the first argument of
    its command, where argparse versions agree on it."""
    path, (_, handler, arguments) = (), _GRAMMAR[()]
    values, every = {}, list(arguments)
    tokens = iter(argv)
    try:
        for token in tokens:
            option = [a for a in arguments
                      if token[:1] == "-" and token in a[0]]
            unread = [a for a in arguments
                      if a[0][0][:1] != "-" and _dest(a[0]) not in values]
            if option:
                [(flags, kwargs)] = option
                if "action" in kwargs:
                    values[_dest(flags)] = True
                else:
                    text = next(tokens, "-")
                    if text[:1] == "-":
                        return None
                    values[_dest(flags)] = _typed(kwargs, text)
            elif handler and unread and token[:1] != "-" and (
                    "nargs" not in unread[0][1]
                    or not any(_dest(f) in values for f, _ in arguments)):
                values[_dest(unread[0][0])] = _typed(unread[0][1], token)
            elif not handler and path + (token,) in _GRAMMAR:
                values["_".join(path + ("command",))] = token
                path += (token,)
                _, handler, arguments = _GRAMMAR[path]
                every += arguments
            else:
                return None
    except ValueError:
        return None
    for flags, kwargs in every:
        if _dest(flags) not in values:
            if kwargs.get("required") or (flags[0][:1] != "-"
                                          and "nargs" not in kwargs):
                return None
            values[_dest(flags)] = kwargs.get(
                "default", False if "action" in kwargs else None)
    return handler and argparse.Namespace(fn=globals()[handler], **values)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # argparse reads what the plain reader leaves, and prints help and errors
    args = _read_plain(argv) or build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GuardrailExceeded as exc:
        sys.stderr.write(f"guardrail: {exc}\n")
        return GUARDRAIL
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
