"""Command-line interface.

Exit codes: 0 all checks passed, 1 a check failed, 2 invalid input,
3 a size guardrail was exceeded.  Reports are deterministic: the same inputs
and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
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
from .sset_club import (ClubObjectSSet, TwoLevelFamily, associativity_check,
                        compose, constant_family, unit_law_point_base,
                        unit_law_point_values, validate_family)
from .suites import SUITES, Report, run_suite

PASS, FAIL, BAD_INPUT, GUARDRAIL = 0, 1, 2, 3


def _emit(report, args):
    """Write ``report`` to ``--report-out`` if given, print it (as JSON with
    ``--json``) and return the exit code."""
    text = formats.to_json_string(report)
    summary = report["summary"]
    if args.report_out:
        formats.write_text(args.report_out, text)
    if args.json:
        sys.stdout.write(text)
    else:
        for check in report["checks"]:
            sys.stdout.write(f"[{check['status'].upper():4}] {check['law']}\n")
        sys.stdout.write(f"{summary['passed']}/{summary['total']} checks passed\n")
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
                + validate_smap(value))
    if kind == "club-object":
        return validate_sset(value.base) + validate_family(value.family)
    if kind == "operad":
        return _operad_violations(value)
    if kind == "club":
        return (validate_diagram(value.carrier)
                + [f"mu: {r}" for r in validate_diagram_morphism(value.mu)]
                + [f"eta: {r}" for r in validate_diagram_morphism(value.eta)])
    if kind == "algebra-object":
        return validate_sset(value.shape) + validate_finset_diagram(value.diagram)
    if kind == "algebra-morphism":
        return validate_algebra_morphism(value)
    raise InputError(f"no validator for kind {kind!r}")


def cmd_validate(args):
    kind, value = formats.parse_file(args.file)
    violations = _validate_value(kind, value)
    return _emit_check(args, "validate", f"well-formed:{kind}", not violations,
                       {"violations": violations[:20]}, kind=kind)


def cmd_semidirect(args):
    left = _parse_as(args.left, "diagram", "semidirect")
    right = _parse_as(args.right, "diagram", "semidirect")
    for value, path in ((left, args.left), (right, args.right)):
        _require_valid(validate_diagram(value), f"{path} is not a valid diagram")
    result = semidirect(left, right)
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
    a = _parse_as(args.left, "sset", "product")
    b = _parse_as(args.right, "sset", "product")
    return _emit_sset(args, "product", "product-constructed", product(a, b))


def cmd_sset_diag(args):
    a = _parse_as(args.left, "sset", "diag")
    b = _parse_as(args.right, "sset", "diag")
    if a.trunc != b.trunc:
        raise InputError("external product needs equal truncation levels")
    # the diagonal of the external product a x b: the composite of the
    # constant family with value b over a
    result = compose(ClubObjectSSet(a, constant_family(a, b))).sset
    return _emit_sset(args, "diag", "diagonal-constructed", result)


def _valid_club_object(args, what):
    obj = _parse_as(args.file, "club-object", what)
    _require_valid(validate_family(obj.family), "invalid family")
    return obj


def cmd_sset_compose(args):
    obj = _valid_club_object(args, "compose")
    return _emit_sset(args, "compose", "composite-constructed",
                      compose(obj).sset)


def cmd_sset_kan_check(args):
    if args.max_dim is not None and args.max_dim < 0:
        raise InputError("kan-check needs a nonnegative --max-dim")
    value = _parse_as(args.file, "map", "kan-check")
    max_dim = args.max_dim if args.max_dim is not None else value.src.trunc - 1
    ok, witness = is_kan_fibration(value, max_dim)
    return _emit_check(args, "sset kan-check", "horn-lifting", ok,
                       {"max_dim": max_dim, "witness": witness})


def cmd_sset_law_check(args):
    obj = _valid_club_object(args, "law-check")
    report = Report(command="sset law-check")
    if args.unit or not (args.unit or args.assoc):
        violations = unit_law_point_values(obj.base)
        report.record("unit-law-point-values", not violations,
                      {"violations": violations})
        seen = []
        for value in obj.family.values.values():
            if id(value) not in seen:
                seen.append(id(value))
                violations = unit_law_point_base(value)
                report.record("unit-law-point-base", not violations,
                              {"violations": violations})
    if args.assoc:
        tlf = TwoLevelFamily.constant_inner(obj.family, one_point(obj.base.trunc))
        violations = associativity_check(tlf)
        report.record("diagonal-associativity", not violations,
                      {"violations": violations[:5]})
    return _emit(report.report(), args)


def _valid_operad(args, what):
    value = _parse_as(args.file, "operad", what)
    _require_valid(_operad_violations(value), "invalid operad")
    return value


def cmd_operad_validate(args):
    value = _parse_as(args.file, "operad", "operad validate")
    violations = _operad_violations(value)
    return _emit_check(args, "operad validate", "operad-laws", not violations,
                       {"violations": violations[:20]})


def cmd_operad_encode(args):
    value = _valid_operad(args, "operad encode")
    enc = encode_sym(value) if isinstance(value, SymOperad) else encode_ns(value)
    if args.out:
        formats.write_file(args.out, "diagram", enc.diagram)
    return _emit_check(args, "operad encode", "encoding-constructed", True,
                       {"objects": len(enc.diagram.base.objects)})


def cmd_operad_to_club(args):
    value = _valid_operad(args, "operad to-club")
    club = (sym_operad_to_club(value) if isinstance(value, SymOperad)
            else operad_to_club(value))
    if args.out:
        formats.write_file(args.out, "club", club)
    return _emit_check(args, "operad to-club", "club-constructed", True,
                       {"product_objects": len(club.product.diagram.base.objects)})


def cmd_operad_roundtrip(args):
    value = _valid_operad(args, "operad roundtrip")
    if isinstance(value, SymOperad):
        raise InputError("roundtrip reads back plain composition tables; "
                         "use a non-symmetric operad")
    return _emit_check(args, "operad roundtrip", "club-table-round-trip",
                       club_round_trips(value), {})


def cmd_algebra_colimit(args):
    obj = _parse_as(args.file, "algebra-object", "colimit")
    _require_valid(validate_finset_diagram(obj.diagram), "invalid set diagram")
    reps = colimit_act(obj)
    return _emit_check(args, "algebra colimit", "collapse-computed", True,
                       {"classes": len(reps),
                        "representatives": [list(r) for r in reps]})


def cmd_algebra_ipoints(args):
    if args.dim is not None and args.dim < 0:
        raise InputError("ipoints needs a nonnegative --dim")
    generator = _generator(args)
    obj = _parse_as(args.file, "algebra-object", "ipoints")
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
        m = _parse_as(args.file, "algebra-morphism", "fibration-check")
        _require_valid(validate_algebra_morphism(m), "invalid morphism")
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


def _usage_error(message):
    """``error`` of the parsers of one command path: raise where argparse
    would print a usage error and exit."""
    raise argparse.ArgumentError(None, message)


def _top_options(parser):
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable report")
    parser.add_argument("--report-out", metavar="FILE",
                        help="also write the report to a file")


def _command_path(argv):
    """The command of ``argv`` and the argument after it, which names the
    subcommand of ``sset``, ``operad`` and ``algebra``; a usage error raises
    ``argparse.ArgumentError``."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.error = _usage_error
    _top_options(parser)
    parser.add_argument("command")
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    return args.command, args.rest[0] if args.rest else None


def build_parser(argv=None):
    """The clubcat parser.

    Given ``argv``, it holds only the parsers on the path to the command
    that ``argv`` names, only that command's parser has ``-h``, and a usage
    error raises ``argparse.ArgumentError``.
    """
    full = argv is None
    path = None if full else _command_path(argv)
    parser = argparse.ArgumentParser(
        prog="clubcat", add_help=full,
        description="Finite categories, twisted products of category-valued "
                    "diagrams, clubs, operads and truncated simplicial sets, "
                    "with exhaustive law checking.")
    if not full:
        parser.error = _usage_error
    _top_options(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name, depth=0, group=False, **kwargs):
        """The parser of ``name`` at ``depth`` of the path, or None off it."""
        if full:
            return subparsers.add_parser(name, **kwargs)
        if path[depth] != name:
            return None
        q = subparsers.add_parser(name, add_help=not group, **kwargs)
        q.error = _usage_error
        return q

    if p := add(sub, "validate", help="validate any supported file"):
        p.add_argument("file")
        p.set_defaults(fn=cmd_validate)

    if p := add(sub, "semidirect", help="product of two diagram files"):
        p.add_argument("left")
        p.add_argument("right")
        p.add_argument("-o", "--out", required=True)
        p.set_defaults(fn=cmd_semidirect)

    if p := add(sub, "club-check", help="check the monoid axioms of a club"):
        p.add_argument("file")
        p.set_defaults(fn=cmd_club_check)

    if p := add(sub, "sset", group=True, help="simplicial set operations"):
        ssub = p.add_subparsers(dest="sset_command", required=True)
        if q := add(ssub, "validate", 1):
            q.add_argument("file")
            q.set_defaults(fn=cmd_validate)
        for name, fn in (("product", cmd_sset_product),
                         ("diag", cmd_sset_diag)):
            if q := add(ssub, name, 1):
                q.add_argument("left")
                q.add_argument("right")
                q.add_argument("-o", "--out")
                q.set_defaults(fn=fn)
        if q := add(ssub, "compose", 1):
            q.add_argument("file")
            q.add_argument("-o", "--out")
            q.set_defaults(fn=cmd_sset_compose)
        if q := add(ssub, "kan-check", 1):
            q.add_argument("file")
            q.add_argument("--max-dim", type=int, default=None)
            q.set_defaults(fn=cmd_sset_kan_check)
        if q := add(ssub, "law-check", 1):
            q.add_argument("file")
            q.add_argument("--assoc", action="store_true")
            q.add_argument("--unit", action="store_true")
            q.set_defaults(fn=cmd_sset_law_check)

    if p := add(sub, "operad", group=True, help="operad operations"):
        osub = p.add_subparsers(dest="operad_command", required=True)
        for name, fn in (("validate", cmd_operad_validate),
                         ("encode", cmd_operad_encode),
                         ("to-club", cmd_operad_to_club),
                         ("roundtrip", cmd_operad_roundtrip)):
            if q := add(osub, name, 1):
                q.add_argument("file")
                if name in ("encode", "to-club"):
                    q.add_argument("-o", "--out")
                q.set_defaults(fn=fn)

    if p := add(sub, "algebra", group=True,
                help="actions, collapses and probes"):
        asub = p.add_subparsers(dest="algebra_command", required=True)
        if q := add(asub, "colimit", 1):
            q.add_argument("file")
            q.set_defaults(fn=cmd_algebra_colimit)
        if q := add(asub, "ipoints", 1):
            q.add_argument("file")
            q.add_argument("--gen", type=int, default=1,
                           help="size of the probing generator")
            q.add_argument("--dim", type=int, default=None)
            q.set_defaults(fn=cmd_algebra_ipoints)
        if q := add(asub, "fibration-check", 1):
            q.add_argument("file", nargs="?", default=None)
            q.add_argument("--gen", type=int, default=1)
            q.add_argument("--seed", type=int, default=0)
            q.add_argument("--samples", type=int, default=50)
            q.add_argument("--trunc", type=int, default=2)
            q.set_defaults(fn=cmd_algebra_fibration_check)

    if p := add(sub, "suite", help="run a named law-check suite"):
        p.add_argument("name", choices=sorted(SUITES))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--trunc", type=int, default=None)
        p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
    except argparse.ArgumentError:
        # -h above the command's own parser, a missing or unknown command,
        # or a usage error: the full parser prints what it always printed
        args = build_parser().parse_args(argv)
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
