"""Command-line interface.

Exit codes: 0 all checks passed, 1 a check failed, 2 invalid input,
3 a size guardrail was exceeded.  Reports are deterministic: the same inputs
and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

from .config import Guardrails, SCHEMA_VERSION
from .errors import GuardrailExceeded, InputError
from . import formats
from .suites import SUITES, run_suite

PASS, FAIL, BAD_INPUT, GUARDRAIL = 0, 1, 2, 3


def _emit(report, args):
    text = formats.to_json_string(report)
    if getattr(args, "json", False):
        sys.stdout.write(text)
    else:
        for check in report.get("checks", []):
            sys.stdout.write(f"[{check['status'].upper():4}] {check['law']}\n")
        summary = report.get("summary")
        if summary:
            sys.stdout.write(
                f"{summary['passed']}/{summary['total']} checks passed\n")
    out = getattr(args, "report_out", None)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _report(command, checks, extra=None):
    passed = sum(1 for c in checks if c["status"] == "pass")
    report = {
        "tool": "clubcat",
        "schema": SCHEMA_VERSION,
        "command": command,
        "checks": checks,
        "summary": {"passed": passed, "failed": len(checks) - passed,
                    "total": len(checks)},
    }
    if extra:
        report.update(extra)
    return report


def _exit_code(report):
    return PASS if report["summary"]["failed"] == 0 else FAIL


def _validate_value(kind, value):
    from .algebra import validate_algebra_morphism, validate_finset_diagram
    from .diagram import validate_diagram, validate_diagram_morphism
    from .fincat import validate_category
    from .operads import SymOperad, validate_ns_operad, validate_sym_operad
    from .simpset import validate_smap, validate_sset
    from .sset_club import validate_family

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
        if isinstance(value, SymOperad):
            return validate_sym_operad(value)
        return validate_ns_operad(value)
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
    checks = [{"law": f"well-formed:{kind}",
               "status": "pass" if not violations else "fail",
               "details": {"violations": violations[:20]}}]
    report = _report("validate", checks, {"kind": kind})
    _emit(report, args)
    return _exit_code(report)


def cmd_semidirect(args):
    from .diagram import validate_diagram
    from .semidirect import semidirect
    kind1, left = formats.parse_file(args.left)
    kind2, right = formats.parse_file(args.right)
    if kind1 != "diagram" or kind2 != "diagram":
        raise InputError("semidirect expects two diagram files")
    for value, path in ((left, args.left), (right, args.right)):
        bad = validate_diagram(value)
        if bad:
            raise InputError(f"{path} is not a valid diagram: {bad[0]}")
    product = semidirect(left, right, _guard(args))
    if args.out:
        formats.write_file(args.out, "diagram", product)
    checks = [{"law": "product-constructed", "status": "pass",
               "details": {"objects": len(product.base.objects),
                           "morphisms": len(product.base.mor_ids)}}]
    report = _report("semidirect", checks)
    _emit(report, args)
    return PASS


def cmd_club_check(args):
    from .semidirect import club_check
    kind, value = formats.parse_file(args.file)
    if kind != "club":
        raise InputError("club-check expects a club file")
    violations = club_check(value, _guard(args))
    checks = [{"law": "monoid-axioms",
               "status": "pass" if not violations else "fail",
               "details": {"violations": violations[:20]}}]
    report = _report("club-check", checks)
    _emit(report, args)
    return _exit_code(report)


def _parse_as(path, kind_wanted, what):
    kind, value = formats.parse_file(path)
    if kind != kind_wanted:
        raise InputError(f"{what} expects a {kind_wanted} file, got {kind}")
    return value


def _emit_sset(args, command, law, result):
    """Write a constructed simplicial set to ``--out`` and report its
    non-degenerate counts."""
    if args.out:
        formats.write_file(args.out, "sset", result)
    counts = [len(result.nondeg[k]) for k in range(result.trunc + 1)]
    _emit(_report(f"sset {command}", [
        {"law": law, "status": "pass",
         "details": {"nondegenerate_counts": counts}}]), args)
    return PASS


def cmd_sset(args):
    from .simpset import is_kan_fibration, product
    from .sset_club import ClubObjectSSet, compose, constant_family, validate_family
    if args.sset_command == "validate":
        return cmd_validate(args)
    if args.sset_command == "product":
        a = _parse_as(args.left, "sset", "product")
        b = _parse_as(args.right, "sset", "product")
        return _emit_sset(args, "product", "product-constructed", product(a, b))
    if args.sset_command == "diag":
        a = _parse_as(args.left, "sset", "diag")
        b = _parse_as(args.right, "sset", "diag")
        if a.trunc != b.trunc:
            raise InputError("external product needs equal truncation levels")
        # the diagonal of the external product a x b: the composite of the
        # constant family with value b over a
        result = compose(ClubObjectSSet(a, constant_family(a, b))).sset
        return _emit_sset(args, "diag", "diagonal-constructed", result)
    if args.sset_command == "compose":
        obj = _parse_as(args.file, "club-object", "compose")
        bad = validate_family(obj.family)
        if bad:
            raise InputError(f"invalid family: {bad[0]}")
        return _emit_sset(args, "compose", "composite-constructed",
                          compose(obj).sset)
    if args.sset_command == "kan-check":
        value = _parse_as(args.file, "map", "kan-check")
        max_dim = args.max_dim if args.max_dim is not None else value.src.trunc - 1
        ok, witness = is_kan_fibration(value, max_dim)
        report = _report("sset kan-check", [
            {"law": "horn-lifting", "status": "pass" if ok else "fail",
             "details": {"max_dim": max_dim, "witness": witness}}])
        _emit(report, args)
        return _exit_code(report)
    if args.sset_command == "law-check":
        return _sset_law_check(args)
    raise InputError(f"unknown sset command {args.sset_command!r}")


def _sset_law_check(args):
    from .sset_club import (TwoLevelFamily, associativity_check,
                            unit_law_check, validate_family)
    from .simpset import one_point
    obj = _parse_as(args.file, "club-object", "law-check")
    bad = validate_family(obj.family)
    if bad:
        raise InputError(f"invalid family: {bad[0]}")
    checks = []
    if args.unit or not (args.unit or args.assoc):
        report = unit_law_check(s=obj.base)
        checks.append({"law": "unit-law-point-values",
                       "status": "pass" if not report else "fail",
                       "details": {"violations": report}})
        seen = []
        for v in obj.family.values.values():
            if id(v) not in seen:
                seen.append(id(v))
                rep = unit_law_check(value=v)
                checks.append({"law": "unit-law-point-base",
                               "status": "pass" if not rep else "fail",
                               "details": {"violations": rep}})
    if args.assoc:
        tlf = TwoLevelFamily.constant_inner(obj.family, one_point(obj.base.trunc))
        report = associativity_check(tlf)
        checks.append({"law": "diagonal-associativity",
                       "status": "pass" if not report else "fail",
                       "details": {"violations": report[:5]}})
    report = _report("sset law-check", checks)
    _emit(report, args)
    return _exit_code(report)


def cmd_operad(args):
    from .operads import (club_to_operad, encode_ns, encode_sym, operad_to_club,
                          sym_operad_to_club, SymOperad,
                          validate_ns_operad, validate_sym_operad)
    value = _parse_as(args.file, "operad", f"operad {args.operad_command}")
    symmetric = isinstance(value, SymOperad)
    violations = (validate_sym_operad(value) if symmetric
                  else validate_ns_operad(value))
    if args.operad_command == "validate":
        checks = [{"law": "operad-laws",
                   "status": "pass" if not violations else "fail",
                   "details": {"violations": violations[:20]}}]
        report = _report("operad validate", checks)
        _emit(report, args)
        return _exit_code(report)
    if violations:
        raise InputError(f"invalid operad: {violations[0]}")
    if args.operad_command == "encode":
        enc = encode_sym(value) if symmetric else encode_ns(value)
        if args.out:
            formats.write_file(args.out, "diagram", enc.diagram)
        report = _report("operad encode", [
            {"law": "encoding-constructed", "status": "pass",
             "details": {"objects": len(enc.diagram.base.objects)}}])
        _emit(report, args)
        return PASS
    if args.operad_command == "to-club":
        club = (sym_operad_to_club(value, _guard(args)) if symmetric
                else operad_to_club(value, _guard(args)))
        if args.out:
            formats.write_file(args.out, "club", club)
        report = _report("operad to-club", [
            {"law": "club-constructed", "status": "pass",
             "details": {"product_objects": len(club.product.diagram.base.objects)}}])
        _emit(report, args)
        return PASS
    if args.operad_command == "roundtrip":
        if symmetric:
            raise InputError("roundtrip reads back plain composition tables; "
                             "use a non-symmetric operad")
        club = operad_to_club(value, _guard(args))
        back = club_to_operad(club)
        same = (back.gamma == value.gamma and back.unit == value.unit
                and back.levels == value.levels)
        report = _report("operad roundtrip", [
            {"law": "club-table-round-trip",
             "status": "pass" if same else "fail", "details": {}}])
        _emit(report, args)
        return _exit_code(report)
    raise InputError(f"unknown operad command {args.operad_command!r}")


def cmd_algebra(args):
    from .algebra import (colimit_act, i_points, i_points_sset, is_fibration,
                          sset_stability_check, validate_algebra_morphism,
                          validate_finset_diagram)
    if args.algebra_command == "colimit":
        obj = _parse_as(args.file, "algebra-object", "colimit")
        bad = validate_finset_diagram(obj.diagram)
        if bad:
            raise InputError(f"invalid set diagram: {bad[0]}")
        reps = colimit_act(obj)
        report = _report("algebra colimit", [
            {"law": "collapse-computed", "status": "pass",
             "details": {"classes": len(reps),
                         "representatives": [list(r) for r in reps]}}])
        _emit(report, args)
        return PASS
    if args.algebra_command == "ipoints":
        obj = _parse_as(args.file, "algebra-object", "ipoints")
        generator = tuple(f"g{i}" for i in range(args.gen))
        if args.dim is not None:
            pts = i_points(obj, generator, args.dim)
            details = {"dimension": args.dim, "count": len(pts)}
        else:
            sset = i_points_sset(obj, generator)
            details = {"nondegenerate_counts":
                       [len(sset.nondeg[k]) for k in range(sset.trunc + 1)]}
        report = _report("algebra ipoints", [
            {"law": "probes-enumerated", "status": "pass", "details": details}])
        _emit(report, args)
        return PASS
    if args.algebra_command == "fibration-check":
        if args.file:
            m = _parse_as(args.file, "algebra-morphism", "fibration-check")
            bad = validate_algebra_morphism(m)
            if bad:
                raise InputError(f"invalid morphism: {bad[0]}")
            generator = tuple(f"g{i}" for i in range(args.gen))
            ok, info = is_fibration(m, [generator])
            checks = [{"law": "fibration-predicate",
                       "status": "pass" if ok else "fail",
                       "details": info or {}}]
        else:
            import random as _random
            from . import generate as gen_mod
            rng = _random.Random(args.seed)
            samples = [gen_mod.random_stability_sample(rng, args.trunc or 2)
                       for _ in range(args.samples or 50)]
            violations = sset_stability_check(samples)
            checks = [{"law": "injective-composites",
                       "status": "pass" if not violations else "fail",
                       "details": {"samples": len(samples),
                                   "violations": violations[:5]}}]
        report = _report("algebra fibration-check", checks)
        _emit(report, args)
        return _exit_code(report)
    raise InputError(f"unknown algebra command {args.algebra_command!r}")


def cmd_suite(args):
    report = run_suite(args.name, seed=args.seed, samples=args.samples,
                       trunc=args.trunc)
    _emit(report, args)
    return PASS if report["summary"]["failed"] == 0 else FAIL


def _guard(args):
    return Guardrails()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="clubcat",
        description="Finite categories, twisted products of category-valued "
                    "diagrams, clubs, operads and truncated simplicial sets, "
                    "with exhaustive law checking.")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable report")
    parser.add_argument("--report-out", metavar="FILE",
                        help="also write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate any supported file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("semidirect", help="product of two diagram files")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=cmd_semidirect)

    p = sub.add_parser("club-check", help="check the monoid axioms of a club")
    p.add_argument("file")
    p.set_defaults(fn=cmd_club_check)

    p = sub.add_parser("sset", help="simplicial set operations")
    ssub = p.add_subparsers(dest="sset_command", required=True)
    q = ssub.add_parser("validate")
    q.add_argument("file")
    q.set_defaults(fn=cmd_validate)
    for name in ("product", "diag"):
        q = ssub.add_parser(name)
        q.add_argument("left")
        q.add_argument("right")
        q.add_argument("-o", "--out")
        q.set_defaults(fn=cmd_sset)
    q = ssub.add_parser("compose")
    q.add_argument("file")
    q.add_argument("-o", "--out")
    q.set_defaults(fn=cmd_sset)
    q = ssub.add_parser("kan-check")
    q.add_argument("file")
    q.add_argument("--max-dim", type=int, default=None)
    q.set_defaults(fn=cmd_sset)
    q = ssub.add_parser("law-check")
    q.add_argument("file")
    q.add_argument("--assoc", action="store_true")
    q.add_argument("--unit", action="store_true")
    q.set_defaults(fn=cmd_sset)

    p = sub.add_parser("operad", help="operad operations")
    osub = p.add_subparsers(dest="operad_command", required=True)
    for name in ("validate", "encode", "to-club", "roundtrip"):
        q = osub.add_parser(name)
        q.add_argument("file")
        if name in ("encode", "to-club"):
            q.add_argument("-o", "--out")
        q.set_defaults(fn=cmd_operad)

    p = sub.add_parser("algebra", help="actions, collapses and probes")
    asub = p.add_subparsers(dest="algebra_command", required=True)
    q = asub.add_parser("colimit")
    q.add_argument("file")
    q.set_defaults(fn=cmd_algebra)
    q = asub.add_parser("ipoints")
    q.add_argument("file")
    q.add_argument("--gen", type=int, default=1,
                   help="size of the probing generator")
    q.add_argument("--dim", type=int, default=None)
    q.set_defaults(fn=cmd_algebra)
    q = asub.add_parser("fibration-check")
    q.add_argument("file", nargs="?", default=None)
    q.add_argument("--gen", type=int, default=1)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--samples", type=int, default=None)
    q.add_argument("--trunc", type=int, default=None)
    q.set_defaults(fn=cmd_algebra)

    p = sub.add_parser("suite", help="run a named law-check suite")
    p.add_argument("name", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--trunc", type=int, default=None)
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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
