"""Command-line frontend: one-shot subcommands over the text file formats.

Each ``cmd_*`` returns its exit code and its report, and only ``main``
writes: it prints the report through ``_write_report`` once the command has
returned.  A command has no stream to write to, so exits 2, 3 and 4 leave
stdout empty.  A report is dualize's cone file text, written as it is in
either mode, or a list of ``(key, value)`` or ``(key, value, text)`` lines:
--report json-lines writes ``{key: value}`` per line, and the default text
mode ``key: text``.
Reports are deterministic: the same input files yield byte-identical
output.

Exit codes: 0 affirmative verdict, 1 negative verdict, 2 usage or parse
error, 3 semantic error (improper cone, bad functional, shape mismatch),
4 internal error (a failed certificate re-check, disagreeing decision
routes, or any other unexpected exception), so a fault never reads as a
negative verdict.  Every refusal of an input is one ``_Refusal`` that
carries its exit code, 2 or 3, and its whole stderr line; ``main`` prints
the line and returns the code.
"""

from __future__ import annotations

import argparse
import sys

# every command shares only the number text forms; each loader and command
# imports the rest of the package when it runs, so a call loads the modules
# of its own subcommand and no others
from .scalars import format_rational, parse_rational

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_SEMANTIC = 3
EXIT_INTERNAL = 4


class _Refusal(Exception):
    """An input the CLI refuses: ``main`` prints ``message``, the whole
    stderr line, and exits with ``code``."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _read(path, parse):
    """``parse`` of the text of the file at ``path``; a parse error, or a
    byte that is not UTF-8, is refused with exit 2 naming the path."""
    from .formats import ParseError
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise _Refusal(EXIT_SEMANTIC, f"error: {path}: cannot read ({e.strerror})")
    try:
        return parse(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        error = ParseError(f"byte {data[e.start]:#04x} is not UTF-8",
                           data.count(b"\n", 0, e.start) + 1)
    except ParseError as e:
        error = e
    raise _Refusal(EXIT_USAGE, f"error: {path}: {error}")


def _load_cone(path):
    from .cones import ConeError, make_cone
    from .formats import parse_cone_file
    name, dim, gens, phi = _read(path, parse_cone_file)
    try:
        cone = make_cone(gens)
    except ConeError as e:
        raise _Refusal(EXIT_SEMANTIC, f"error: {path}: {e}")
    return name, cone, phi


def _load_based(path, phi_override):
    from .cones import make_based
    name, cone, phi = _load_cone(path)
    if phi_override is not None:
        phi = phi_override
    if phi is None:
        raise _Refusal(EXIT_SEMANTIC, f"error: {path}: no phi in file and no --phi given")
    try:
        return name, make_based(cone, phi)
    except ValueError as e:
        raise _Refusal(EXIT_SEMANTIC, f"error: {path}: {e}")


def _load_polytope_arg(args):
    from .formats import parse_polytope_file
    from .polytopes import polytope_from_vertices
    if args.polytope is None:
        if args.cone_b is None:
            raise _Refusal(EXIT_USAGE, "usage error: need --polytope or --cone-b")
        name, based = _load_based(args.cone_b, args.phi)
        return name, based.base
    if args.cone_b is not None or args.phi is not None:
        raise _Refusal(EXIT_USAGE, "usage error: --polytope cannot be "
                                   "combined with --cone-b or --phi")
    name, ambient, verts = _read(args.polytope, parse_polytope_file)
    return name, polytope_from_vertices(verts)


def _load_point(path, dims):
    from .formats import parse_point_file
    name, point_dims, entries = _read(path, parse_point_file)
    if point_dims != dims:
        raise _Refusal(EXIT_SEMANTIC,
                       f"error: {path}: point dims {point_dims} do not match cones {dims}")
    return name, entries


def _parse_phi(text):
    try:
        return tuple(parse_rational(t) for t in text.split())
    except ValueError as e:
        raise _Refusal(EXIT_USAGE, f"usage error: --phi: {e}")


def _fmt_vec(v):
    return [format_rational(x) for x in v]


def _write_report(report, mode, out):
    """Print a command's report: dualize's file text as it is, and each
    ``(key, value)`` or ``(key, value, text)`` line as ``{key: value}`` in
    json-lines mode, where a ``None`` value is not written, or as
    ``key: text`` in text mode, where the text defaults to the value with a
    list joined by spaces."""
    if isinstance(report, str):
        out.write(report)
        return
    if mode == "json-lines":
        import json
        for key, value, *_ in report:
            if value is not None:
                out.write(json.dumps({key: value}, sort_keys=True) + "\n")
        return
    for key, value, *text in report:
        if text:
            value = text[0]
        elif isinstance(value, list):
            value = " ".join(map(str, value))
        out.write(f"{key}: {value}\n")


def cmd_dualize(args):
    from .cones import dualize
    from .formats import serialize_cone_file
    name, cone, _ = _load_cone(args.cone_a)
    return EXIT_YES, serialize_cone_file(name, dualize(cone).rays)


def cmd_ext_check(args):
    from .hierarchy import ext_k_membership, point_tensor
    _, cone_a, _ = _load_cone(args.cone_a)
    _, based = _load_based(args.cone_b, args.phi)
    pname, entries = _load_point(args.point, (cone_a.dim, based.cone.dim))
    x = point_tensor(cone_a, based.cone, entries)
    verdict = ext_k_membership(x, cone_a, based, args.k)
    report = [("command", "ext-check"), ("point", pname), ("k", args.k)]
    if verdict.member:
        y = verdict.extension
        return EXIT_YES, report + [("verdict", "MEMBER"),
                                   ("extension-slots", [s.dim for s in y.slots]),
                                   ("extension", _fmt_vec(y.entries))]
    return EXIT_NO, report + [("verdict", "NON-MEMBER"),
                              ("witness", _fmt_vec(verdict.witness.entries))]


def cmd_eb_check(args):
    from .hierarchy import is_entanglement_breaking
    name, based = _load_based(args.cone_b, args.phi)
    outcome = is_entanglement_breaking(based, args.k)
    report = [("command", "eb-check"), ("cone", name), ("k", args.k)]
    if not outcome.breaking:
        return EXIT_NO, report + [("verdict", "NOT-BREAKING"),
                                  ("refutation", _fmt_vec(outcome.refutation))]
    report += [("verdict", "BREAKING"), ("terms", len(outcome.terms))]
    for t in outcome.terms:
        weight = format_rational(t.weight)
        report.append(("term", {"facets": list(t.facet_indices),
                                "vertex": t.vertex_index, "weight": weight},
                       f"facets={','.join(map(str, t.facet_indices))} "
                       f"vertex={t.vertex_index} weight={weight}"))
    return EXIT_YES, report


def cmd_factor(args):
    from .polytopes import FactorFailure, factor_as_simplices
    name, poly = _load_polytope_arg(args)
    result = factor_as_simplices(poly)
    report = [("command", "factor"), ("polytope", name)]
    if isinstance(result, FactorFailure):
        return EXIT_NO, report + [("verdict", "NOT-FACTORABLE"),
                                  ("reason", result.reason)]
    dims = list(result.factor_dims)
    report += [("verdict", "FACTORABLE"),
               ("factors", dims, str(dims))]
    report += [("class", list(cls), ",".join(map(str, cls)))
               for cls in result.facet_classes]
    return EXIT_YES, report


def cmd_hull_check(args):
    from .polytopes import FACET_CAP, affine_hull_commutes
    name, poly = _load_polytope_arg(args)
    if len(poly.functionals) > FACET_CAP:
        raise _Refusal(EXIT_SEMANTIC, f"error: {args.polytope or args.cone_b}: "
                                      f"{len(poly.functionals)} facets exceed "
                                      f"the hull-check cap of {FACET_CAP}")
    ok, witness = affine_hull_commutes(poly)
    report = [("command", "hull-check"), ("polytope", name)]
    if ok:
        return EXIT_YES, report + [("verdict", "COMMUTES")]
    idx = sorted(witness)
    return EXIT_NO, report + [("verdict", "VIOLATED"),
                              ("violated", idx,
                               "facets {" + ", ".join(map(str, idx)) + "}")]


def cmd_min_check(args):
    from .cones import min_columns
    from .lp import conic_membership
    _, cone_a, _ = _load_cone(args.cone_a)
    _, cone_b, _ = _load_cone(args.cone_b)
    pname, entries = _load_point(args.point, (cone_a.dim, cone_b.dim))
    outcome = conic_membership(entries, min_columns(cone_a, cone_b))
    report = [("command", "min-check"), ("point", pname)]
    if outcome.member:
        return EXIT_YES, report + [("verdict", "MEMBER"),
                                   ("weights", _fmt_vec(outcome.weights))]
    return EXIT_NO, report + [("verdict", "NON-MEMBER"),
                              ("separating", _fmt_vec(outcome.separating))]


def cmd_quantum_demo(args):
    from .quantum import verify_appendix
    claims = verify_appendix()  # raises AppendixError on a failed claim
    report = [("command", "quantum-demo")]
    for claim in claims:
        report.append(("claim", {"label": claim.label, "verdict": "PASS",
                                 "values": dict(claim.values)},
                       f"{claim.label} PASS"))
        report += [("value", None, f"{claim.label}.{key} = {val}")
                   for key, val in claim.values]
    return EXIT_YES, report + [("verdict", "ALL-PASS")]


def _build_parser():
    p = argparse.ArgumentParser(
        prog="coneext",
        description="exact cone extendibility toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        sp = sub.add_parser(name)
        if flags.get("cone_a"):
            sp.add_argument("--cone-a", required=True, metavar="FILE")
        if flags.get("cone_b"):
            sp.add_argument("--cone-b", required=flags["cone_b"] == "req",
                            metavar="FILE")
        if flags.get("phi"):
            sp.add_argument("--phi", metavar="VEC", default=None)
        if flags.get("k"):
            sp.add_argument("--k", required=True, type=int)
        if flags.get("point"):
            sp.add_argument("--point", required=True, metavar="FILE")
        if flags.get("polytope"):
            sp.add_argument("--polytope", metavar="FILE", default=None)
        sp.add_argument("--report", choices=("text", "json-lines"),
                        default="text")
        sp.set_defaults(fn=fn)
        return sp

    add("dualize", cmd_dualize, cone_a=True)
    add("ext-check", cmd_ext_check, cone_a=True, cone_b="req", phi=True,
        k=True, point=True)
    add("eb-check", cmd_eb_check, cone_b="req", phi=True, k=True)
    add("factor", cmd_factor, polytope=True, cone_b="opt", phi=True)
    add("hull-check", cmd_hull_check, polytope=True, cone_b="opt", phi=True)
    add("min-check", cmd_min_check, cone_a=True, cone_b="req", point=True)
    add("quantum-demo", cmd_quantum_demo)
    return p


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        if getattr(args, "phi", None) is not None:
            args.phi = _parse_phi(args.phi)
        if getattr(args, "k", 1) < 1:
            raise _Refusal(EXIT_USAGE, "usage error: --k must be a positive integer")
        code, report = args.fn(args)
        _write_report(report, args.report, sys.stdout)
        return code
    except _Refusal as e:
        print(e, file=sys.stderr)
        return e.code
    except Exception as e:
        import traceback  # deferred: it loads linecache and tokenize
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
