"""Command-line frontend: one-shot subcommands over the text file formats.

Exit codes: 0 affirmative verdict, 1 negative verdict, 2 usage or parse
error, 3 semantic error (improper cone, bad functional, shape mismatch),
4 internal error (a failed certificate re-check, disagreeing decision
routes, or any other unexpected exception), so a fault never reads as a
negative verdict.  Every subcommand computes before it prints, so exits 2,
3 and 4 leave stdout empty.
Reports are deterministic: the same input files yield byte-identical
output.  --report json-lines emits one JSON object per line instead of
"key: value" text; dualize writes the dual cone file in either mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cones import ConeError, dualize, make_based, make_cone
from .formats import (ParseError, parse_cone_file, parse_point_file,
                      parse_polytope_file, serialize_cone_file)
from .hierarchy import (ext_k_membership, is_entanglement_breaking,
                        min_tensor_generators, point_tensor)
from .lp import conic_membership
from .polytopes import (FACET_CAP, FactorFailure, affine_hull_commutes,
                        factor_as_simplices, polytope_from_vertices)
from .quantum import verify_appendix
from .scalars import format_rational, parse_rational

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_SEMANTIC = 3
EXIT_INTERNAL = 4


class SemanticError(Exception):
    pass


def _read(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise SemanticError(f"cannot read {path}: {e.strerror}")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: byte {data[e.start]:#04x} is not UTF-8",
                         data.count(b"\n", 0, e.start) + 1)


def _load_cone(path):
    name, dim, gens, phi = parse_cone_file(_read(path))
    try:
        cone = make_cone(gens)
    except ConeError as e:
        raise SemanticError(f"{path}: {e}")
    return name, cone, phi


def _load_based(path, phi_override):
    name, cone, phi = _load_cone(path)
    if phi_override is not None:
        phi = phi_override
    if phi is None:
        raise SemanticError(f"{path}: no phi in file and no --phi given")
    if len(phi) != cone.dim:
        raise SemanticError(f"{path}: phi has {len(phi)} entries, cone has dim {cone.dim}")
    try:
        return name, make_based(cone, phi)
    except ValueError as e:
        raise SemanticError(f"{path}: {e}")


def _load_polytope_arg(args):
    if args.polytope is not None:
        name, ambient, verts = parse_polytope_file(_read(args.polytope))
        try:
            return name, polytope_from_vertices(verts)
        except ValueError as e:
            raise SemanticError(f"{args.polytope}: {e}")
    name, based = _load_based(args.cone_b, args.phi)
    return name, based.base


def _parse_phi(text):
    try:
        return tuple(parse_rational(t) for t in text.split())
    except ValueError as e:
        raise _UsageError(f"--phi: {e}")


class _Reporter:
    def __init__(self, mode, out):
        self.mode = mode
        self.out = out

    def emit(self, key, value):
        if self.mode == "json-lines":
            self.out.write(json.dumps({key: value}, sort_keys=True) + "\n")
        else:
            if isinstance(value, list):
                value = " ".join(str(v) for v in value)
            self.out.write(f"{key}: {value}\n")


def _fmt_vec(v):
    return [format_rational(x) for x in v]


def cmd_dualize(args, rep, out):
    name, cone, phi = _load_cone(args.cone_a)
    dual = dualize(cone)
    out.write(serialize_cone_file(name, dual.rays))
    return EXIT_YES


def cmd_ext_check(args, rep, out):
    if args.k < 1:
        raise _UsageError("--k must be a positive integer")
    _, cone_a, _ = _load_cone(args.cone_a)
    _, based = _load_based(args.cone_b, args.phi)
    pname, dims, entries = parse_point_file(_read(args.point))
    if dims != (cone_a.dim, based.cone.dim):
        raise SemanticError(
            f"point dims {dims} do not match cones ({cone_a.dim}, {based.cone.dim})")
    x = point_tensor(cone_a, based.cone, entries)
    verdict = ext_k_membership(x, cone_a, based, args.k)
    rep.emit("command", "ext-check")
    rep.emit("point", pname)
    rep.emit("k", args.k)
    if verdict.member:
        rep.emit("verdict", "MEMBER")
        y = verdict.extension
        rep.emit("extension-slots", [s.dim for s in y.slots])
        rep.emit("extension", _fmt_vec(y.entries))
        return EXIT_YES
    rep.emit("verdict", "NON-MEMBER")
    rep.emit("witness", _fmt_vec(verdict.witness.entries))
    return EXIT_NO


def cmd_eb_check(args, rep, out):
    if args.k < 1:
        raise _UsageError("--k must be a positive integer")
    name, based = _load_based(args.cone_b, args.phi)
    outcome = is_entanglement_breaking(based, args.k)
    rep.emit("command", "eb-check")
    rep.emit("cone", name)
    rep.emit("k", args.k)
    if outcome.breaking:
        rep.emit("verdict", "BREAKING")
        rep.emit("terms", len(outcome.terms))
        for t in outcome.terms:
            rep.emit("term", {
                "facets": list(t.facet_indices),
                "vertex": t.vertex_index,
                "weight": format_rational(t.weight),
            } if rep.mode == "json-lines" else
                f"facets={','.join(map(str, t.facet_indices))} "
                f"vertex={t.vertex_index} weight={format_rational(t.weight)}")
        return EXIT_YES
    rep.emit("verdict", "NOT-BREAKING")
    rep.emit("refutation", _fmt_vec(outcome.refutation))
    return EXIT_NO


def cmd_factor(args, rep, out):
    name, poly = _load_polytope_arg(args)
    result = factor_as_simplices(poly)
    rep.emit("command", "factor")
    rep.emit("polytope", name)
    if isinstance(result, FactorFailure):
        rep.emit("verdict", "NOT-FACTORABLE")
        rep.emit("reason", result.reason)
        return EXIT_NO
    rep.emit("verdict", "FACTORABLE")
    rep.emit("factors", list(result.factor_dims) if rep.mode == "json-lines"
             else "[" + ", ".join(map(str, result.factor_dims)) + "]")
    for cls in result.facet_classes:
        rep.emit("class", list(cls) if rep.mode == "json-lines"
                 else ",".join(map(str, cls)))
    return EXIT_YES


def cmd_hull_check(args, rep, out):
    name, poly = _load_polytope_arg(args)
    if len(poly.functionals) > FACET_CAP:
        raise SemanticError(f"{name}: {len(poly.functionals)} facets exceed "
                            f"the hull-check cap of {FACET_CAP}")
    ok, witness = affine_hull_commutes(poly)
    rep.emit("command", "hull-check")
    rep.emit("polytope", name)
    if ok:
        rep.emit("verdict", "COMMUTES")
        return EXIT_YES
    rep.emit("verdict", "VIOLATED")
    idx = sorted(witness)
    rep.emit("violated", idx if rep.mode == "json-lines"
             else "facets {" + ", ".join(map(str, idx)) + "}")
    return EXIT_NO


def cmd_min_check(args, rep, out):
    _, cone_a, _ = _load_cone(args.cone_a)
    _, cone_b, _ = _load_cone(args.cone_b)
    pname, dims, entries = parse_point_file(_read(args.point))
    if dims != (cone_a.dim, cone_b.dim):
        raise SemanticError(
            f"point dims {dims} do not match cones ({cone_a.dim}, {cone_b.dim})")
    target = tuple(Fraction(e) for e in entries)
    gens = [tuple(g.entries) for g in min_tensor_generators(cone_a, cone_b)]
    outcome = conic_membership(target, gens)
    rep.emit("command", "min-check")
    rep.emit("point", pname)
    if outcome.member:
        rep.emit("verdict", "MEMBER")
        rep.emit("weights", _fmt_vec(outcome.weights))
        return EXIT_YES
    rep.emit("verdict", "NON-MEMBER")
    rep.emit("separating", _fmt_vec(outcome.separating))
    return EXIT_NO


def cmd_quantum_demo(args, rep, out):
    claims = verify_appendix()  # raises AppendixError on a failed claim
    rep.emit("command", "quantum-demo")
    for claim in claims:
        rep.emit("claim", {
            "label": claim.label,
            "verdict": "PASS",
            "values": dict(claim.values),
        } if rep.mode == "json-lines" else f"{claim.label} PASS")
        if rep.mode == "text":
            for key, val in claim.values:
                rep.emit("value", f"{claim.label}.{key} = {val}")
    rep.emit("verdict", "ALL-PASS")
    return EXIT_YES


class _UsageError(Exception):
    pass


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
    out = sys.stdout
    try:
        if getattr(args, "phi", None) is not None:
            args.phi = _parse_phi(args.phi)
        if hasattr(args, "polytope"):
            if args.polytope is None and args.cone_b is None:
                raise _UsageError("need --polytope or --cone-b")
            if args.polytope is not None and (args.cone_b is not None
                                              or args.phi is not None):
                raise _UsageError("--polytope cannot be combined with --cone-b or --phi")
        rep = _Reporter(args.report, out)
        return args.fn(args, rep, out)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SemanticError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SEMANTIC
    except Exception as e:
        import traceback  # deferred: it loads linecache and tokenize
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
