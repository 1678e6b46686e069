"""The four workloads: inputs made from the seed, the decisions of one pass,
and the expected verdict and certificate re-check of each decision.

Every call into coneext goes through a module attribute looked up at call
time (``cx.hierarchy.ext_k_membership``), so a traced run sees the wrappers
the tracer installs.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median

import checks
from expected import (DUAL_LEVEL, EB_LEVELS, EXT_LADDER, FACTORABLE,
                      MIN_MEMBER, OMEGA_MAX_K, eb_breaking)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = SRC / "coneext" / "fixtures"


@dataclass
class Decision:
    label: str
    call: object          # () -> result; the timed call into coneext
    verdict: object       # result -> value compared with ``expected``
    expected: object
    source: str           # where the expected verdict comes from
    check: object = None  # result -> None or the reason a certificate fails
    key: tuple = ()       # workload-specific grouping (point, k) and the like
    inproc: object = None  # cli-suite: the same call through cli.main in-process


def fixture(name):
    return str(FIXTURES / name)


def load_based(cx, name):
    _, _, gens, phi = cx.formats.parse_cone_file(Path(fixture(name + ".cone")).read_text())
    return cx.cones.make_based(cx.cones.make_cone(gens), phi)


def load_point(cx, name, cone_a, cone_b):
    _, _, entries = cx.formats.parse_point_file(Path(fixture(name + ".pt")).read_text())
    return cx.hierarchy.point_tensor(cone_a, cone_b, entries)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.pop("PYTHONOPTIMIZE", None)
    return env


def _first(pairs, key):
    return next((v for k, v in pairs if k == key), None)


def _latencies(samples, key):
    return [dt for pass_samples in samples for d, dt in pass_samples if d.key == key]


class Workload:
    name = ""
    reference = "fraction"   # clock kernel, see clock.py
    tail_q = 90              # percentile reported as decision_s.tail, see run.measure
    min_passes = 1

    def build(self, cx, rng, small):
        """The decisions of one pass, in the order the seed gives."""
        raise NotImplementedError

    def pass_check(self, results):
        """Failures of laws that tie several verdicts of a pass together."""
        return []

    def headline(self, samples):
        """Workload-specific end-to-end metrics: name -> (value, unit, note)."""
        return {}


# ---------------------------------------------------------------------------

class ExtkLadder(Workload):
    """Ext_k membership on square x square-skew: gap-k3 and gap-k2 at
    k = 1, 2, 3 and box (on square x square) at k = 1, 2."""

    name = "extk-ladder"
    tail_q = None  # eight decisions a pass: no percentile leaves ten samples beyond

    def build(self, cx, rng, small):
        sq = load_based(cx, "square")
        skew = load_based(cx, "square-skew")
        decisions = []
        for (pname, k), (member, source) in EXT_LADDER.items():
            based = sq if pname == "box" else skew
            x = load_point(cx, pname, sq.cone, based.cone)
            decisions.append(Decision(
                label=f"ext {pname} k={k}",
                call=lambda x=x, b=based, k=k: cx.hierarchy.ext_k_membership(x, sq.cone, b, k),
                verdict=lambda v: v.member, expected=member, source=source,
                check=self._checker(tuple(x.entries), sq.cone, based, k),
                key=(pname, k)))
        rng.shuffle(decisions)
        return decisions

    @staticmethod
    def _checker(x, cone_a, based, k):
        def check(v):
            if k == 1 and v.member != checks.in_max(x, cone_a.facets, based.cone.facets):
                return "Ext_1 verdict differs from membership in max"
            if v.member:
                return checks.check_extension(x, cone_a.facets, based.cone.facets,
                                              based.phi, k, v.extension.entries)
            return checks.check_separates(v.witness.entries, x)
        return check

    def pass_check(self, results):
        member = {d.key: out.member for d, _, _, out, err in results if err is None}
        bad = []
        for (pname, k), m in member.items():
            if m and member.get((pname, k - 1)) is False:
                bad.append(f"order law: {pname} in Ext_{k} but not in Ext_{k - 1}")
        return bad

    def headline(self, samples):
        return {
            "ext_k3_member_s": (median(_latencies(samples, ("gap-k3", 3))), "s",
                                "gap-k3 at k=3, median over passes"),
            "ext_k3_nonmember_s": (median(_latencies(samples, ("gap-k2", 3))), "s",
                                   "gap-k2 at k=3, median over passes"),
        }


# ---------------------------------------------------------------------------

K4_CONES = ("square", "square-skew", "triangle", "quad", "cube")


class EbCorpus(Workload):
    """Entanglement breaking on the ten corpus cones at k = 1..3 and on five
    of them at k = 4, the interior test at k = 1..4 on all ten, and the dual
    hierarchy search on box-interior."""

    name = "eb-corpus"

    def build(self, cx, rng, small):
        based = {n: load_based(cx, n) for n in EB_LEVELS}
        levels = [(n, k) for n in EB_LEVELS for k in ((1, 2) if small else (1, 2, 3))]
        levels += [(n, 4) for n in (K4_CONES[2:3] if small else K4_CONES)]
        decisions = []
        for n, k in levels:
            b = based[n]
            decisions.append(Decision(
                label=f"eb {n} k={k}",
                call=lambda b=b, k=k: cx.hierarchy.is_entanglement_breaking(b, k),
                verdict=lambda o: o.breaking, expected=eb_breaking(n, k),
                source="EB_LEVELS", check=self._eb_checker(b, k), key=("eb", k)))
        for n in EB_LEVELS:
            b = based[n]
            law = checks.min_avoided(b.cone.rays, b.cone.facets)
            for k in (1, 2, 3, 4):
                decisions.append(Decision(
                    label=f"omega {n} k={k}",
                    call=lambda b=b, k=k: cx.hierarchy.omega_interior_test(b, k),
                    verdict=bool, expected=k <= OMEGA_MAX_K[n], source="OMEGA_MAX_K",
                    check=lambda got, k=k, law=law: (
                        None if got == (law > k) else
                        "interior verdict differs from the vertex avoidance count"),
                    key=("omega", k)))
        sq = based["square"]
        x = load_point(cx, "box-interior", sq.cone, sq.cone)
        xe = tuple(x.entries)
        decisions.append(Decision(
            label="dual box-interior",
            call=lambda: cx.hierarchy.dual_hierarchy_k(x, sq.cone, sq),
            verdict=lambda r: r.k, expected=DUAL_LEVEL["box-interior"],
            source="fixture note",
            check=lambda r: checks.check_dual_hierarchy(
                xe, sq.cone.rays, sq.cone.rays, sq.phi, r.k, r.generators, r.weights),
            key=("dual",)))
        rng.shuffle(decisions)
        return decisions

    @staticmethod
    def _eb_checker(based, k):
        def check(o):
            if o.breaking:
                return checks.check_eb_terms(
                    based.phi, k, based.base.vertices, based.base.functionals,
                    [(t.facet_indices, t.vertex_index, t.weight) for t in o.terms])
            return checks.check_eb_refutation(based.phi, k, o.refutation)
        return check

    def headline(self, samples):
        per_pass = [sum(dt for d, dt in p if d.key == ("eb", 4)) for p in samples]
        return {"eb_k4_s": (median(per_pass), "s",
                            "summed k=4 breaking decisions, median over passes")}


# ---------------------------------------------------------------------------

QUERY_PAIRS = (("square", "square"), ("triangle", "square"), ("orthant2", "triangle"),
               ("pentagon", "square"), ("square", "quad"), ("prism", "square"),
               ("cube", "triangle"), ("square", "octahedron"))


def _rank(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class RandomQueries(Workload):
    """Many small problems: random make_cone builds in dimensions 3-5 and
    conic membership over min-product generators of eight fixture pairs,
    half of the queries members by construction."""

    name = "random-queries"
    tail_q = 99

    def build(self, cx, rng, small):
        names = dict.fromkeys(n for pair in QUERY_PAIRS for n in pair)
        based = {n: load_based(cx, n) for n in names}
        tables = []
        for a, b in QUERY_PAIRS:
            ca, cb = based[a].cone, based[b].cone
            gens = [tuple(g.entries) for g in cx.hierarchy.min_tensor_generators(ca, cb)]
            tables.append((f"{a}x{b}", ca, cb, gens))
        decisions = []
        for i in range(50 if small else 500):
            # pairs and dimensions rotate, so every seed has the same mix of sizes
            member = i % 2 == 0
            label, ca, cb, gens = tables[i // 2 % len(tables)]
            target = self._target(rng, ca, cb, gens, member)
            decisions.append(Decision(
                label=f"query {label} #{i}",
                call=lambda t=target, g=gens: cx.lp.conic_membership(t, g),
                verdict=lambda o: o.member, expected=member,
                source="by construction",
                check=lambda o, t=target, g=gens: checks.check_conic(
                    t, g, o.weights, o.separating),
                key=("query",)))
        for i in range(4 if small else 40):
            gens = self._generators(rng, 3 + i % 3)
            decisions.append(Decision(
                label=f"make_cone dim={len(gens[0])} #{i}",
                call=lambda g=gens: cx.cones.make_cone(g),
                verdict=lambda c: c.dim, expected=len(gens[0]),
                source="by construction: full-dimensional and pointed",
                check=lambda c, g=gens: checks.check_cone(g, c.rays, c.facets),
                key=("build",)))
        rng.shuffle(decisions)
        return decisions

    @staticmethod
    def _target(rng, ca, cb, gens, member):
        """A nonnegative combination of generators; for a non-member, one
        entry is then moved until a facet pair of the max product is
        negative on it, so it lies outside max and hence outside min."""
        twice = []  # weights a/b with a in 0..3, b in 1..2, doubled to integers
        for _ in gens:
            a = rng.randint(0, 3)
            twice.append(a * (2 // rng.randint(1, 2)))
        if not any(twice):
            twice[0] = 2
        used = [(w, g) for w, g in zip(twice, gens) if w]
        target = [Fraction(sum(w * int(g[j]) for w, g in used), 2)
                  for j in range(len(gens[0]))]
        if not member:
            f = rng.choice(ca.facets)
            g = rng.choice(cb.facets)
            nb = len(g)
            value = sum((f[a] * g[b] * target[a * nb + b]
                         for a in range(len(f)) for b in range(nb)), Fraction(0))
            a, b = rng.choice([(a, b) for a in range(len(f)) for b in range(nb)
                               if f[a] * g[b] != 0])
            target[a * nb + b] -= (value + rng.randint(1, 5)) / (f[a] * g[b])
        return tuple(target)

    @staticmethod
    def _generators(rng, dim):
        while True:
            gens = [(1,) + tuple(rng.randint(-3, 3) for _ in range(dim - 1))
                    for _ in range(dim + 3)]
            if _rank(gens) == dim:
                return gens


# ---------------------------------------------------------------------------

VERDICT_WORDS = {
    "min-check": ("MEMBER", "NON-MEMBER"),
    "ext-check": ("MEMBER", "NON-MEMBER"),
    "eb-check": ("BREAKING", "NOT-BREAKING"),
    "factor": ("FACTORABLE", "NOT-FACTORABLE"),
    "hull-check": ("COMMUTES", "VIOLATED"),
    "quantum-demo": ("ALL-PASS", "FAIL"),
}


def _report(stdout, json_lines):
    """(key, value) pairs of a CLI report, text or json-lines."""
    pairs = []
    for line in stdout.splitlines():
        if json_lines:
            (key, val), = json.loads(line).items()
        else:
            key, _, val = line.partition(": ")
        pairs.append((key, val))
    return pairs


def _vector(val):
    return tuple(Fraction(t) for t in (val if isinstance(val, list) else val.split()))


def _phi(cone_file):
    return checks.fractions(checks.read_fixture(cone_file)["phi"][0])


def _cli_check(argv):
    """Re-check one CLI report: the verdict line matches the exit code and
    every printed certificate holds."""
    cmd = argv[0]
    json_lines = "json-lines" in argv
    opts = dict(zip(argv[1::2], argv[2::2]))

    def check(out):
        rc, stdout = out
        if cmd == "dualize":
            rays = [checks.fractions(r) for r in checks.read_fixture(opts["--cone-a"])["ray"]]
            dual = [checks.fractions(line.split()[1:]) for line in stdout.splitlines()
                    if line.startswith("ray ")]
            if len(dual) < len(rays[0]):
                return "dual cone has too few rays"
            if any(checks.dot(f, r) < 0 for f in dual for r in rays):
                return "a dual ray is negative on a ray"
            return None
        rep = _report(stdout, json_lines)
        if _first(rep, "verdict") != VERDICT_WORDS[cmd][rc]:
            return f"verdict line {_first(rep, 'verdict')!r} does not match exit {rc}"
        if cmd in ("min-check", "ext-check") and rc == 1:
            key = "separating" if cmd == "min-check" else "witness"
            return checks.check_separates(_vector(_first(rep, key)),
                                          checks.point_entries(opts["--point"]))
        if cmd == "ext-check":
            x = checks.point_entries(opts["--point"])
            return checks.check_extension(x, (), (), _phi(opts["--cone-b"]),
                                          int(opts["--k"]), _vector(_first(rep, "extension")))
        if cmd == "eb-check" and rc == 1:
            return checks.check_eb_refutation(_phi(opts["--cone-b"]), int(opts["--k"]),
                                              _vector(_first(rep, "refutation")))
        if cmd == "eb-check":
            terms = [v for k, v in rep if k == "term"]
            weights = [Fraction(t["weight"] if json_lines else t.rsplit("=", 1)[1])
                       for t in terms]
            if len(terms) != int(_first(rep, "terms")) or any(w <= 0 for w in weights):
                return "breaking terms are missing or not positive"
        if cmd == "quantum-demo":
            claims = [v for k, v in rep if k == "claim"]
            ok = [c["verdict"] == "PASS" if json_lines else c.endswith(" PASS")
                  for c in claims]
            if len(claims) != 4 or not all(ok):
                return "an appendix claim did not pass"
        return None
    return check


def _cli_specs(small):
    """(argv, expected exit code, source) of one pass."""
    def cone(n):
        return fixture(n + ".cone")

    def poly(n):
        return fixture(n + ".poly")

    def point(n):
        return fixture(n + ".pt")

    def min_check(pt, b):
        member, source = MIN_MEMBER[pt]
        return (["min-check", "--cone-a", cone("square"), "--cone-b", cone(b),
                 "--point", point(pt)], 0 if member else 1, source)

    def ext_check(pt, k):
        member, source = EXT_LADDER[pt, k]
        b = "square" if pt == "box" else "square-skew"
        return (["ext-check", "--cone-a", cone("square"), "--cone-b", cone(b),
                 "--point", point(pt), "--k", str(k)], 0 if member else 1, source)

    def eb_check(c, k):
        return (["eb-check", "--cone-b", cone(c), "--k", str(k)],
                0 if eb_breaking(c, k) else 1, "EB_LEVELS")

    def on_polytope(cmd, p):
        return ([cmd, "--polytope", poly(p)], 0 if FACTORABLE[p] else 1, "FACTORABLE")

    def on_cone(cmd, c):
        return ([cmd, "--cone-b", cone(c)], 0 if EB_LEVELS[c] is not None else 1,
                "EB_LEVELS: a base breaks at some level iff it is a simplex product")

    def dualize(c):
        return (["dualize", "--cone-a", cone(c)], 0, "dualize always succeeds")

    quantum = (["quantum-demo"], 0, "appendix claims")
    json_lines = [min_check("gap-k3", "square-skew"), ext_check("gap-k3", 1),
                  eb_check("triangle", 2), on_polytope("factor", "triangle"),
                  on_cone("hull-check", "prism"), dualize("orthant3"), quantum]
    if small:
        text = [dualize("square"), min_check("box", "square"), ext_check("box", 2),
                eb_check("square", 2), on_polytope("factor", "pentagon"),
                on_cone("hull-check", "cube"), quantum]
        json_lines = json_lines[:2]
    else:
        text = [dualize("square"), dualize("cube"),
                min_check("gap-k2", "square-skew"), min_check("box", "square"),
                min_check("box-interior", "square"),
                ext_check("gap-k3", 2), ext_check("gap-k2", 1), ext_check("box", 1),
                ext_check("box", 2)]
        text += [eb_check(c, k) for c, k in (("square", 1), ("square", 2),
                                             ("square-skew", 3), ("cube", 3), ("prism", 2),
                                             ("quad", 3), ("octahedron", 2))]
        text += [on_polytope("factor", p) for p in ("cube", "pentagon", "prism")]
        text += [on_cone("factor", c) for c in ("square", "square-skew", "triangle")]
        text += [on_polytope("hull-check", p) for p in ("square", "octahedron", "quad")]
        text += [on_cone("hull-check", c) for c in ("cube", "pentagon")]
        text.append(quantum)
    for argv, _, _ in json_lines:
        argv += ["--report", "json-lines"]
    return text + json_lines


def run_cli(argv):
    proc = subprocess.run([sys.executable, "-m", "coneext.cli", *argv], cwd=ROOT,
                          env=cli_env(), capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def run_cli_inproc(cx, argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cx.cli.main(argv)
    return rc, out.getvalue()


class CliSuite(Workload):
    """Every subcommand on the shipped fixtures, one closed-loop subprocess
    call after another, in both report modes."""

    name = "cli-suite"
    reference = "interpreter"  # the work is in child processes, mostly start-up
    tail_q = 75     # 35 calls a pass: at two passes p75 leaves ten samples beyond it
    min_passes = 2

    def build(self, cx, rng, small):
        decisions = []
        for argv, code, source in _cli_specs(small):
            shown = " ".join(a if not a.startswith("/") else Path(a).name for a in argv)
            decisions.append(Decision(
                label=f"cli {shown}", call=lambda a=argv: run_cli(a),
                verdict=lambda out: out[0], expected=code, source=source,
                check=_cli_check(argv), key=(argv[0],),
                inproc=lambda a=argv: run_cli_inproc(cx, a)))
        rng.shuffle(decisions)
        return decisions


WORKLOADS = {w.name: w for w in (ExtkLadder(), EbCorpus(), RandomQueries(), CliSuite())}
