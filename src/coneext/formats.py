"""Line-oriented plain-text file formats for cones, polytopes, and points.

Three kinds of file, all using "p/q" rationals, '#' comments, and blank
lines.  Serialization is canonical: parsing a serialized object and
serializing it again reproduces the bytes exactly.

cone file:            polytope file:        point file:
    cone NAME             polytope NAME         point NAME
    dim N                 ambient N             dims NA NB
    ray q q q             vertex q q q          row q q q
    ...                   ...                   ...  (NA rows of NB)
    phi q q q  (optional)
"""

from __future__ import annotations

import re

from .scalars import Rational, format_rational, parse_rational

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


class ParseError(ValueError):
    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _logical_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


def _parse_vector(tokens, lineno):
    out = []
    for t in tokens:
        try:
            out.append(parse_rational(t))
        except ValueError:
            raise ParseError(f"bad rational {t!r}", lineno)
    return tuple(out)


def _take_header(lines, keyword):
    try:
        lineno, body = next(lines)
    except StopIteration:
        raise ParseError(f"empty file, expected '{keyword} NAME'", 1)
    parts = body.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise ParseError(f"expected '{keyword} NAME'", lineno)
    if not _NAME_RE.match(parts[1]):
        raise ParseError(f"bad name {parts[1]!r}", lineno)
    return parts[1]


def _take_int_field(lines, keyword, count=1):
    try:
        lineno, body = next(lines)
    except StopIteration:
        raise ParseError(f"expected '{keyword}'", 1)
    parts = body.split()
    if len(parts) != 1 + count or parts[0] != keyword:
        raise ParseError(f"expected '{keyword}' with {count} integer(s)", lineno)
    vals = []
    for p in parts[1:]:
        if not (p.isascii() and p.isdigit()) or int(p) < 1:
            raise ParseError(f"bad positive integer {p!r}", lineno)
        vals.append(int(p))
    return vals[0] if count == 1 else tuple(vals)


def parse_cone_file(text):
    """-> (name, dim, generators, phi-or-None).  Geometry is not validated
    here; building the cone is the caller's job."""
    lines = _logical_lines(text)
    name = _take_header(lines, "cone")
    dim = _take_int_field(lines, "dim")
    gens = []
    phi = None
    for lineno, body in lines:
        parts = body.split()
        if parts[0] == "ray":
            if phi is not None:
                raise ParseError("ray after phi", lineno)
            v = _parse_vector(parts[1:], lineno)
            if len(v) != dim:
                raise ParseError(f"ray has {len(v)} entries, expected {dim}", lineno)
            gens.append(v)
        elif parts[0] == "phi":
            if phi is not None:
                raise ParseError("duplicate phi", lineno)
            phi = _parse_vector(parts[1:], lineno)
            if len(phi) != dim:
                raise ParseError(f"phi has {len(phi)} entries, expected {dim}", lineno)
        else:
            raise ParseError(f"unexpected keyword {parts[0]!r}", lineno)
    if not gens:
        raise ParseError("cone file has no rays", 1)
    return name, dim, tuple(gens), phi


def serialize_cone_file(name, rays, phi=None):
    out = [f"cone {name}", f"dim {len(rays[0])}"]
    for r in rays:
        out.append("ray " + " ".join(format_rational(x) for x in r))
    if phi is not None:
        out.append("phi " + " ".join(format_rational(x) for x in phi))
    return "\n".join(out) + "\n"


def parse_polytope_file(text):
    lines = _logical_lines(text)
    name = _take_header(lines, "polytope")
    ambient = _take_int_field(lines, "ambient")
    verts = []
    for lineno, body in lines:
        parts = body.split()
        if parts[0] != "vertex":
            raise ParseError(f"unexpected keyword {parts[0]!r}", lineno)
        v = _parse_vector(parts[1:], lineno)
        if len(v) != ambient:
            raise ParseError(f"vertex has {len(v)} entries, expected {ambient}", lineno)
        verts.append(v)
    if not verts:
        raise ParseError("polytope file has no vertices", 1)
    return name, ambient, tuple(verts)


def serialize_polytope_file(name, vertices):
    out = [f"polytope {name}", f"ambient {len(vertices[0])}"]
    for v in vertices:
        out.append("vertex " + " ".join(format_rational(x) for x in v))
    return "\n".join(out) + "\n"


def parse_point_file(text):
    """-> (name, (dim_a, dim_b), row-major entries)."""
    lines = _logical_lines(text)
    name = _take_header(lines, "point")
    na, nb = _take_int_field(lines, "dims", count=2)
    rows = []
    for lineno, body in lines:
        parts = body.split()
        if parts[0] != "row":
            raise ParseError(f"unexpected keyword {parts[0]!r}", lineno)
        v = _parse_vector(parts[1:], lineno)
        if len(v) != nb:
            raise ParseError(f"row has {len(v)} entries, expected {nb}", lineno)
        rows.append(v)
    if len(rows) != na:
        raise ParseError(f"point has {len(rows)} rows, expected {na}", 1)
    entries = tuple(x for row in rows for x in row)
    return name, (na, nb), entries


def serialize_point_file(name, dims, entries):
    na, nb = dims
    if len(entries) != na * nb:
        raise ValueError("entry count does not match dims")
    out = [f"point {name}", f"dims {na} {nb}"]
    for i in range(na):
        row = entries[i * nb:(i + 1) * nb]
        out.append("row " + " ".join(format_rational(x) for x in row))
    return "\n".join(out) + "\n"
