"""Line-oriented plain-text file formats for cones, polytopes, and points.

Three kinds of file, all using "p/q" rationals, '#' comments, and blank
lines, and one grammar: a header line ``KIND NAME``, a size line of
positive integers, then one ``WORD q q q`` line per vector, each vector as
long as the last size.  ``_read`` reads that grammar and ``_write`` writes
it, refusing with ValueError what a parser would refuse, so every
serialized file parses back; each ``parse_*`` adds only its own kind's
rule.  A parse error names the offending line, and an error found at the
end of the file names its last line.  Serialization is canonical: parsing
a serialized object and serializing it again reproduces the bytes exactly.

cone file:            polytope file:        point file:
    cone NAME             polytope NAME         point NAME
    dim N                 ambient N             dims NA NB
    ray q q q             vertex q q q          row q q q
    ...                   ...                   ...  (NA rows of NB)
    phi q q q  (optional)
"""

from __future__ import annotations

import re

from .scalars import format_rational, parse_rational

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


class ParseError(ValueError):
    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _last_line(text):
    return max(1, len(text.splitlines()))


def _logical_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


def _read(text, kind, field, count, words):
    """-> (name, size, [(lineno, word, vector)]) of a file whose header is
    ``kind NAME``, whose size line is ``field`` with ``count`` positive
    integers (``size`` is the one integer, or the tuple of them), and whose
    other lines each hold a word of ``words`` and a vector as long as the
    last size."""
    lines = _logical_lines(text)

    def take(missing):
        lineno, body = next(lines, (_last_line(text), None))
        if body is None:
            raise ParseError(missing, lineno)
        return lineno, body.split()

    lineno, parts = take(f"empty file, expected '{kind} NAME'")
    if len(parts) != 2 or parts[0] != kind:
        raise ParseError(f"expected '{kind} NAME'", lineno)
    if not _NAME_RE.match(parts[1]):
        raise ParseError(f"bad name {parts[1]!r}", lineno)
    name = parts[1]
    lineno, parts = take(f"expected '{field}'")
    if len(parts) != 1 + count or parts[0] != field:
        raise ParseError(f"expected '{field}' with {count} integer(s)", lineno)
    for p in parts[1:]:
        if not (p.isascii() and p.isdigit()) or int(p) < 1:
            raise ParseError(f"bad positive integer {p!r}", lineno)
    size = tuple(int(p) for p in parts[1:])
    vectors = []
    for lineno, body in lines:
        word, *tokens = body.split()
        if word not in words:
            raise ParseError(f"unexpected keyword {word!r}", lineno)
        v = []
        for t in tokens:
            try:
                v.append(parse_rational(t))
            except ValueError:
                raise ParseError(f"bad rational {t!r}", lineno)
        if len(v) != size[-1]:
            raise ParseError(f"{word} has {len(v)} entries, expected {size[-1]}", lineno)
        vectors.append((lineno, word, tuple(v)))
    return name, size[0] if count == 1 else size, vectors


def _write(kind, name, field, word, vectors, lead=(), more=()):
    """Canonical text of a file: the header, the size line of ``lead`` and
    then the vectors' length, one ``word`` line per vector of ``vectors``,
    then the ``(word, vector)`` lines of ``more``.  ValueError on what a
    ``parse_*`` would refuse, so that every file written parses back: a bad
    name, no vectors, a size below 1, or lines of unequal length."""
    if not _NAME_RE.fullmatch(name):
        raise ValueError(f"bad name {name!r}")
    if not vectors:
        raise ValueError(f"{kind} file has no {word} lines")
    lines = [*((word, v) for v in vectors), *more]
    sizes = (*lead, len(vectors[0]))
    if min(sizes) < 1:
        raise ValueError(f"{field} must be positive")
    if any(len(v) != sizes[-1] for _, v in lines):
        raise ValueError(f"{kind} file lines of unequal length")
    out = [f"{kind} {name}", f"{field} " + " ".join(map(str, sizes))]
    out += [w + " " + " ".join(format_rational(x) for x in v) for w, v in lines]
    return "\n".join(out) + "\n"


def parse_cone_file(text):
    """-> (name, dim, generators, phi-or-None).  Geometry is not validated
    here; building the cone is the caller's job."""
    name, dim, lines = _read(text, "cone", "dim", 1, ("ray", "phi"))
    gens = []
    phi = None
    for lineno, word, v in lines:
        if phi is not None:
            raise ParseError("ray after phi" if word == "ray" else "duplicate phi", lineno)
        if word == "ray":
            gens.append(v)
        else:
            phi = v
    if not gens:
        raise ParseError("cone file has no rays", _last_line(text))
    return name, dim, tuple(gens), phi


def serialize_cone_file(name, rays, phi=None):
    return _write("cone", name, "dim", "ray", rays,
                  more=() if phi is None else (("phi", phi),))


def parse_polytope_file(text):
    name, ambient, lines = _read(text, "polytope", "ambient", 1, ("vertex",))
    if not lines:
        raise ParseError("polytope file has no vertices", _last_line(text))
    return name, ambient, tuple(v for _, _, v in lines)


def serialize_polytope_file(name, vertices):
    return _write("polytope", name, "ambient", "vertex", vertices)


def parse_point_file(text):
    """-> (name, (dim_a, dim_b), row-major entries)."""
    name, (na, nb), lines = _read(text, "point", "dims", 2, ("row",))
    if len(lines) != na:
        # a surplus row is named by its own line, a missing one at the end
        raise ParseError(f"point has {len(lines)} rows, expected {na}",
                         lines[na][0] if len(lines) > na else _last_line(text))
    return name, (na, nb), tuple(x for _, _, row in lines for x in row)


def serialize_point_file(name, dims, entries):
    na, nb = dims
    if len(entries) != na * nb:
        raise ValueError("entry count does not match dims")
    return _write("point", name, "dims", "row",
                  [entries[i * nb:(i + 1) * nb] for i in range(na)], lead=(na,))
