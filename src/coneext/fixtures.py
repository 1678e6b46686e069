"""Built-in example cones, polytopes and points, read from the shipped files.

The files under ``coneext/fixtures/`` are the single source of the corpus:
``NAME.cone`` and ``NAME.poly`` are edited directly in the canonical text
formats; only the point files ``*.pt`` are generated, from the square and
square-skew cone files, by tools/make_fixtures.py in the source tree.
"""

from __future__ import annotations

from importlib import resources

from .cones import make_based, make_cone
from .formats import parse_cone_file, parse_point_file, parse_polytope_file
from .hierarchy import point_tensor
from .polytopes import polytope_from_vertices


def fixture_dir():
    return resources.files("coneext").joinpath("fixtures")


def fixture_path(filename):
    p = fixture_dir().joinpath(filename)
    if not p.is_file():
        raise FileNotFoundError(filename)
    return str(p)


def fixture_text(filename):
    return fixture_dir().joinpath(filename).read_text()


def list_fixtures():
    return sorted(p.name for p in fixture_dir().iterdir() if p.is_file())


def _stems(suffix):
    return tuple(fn[:-len(suffix)] for fn in list_fixtures() if fn.endswith(suffix))


def cone_names():
    """One name per shipped ``.cone`` file, sorted."""
    return _stems(".cone")


def polytope_names():
    """One name per shipped ``.poly`` file, sorted."""
    return _stems(".poly")


def _cone_file(name):
    _, _, rays, phi = parse_cone_file(fixture_text(f"{name}.cone"))
    return rays, phi


def cone(name):
    return make_cone(_cone_file(name)[0])


def based_cone(name):
    """The cone of ``name``.cone based at the file's phi."""
    rays, phi = _cone_file(name)
    return make_based(make_cone(rays), phi)


def polytope(name):
    _, _, vertices = parse_polytope_file(fixture_text(f"{name}.poly"))
    return polytope_from_vertices(vertices)


def point(name, a_cone, b_cone):
    """The point of ``name``.pt as a V_A ox V_B tensor; ValueError unless
    the file's dims are (a_cone.dim, b_cone.dim)."""
    _, dims, entries = parse_point_file(fixture_text(f"{name}.pt"))
    if dims != (a_cone.dim, b_cone.dim):
        raise ValueError(f"point {name} has dims {dims}, "
                         f"not {(a_cone.dim, b_cone.dim)}")
    return point_tensor(a_cone, b_cone, entries)


# which polytopes factor into simplices (products of simplices)
FACTORABLE = ("triangle", "square", "cube", "prism")
UNFACTORABLE = ("pentagon", "quad", "octahedron")

# smallest k at which the reduction map breaks entanglement; None = never
EB_LEVELS = {
    "triangle": 1,
    "orthant2": 1,
    "orthant3": 1,
    "square": 2,
    "square-skew": None,
    "prism": 2,
    "cube": 3,
    "pentagon": None,
    "octahedron": None,
    "quad": None,
}
