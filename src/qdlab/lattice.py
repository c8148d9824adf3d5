"""Torus geometry: edges, stars, plaquettes, regions and their splits.

Conventions (fixed once, used by every module downstream):

* Vertices and plaquettes live on Z_N x Z_N.  Plaquette (x, y) has corners
  (x, y) .. (x+1, y+1).
* Horizontal edges point left, vertical edges point down.  An edge is keyed by
  its arrow head: h(x, y) joins (x, y)-(x+1, y) with head at (x, y); v(x, y)
  joins (x, y)-(x, y+1) with head at (x, y).
* Global edge order: all horizontals row-major, then all verticals row-major.
* Plaquette (x, y) edges in counterclockwise order from the top horizontal:
  h(x, y+1), v(x, y), h(x, y), v(x+1, y) with signs (+, +, -, -).
"""

from __future__ import annotations

from dataclasses import dataclass, field

HORIZONTAL = "h"
VERTICAL = "v"


class GeometryError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Edge:
    orientation: str
    x: int
    y: int

    def __repr__(self):
        return f"{self.orientation}({self.x},{self.y})"


@dataclass(frozen=True)
class TorusLattice:
    N: int

    def __post_init__(self):
        if self.N < 2:
            raise GeometryError("torus side must be >= 2")

    # -- enumeration --------------------------------------------------------

    def edges(self) -> list[Edge]:
        N = self.N
        horiz = [Edge(HORIZONTAL, x, y) for y in range(N) for x in range(N)]
        vert = [Edge(VERTICAL, x, y) for y in range(N) for x in range(N)]
        return horiz + vert

    def edge_index(self, e: Edge) -> int:
        base = 0 if e.orientation == HORIZONTAL else self.N * self.N
        return base + (e.y % self.N) * self.N + (e.x % self.N)

    def vertices(self) -> list[tuple[int, int]]:
        return [(x, y) for y in range(self.N) for x in range(self.N)]

    def plaquettes(self) -> list[tuple[int, int]]:
        return [(x, y) for y in range(self.N) for x in range(self.N)]

    def norm_edge(self, orientation: str, x: int, y: int) -> Edge:
        return Edge(orientation, x % self.N, y % self.N)

    # -- incidence ----------------------------------------------------------

    def edges_of_star(self, v: tuple[int, int]) -> list[tuple[Edge, bool]]:
        """Four incident edges of a vertex in cyclic order (N, W, S, E).

        The flag is True when the edge points away from v (left-multiplication
        side of the local translation operator), False when it points to v.
        """
        x, y = v
        return [
            (self.norm_edge(VERTICAL, x, y), False),      # upward edge, head at v
            (self.norm_edge(HORIZONTAL, x - 1, y), True),  # west edge, head away
            (self.norm_edge(VERTICAL, x, y - 1), True),    # downward edge, head away
            (self.norm_edge(HORIZONTAL, x, y), False),     # east edge, head at v
        ]

    def edges_of_plaquette(self, p: tuple[int, int]) -> list[tuple[Edge, int]]:
        """Counterclockwise edges from the top horizontal, with character signs."""
        x, y = p
        return [
            (self.norm_edge(HORIZONTAL, x, y + 1), +1),
            (self.norm_edge(VERTICAL, x, y), +1),
            (self.norm_edge(HORIZONTAL, x, y), -1),
            (self.norm_edge(VERTICAL, x + 1, y), -1),
        ]

    def plaquettes_of_edge(self, e: Edge) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two adjacent plaquettes.  Horizontal: (north, south); vertical: (west, east)."""
        N = self.N
        if e.orientation == HORIZONTAL:
            return ((e.x, e.y), (e.x, (e.y - 1) % N))
        return (((e.x - 1) % N, e.y), (e.x, e.y))

    def vertices_of_edge(self, e: Edge) -> tuple[tuple[int, int], tuple[int, int]]:
        """Endpoints as (away-vertex, toward-vertex) for the fixed orientation."""
        N = self.N
        if e.orientation == HORIZONTAL:
            return (((e.x + 1) % N, e.y), (e.x, e.y))
        return ((e.x, (e.y + 1) % N), (e.x, e.y))


# -- regions ---------------------------------------------------------------

RECT = "proper-rectangle"
CYL_H = "cylinder-horizontal"
CYL_V = "cylinder-vertical"
TORUS = "torus"


@dataclass(frozen=True)
class Region:
    """A rectangular region given by plaquette intervals (start, length) on S_N.

    `kind` is redundant with the interval lengths but kept explicit so that
    wrap-around is never ambiguous.
    """

    lattice: TorusLattice
    kind: str
    x0: int = 0
    a: int = 0  # plaquettes per row (horizontal extent)
    y0: int = 0
    b: int = 0  # plaquettes per column (vertical extent)

    def __post_init__(self):
        N = self.lattice.N
        wraps_x = self.kind in (CYL_H, TORUS)
        wraps_y = self.kind in (CYL_V, TORUS)
        a = N if wraps_x else self.a
        b = N if wraps_y else self.b
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not wraps_x and not 1 <= self.a < N:
            raise GeometryError(f"proper horizontal extent must be in [1,{N-1}], got {self.a}")
        if not wraps_y and not 1 <= self.b < N:
            raise GeometryError(f"proper vertical extent must be in [1,{N-1}], got {self.b}")

    def plaquettes(self) -> list[tuple[int, int]]:
        N = self.lattice.N
        return [((self.x0 + i) % N, (self.y0 + j) % N) for j in range(self.b) for i in range(self.a)]

    def edges(self) -> list[Edge]:
        seen: dict[Edge, None] = {}
        for p in self.plaquettes():
            for e, _ in self.lattice.edges_of_plaquette(p):
                seen.setdefault(e)
        return sorted(seen, key=self.lattice.edge_index)

    def describe(self) -> str:
        if self.kind == TORUS:
            return "torus"
        if self.kind == CYL_H:
            return f"cyl:h,{self.y0},{self.b}"
        if self.kind == CYL_V:
            return f"cyl:v,{self.x0},{self.a}"
        return f"rect:{self.x0},{self.y0},{self.a},{self.b}"


@dataclass(frozen=True)
class RegionClassification:
    edges: tuple[Edge, ...]
    boundary_edges: tuple[Edge, ...]
    interior_edges: tuple[Edge, ...]
    vertices: tuple[tuple[int, int], ...]
    boundary_vertices: tuple[tuple[int, int], ...]
    interior_vertices: tuple[tuple[int, int], ...]
    n_plaquettes: int
    vertex_multiplicity: dict = field(hash=False, repr=False, default=None)
    # boundary edge -> True when its reduced label is gamma = g^{-1}: the
    # north/west plaquette is inside, so the dangling pair is on the south/east
    gamma_inverted: dict = field(hash=False, repr=False, default=None)


def classify_region(region: Region) -> RegionClassification:
    """Split the region's edges/vertices by how many adjacent plaquettes/edges lie inside."""
    lat = region.lattice
    plaqs = set(region.plaquettes())
    edges = region.edges()

    edge_mult = {e: sum(p in plaqs for p in lat.plaquettes_of_edge(e)) for e in edges}
    boundary_edges = [e for e in edges if edge_mult[e] < 2]
    interior_edges = [e for e in edges if edge_mult[e] == 2]

    vertex_mult: dict[tuple[int, int], int] = {}
    for e in edges:
        for v in lat.vertices_of_edge(e):
            vertex_mult[v] = vertex_mult.get(v, 0) + 1
    vertices = sorted(vertex_mult)
    boundary_vertices = [v for v in vertices if vertex_mult[v] < 4]
    interior_vertices = [v for v in vertices if vertex_mult[v] == 4]

    return RegionClassification(
        edges=tuple(edges),
        boundary_edges=tuple(boundary_edges),
        interior_edges=tuple(interior_edges),
        vertices=tuple(vertices),
        boundary_vertices=tuple(boundary_vertices),
        interior_vertices=tuple(interior_vertices),
        n_plaquettes=len(plaqs),
        vertex_multiplicity=vertex_mult,
        gamma_inverted={e: lat.plaquettes_of_edge(e)[0] in plaqs for e in boundary_edges},
    )


def rectangles_up_to(lattice: TorusLattice, n: int) -> list[Region]:
    """Proper rectangles with 1 <= a, b <= n; the parent-Hamiltonian interaction family."""
    N = lattice.N
    hi = min(n, N - 1)
    out = []
    for y0 in range(N):
        for x0 in range(N):
            for a in range(1, hi + 1):
                for b in range(1, hi + 1):
                    out.append(Region(lattice, RECT, x0=x0, a=a, y0=y0, b=b))
    return out


@dataclass(frozen=True)
class RegionSplit:
    whole: Region
    r1: Region
    r2: Region
    overlaps: tuple[Region, ...]


def split_region(region: Region, pattern: str, at: int, ell: int) -> RegionSplit:
    """Split a proper rectangle into overlapping halves, ABC-cols or ABC-rows.

    A spans [0, at), B = [at, at+ell) and C the rest, as offsets along the split
    axis (x for ABC-cols, y for ABC-rows); returns r1=AB, r2=BC, overlap B.
    """
    if pattern not in ("ABC-cols", "ABC-rows"):
        raise GeometryError(f"unknown split pattern {pattern!r}")
    if region.kind != RECT:
        raise GeometryError("ABC splits require a proper rectangle")
    lat = region.lattice
    N = lat.N
    along_x = pattern == "ABC-cols"
    width = region.a if along_x else region.b
    if not (1 <= at and ell >= 1 and at + ell < width):
        raise GeometryError(f"infeasible ABC split: need 1 <= at, at+ell < {width}, got at={at} ell={ell}")

    def band(offset, length):
        if along_x:
            return Region(lat, RECT, x0=(region.x0 + offset) % N, a=length, y0=region.y0, b=region.b)
        return Region(lat, RECT, x0=region.x0, a=region.a, y0=(region.y0 + offset) % N, b=length)

    return RegionSplit(region, band(0, at + ell), band(at, width - at), (band(at, ell),))


def parse_region(lattice: TorusLattice, spec: str) -> Region:
    """Parse CLI region specs: 'rect:x0,y0,a,b', 'cyl:h,y0,b', 'cyl:v,x0,a', 'torus'."""
    spec = spec.strip()
    if spec == "torus":
        return Region(lattice, TORUS)
    try:
        head, rest = spec.split(":", 1)
        nums = rest.split(",")
        if head == "rect":
            x0, y0, a, b = (int(t) for t in nums)
            return Region(lattice, RECT, x0=x0, a=a, y0=y0, b=b)
        if head == "cyl":
            axis, start, width = nums[0], int(nums[1]), int(nums[2])
            if axis == "h":
                return Region(lattice, CYL_H, y0=start, b=width)
            if axis == "v":
                return Region(lattice, CYL_V, x0=start, a=width)
    except (ValueError, IndexError) as exc:
        raise GeometryError(f"cannot parse region spec {spec!r}: {exc}") from exc
    raise GeometryError(f"cannot parse region spec {spec!r}")
