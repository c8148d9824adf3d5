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

    def n_plaquettes(self) -> int:
        return self.a * self.b

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


def enumerate_family(lattice: TorusLattice, kind: str, r: int | None = None) -> list[Region]:
    """The region families: the torus, all cylinders, or rectangles with sides in [2, r]."""
    N = lattice.N
    if kind == "torus":
        return [Region(lattice, TORUS)]
    if kind == "cylinders":
        out = []
        for start in range(N):
            for width in range(2, N):
                out.append(Region(lattice, CYL_H, y0=start, b=width))
                out.append(Region(lattice, CYL_V, x0=start, a=width))
        return out
    if kind == "rectangles":
        if r is None or r < 2:
            raise GeometryError("rectangle family needs a max side r >= 2")
        r = min(r, N - 1)
        out = []
        for y0 in range(N):
            for x0 in range(N):
                for a in range(2, r + 1):
                    for b in range(2, r + 1):
                        out.append(Region(lattice, RECT, x0=x0, a=a, y0=y0, b=b))
        return out
    raise GeometryError(f"unknown family kind {kind!r}")


def rectangles_up_to(lattice: TorusLattice, n: int, min_side: int = 1) -> list[Region]:
    """Proper rectangles with min_side <= a, b <= n; the parent-Hamiltonian interaction family."""
    N = lattice.N
    hi = min(n, N - 1)
    out = []
    for y0 in range(N):
        for x0 in range(N):
            for a in range(min_side, hi + 1):
                for b in range(min_side, hi + 1):
                    out.append(Region(lattice, RECT, x0=x0, a=a, y0=y0, b=b))
    return out


@dataclass(frozen=True)
class RegionSplit:
    whole: Region
    r1: Region
    r2: Region
    parts: dict = field(hash=False)
    overlaps: tuple[Region, ...] = ()
    ell: int = 0


def split_region(region: Region, pattern: str, at: int, ell: int, at2: int | None = None) -> RegionSplit:
    """Split a region into overlapping halves per the martingale patterns.

    * ABC-cols / ABC-rows on a proper rectangle: A spans [0, at), B = [at, at+ell),
      C the rest (offsets along the split axis); returns r1=AB, r2=BC, overlap B.
    * ABCB'-cylinder / ABCB'-torus: two overlap bands B at [at, at+ell) and
      B' at [at2, at2+ell) along the wrap axis; returns r1=B'AB, r2=BCB'.
    """
    lat = region.lattice
    N = lat.N

    if pattern in ("ABC-cols", "ABC-rows"):
        if region.kind != RECT:
            raise GeometryError("ABC splits require a proper rectangle")
        along_x = pattern == "ABC-cols"
        width = region.a if along_x else region.b
        if not (1 <= at and ell >= 1 and at + ell < width):
            raise GeometryError(
                f"infeasible ABC split: need 1 <= at, at+ell < {width}, got at={at} ell={ell}"
            )

        def band(offset, length):
            if along_x:
                return Region(lat, RECT, x0=(region.x0 + offset) % N, a=length, y0=region.y0, b=region.b)
            return Region(lat, RECT, x0=region.x0, a=region.a, y0=(region.y0 + offset) % N, b=length)

        a_part, b_part, c_part = band(0, at), band(at, ell), band(at + ell, width - at - ell)
        r1, r2 = band(0, at + ell), band(at, width - at)
        return RegionSplit(region, r1, r2, {"A": a_part, "B": b_part, "C": c_part}, (b_part,), ell)

    if pattern in ("ABCB-cylinder", "ABCB-torus"):
        if pattern == "ABCB-torus" and region.kind != TORUS:
            raise GeometryError("ABCB'-torus split requires the torus region")
        if pattern == "ABCB-cylinder" and region.kind not in (CYL_H, CYL_V):
            raise GeometryError("ABCB'-cylinder split requires a cylinder region")
        if at2 is None:
            raise GeometryError("ABCB' splits need both band positions (at, at2)")
        # split along the wrap axis: horizontal wrap for CYL_H and for the torus
        along_x = region.kind in (CYL_H, TORUS)
        width = N
        b0, b1 = at % N, at2 % N
        gap1 = (b1 - (b0 + ell)) % N  # width of C
        gap2 = (b0 - (b1 + ell)) % N  # width of A
        if ell < 1 or gap1 < 1 or gap2 < 1:
            raise GeometryError("infeasible ABCB' split: bands must leave room for A and C")

        def band(x_off, length, proper_kind):
            if along_x:
                return Region(lat, proper_kind, x0=x_off % N, a=length,
                              y0=region.y0, b=region.b if region.kind != TORUS else N)
            return Region(lat, proper_kind, x0=region.x0, a=region.a if region.kind != TORUS else N,
                          y0=x_off % N, b=length)

        sub_kind = RECT if region.kind != TORUS else (CYL_V if along_x else CYL_H)
        bpart = band(b0, ell, sub_kind)
        bprime = band(b1, ell, sub_kind)
        a_part = band(b1 + ell, gap2, sub_kind)
        c_part = band(b0 + ell, gap1, sub_kind)
        r1 = band(b1, ell + gap2 + ell, sub_kind)        # B' A B
        r2 = band(b0, ell + gap1 + ell, sub_kind)        # B C B'
        return RegionSplit(region, r1, r2,
                           {"A": a_part, "B": bpart, "C": c_part, "B'": bprime},
                           (bpart, bprime), ell)

    raise GeometryError(f"unknown split pattern {pattern!r}")


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
