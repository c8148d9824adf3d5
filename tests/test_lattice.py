import pytest

from qdlab.lattice import (
    CYL_H,
    CYL_V,
    RECT,
    TORUS,
    Edge,
    GeometryError,
    Region,
    TorusLattice,
    classify_region,
    parse_region,
    rectangles_up_to,
    split_region,
)
from oracles import enumerate_family


def test_edge_counts():
    lat = TorusLattice(3)
    assert len(lat.edges()) == 2 * 9
    assert len(set(lat.edge_index(e) for e in lat.edges())) == 18


def test_star_degree_and_orientation():
    lat = TorusLattice(3)
    for v in lat.vertices():
        star = lat.edges_of_star(v)
        assert len(star) == 4
    # the left-pointing horizontal edge with head (0,0) points away from (1,0), toward (0,0)
    lat2 = TorusLattice(2)
    star_00 = dict(lat2.edges_of_star((0, 0)))
    star_10 = dict(lat2.edges_of_star((1, 0)))
    e = Edge("h", 0, 0)
    assert star_00[e] is False
    assert star_10[e] is True


def test_each_edge_in_two_stars_and_two_plaquettes():
    lat = TorusLattice(3)
    star_count = {e: 0 for e in lat.edges()}
    plaq_count = {e: 0 for e in lat.edges()}
    for v in lat.vertices():
        for e, _ in lat.edges_of_star(v):
            star_count[e] += 1
    for p in lat.plaquettes():
        for e, _ in lat.edges_of_plaquette(p):
            plaq_count[e] += 1
    assert all(c == 2 for c in star_count.values())
    assert all(c == 2 for c in plaq_count.values())


def test_plaquette_signs():
    lat = TorusLattice(4)
    signs = [s for _, s in lat.edges_of_plaquette((1, 2))]
    assert signs == [1, 1, -1, -1]


def test_classify_single_plaquette():
    lat = TorusLattice(4)
    r = Region(lat, RECT, x0=0, a=1, y0=0, b=1)
    c = classify_region(r)
    assert len(c.edges) == 4
    assert len(c.interior_edges) == 0
    assert len(c.interior_vertices) == 0
    assert c.n_plaquettes == 1


def test_classify_2x2():
    lat = TorusLattice(4)
    r = Region(lat, RECT, x0=1, a=2, y0=1, b=2)
    c = classify_region(r)
    assert len(c.edges) == 12
    assert len(c.boundary_edges) == 8
    assert len(c.interior_edges) == 4
    assert len(c.interior_vertices) == 1
    assert c.n_plaquettes == 4


def test_classify_torus():
    lat = TorusLattice(3)
    r = Region(lat, TORUS)
    c = classify_region(r)
    assert len(c.boundary_edges) == 0
    assert len(c.interior_edges) == 2 * 9


def test_family_counts():
    lat = TorusLattice(4)
    assert len(enumerate_family(lat, "torus")) == 1
    rects = enumerate_family(lat, "rectangles", r=2)
    assert len(rects) == 16
    cyls = enumerate_family(lat, "cylinders")
    assert any(r.kind == CYL_H for r in cyls) and any(r.kind == CYL_V for r in cyls)
    with pytest.raises(GeometryError):
        enumerate_family(lat, "rectangles", r=1)


def test_rectangles_up_to_allows_single_plaquettes():
    lat = TorusLattice(2)
    fam = rectangles_up_to(lat, 2)
    assert all(r.a == 1 and r.b == 1 for r in fam)
    assert len(fam) == 4


def test_split_abc_cols():
    lat = TorusLattice(5)
    r = Region(lat, RECT, x0=0, a=3, y0=0, b=1)
    s = split_region(r, "ABC-cols", at=1, ell=1)
    assert s.r1.a == 2 and s.r2.a == 2
    (b_part,) = s.overlaps
    assert b_part.a == 1
    assert set(s.r1.plaquettes()) | set(s.r2.plaquettes()) == set(r.plaquettes())
    assert set(s.r1.plaquettes()) & set(s.r2.plaquettes()) == set(b_part.plaquettes())


def test_degenerate_split_rejected():
    lat = TorusLattice(5)
    r = Region(lat, RECT, x0=0, a=3, y0=0, b=1)
    with pytest.raises(GeometryError):
        split_region(r, "ABC-cols", at=0, ell=3)
    with pytest.raises(GeometryError, match="unknown split pattern"):
        split_region(Region(lat, TORUS), "ABCB-torus", at=0, ell=2)


def test_parse_region():
    lat = TorusLattice(4)
    assert parse_region(lat, "torus").kind == TORUS
    r = parse_region(lat, "rect:1,2,2,1")
    assert (r.x0, r.y0, r.a, r.b) == (1, 2, 2, 1)
    assert parse_region(lat, "cyl:h,0,2").kind == CYL_H
    assert parse_region(lat, "cyl:v,1,2").kind == CYL_V
    with pytest.raises(GeometryError):
        parse_region(lat, "blob:1")
