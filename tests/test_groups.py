import numpy as np
import pytest

from qdlab.groups import (
    FiniteGroup,
    GroupError,
    group_by_name,
    group_from_file,
    make_cyclic,
    make_symmetric,
)


def test_trivial_group():
    g = make_cyclic(1)
    assert g.order == 1
    assert g.mul.tolist() == [[0]]


def test_z2_z3_arithmetic():
    z2 = make_cyclic(2)
    assert z2.mul[1, 1] == 0
    z3 = make_cyclic(3)
    assert z3.inv[1] == 2


def test_zero_order_rejected():
    with pytest.raises(GroupError):
        make_cyclic(0)


def test_s2_is_z2():
    s2 = make_symmetric(2)
    assert s2.order == 2
    assert np.array_equal(s2.mul, make_cyclic(2).mul)


def test_s3_nonabelian_with_three_classes():
    s3 = make_symmetric(3)
    assert s3.order == 6
    assert not s3.is_abelian()
    found = any(
        s3.mul[a, b] != s3.mul[b, a] for a in s3.elements() for b in s3.elements()
    )
    assert found
    assert len(s3.conjugacy_classes()) == 3


def test_z3_abelian_with_three_classes():
    z3 = make_cyclic(3)
    assert z3.is_abelian()
    assert len(z3.conjugacy_classes()) == 3


def test_symmetric_too_large():
    with pytest.raises(GroupError):
        make_symmetric(6)


def test_left_regular_is_representation():
    s3 = make_symmetric(3)
    rng = np.random.default_rng(7)
    for _ in range(10):
        g, h = rng.integers(0, 6, 2)
        lg, lh = s3.left_regular_matrix(g), s3.left_regular_matrix(h)
        assert np.array_equal(lg @ lh, s3.left_regular_matrix(s3.mul[g, h]))


def test_left_regular_bitflip_and_identity():
    z2 = make_cyclic(2)
    assert np.array_equal(z2.left_regular_matrix(1), np.array([[0.0, 1.0], [1.0, 0.0]]))
    s3 = make_symmetric(3)
    assert np.array_equal(s3.left_regular_matrix(0), np.eye(6))


def test_regular_character_matches_trace():
    for grp in (make_cyclic(2), make_cyclic(3), make_symmetric(3)):
        for g in grp.elements():
            assert grp.regular_character(g) == pytest.approx(
                np.trace(grp.left_regular_matrix(g))
            )
    assert make_symmetric(3).regular_character(0) == 6
    assert make_cyclic(3).regular_character(1) == 0


def test_trivial_projector_properties():
    z2 = make_cyclic(2)
    p1, p0 = z2.trivial_projector()
    assert np.allclose(p1, np.full((2, 2), 0.5))
    s3 = make_symmetric(3)
    p1, p0 = s3.trivial_projector()
    assert np.trace(p1) == pytest.approx(1.0)
    assert np.allclose(p1 @ p1, p1)
    assert np.allclose(p1 @ p0, 0.0)
    assert np.allclose(p1 + p0, np.eye(6))
    z3 = make_cyclic(3)
    p1, _ = z3.trivial_projector()
    for g in z3.elements():
        assert np.allclose(z3.left_regular_matrix(g) @ p1, p1)


def test_hs_orthogonality_and_reduced_character_sum():
    s3 = make_symmetric(3)
    for g in s3.elements():
        for h in s3.elements():
            hs = np.trace(s3.left_regular_matrix(g).T @ s3.left_regular_matrix(h))
            assert hs == pytest.approx(6.0 if g == h else 0.0)
    assert sum(s3.regular_character(g) - 1 for g in s3.elements()) == pytest.approx(0.0)


def test_group_file_roundtrip(tmp_path):
    z3 = make_cyclic(3)
    path = tmp_path / "z3.txt"
    lines = ["3"] + [" ".join(str(int(v)) for v in row) for row in z3.mul]
    path.write_text("\n".join(lines))
    loaded = group_from_file(path)
    assert np.array_equal(loaded.mul, z3.mul)
    assert np.array_equal(loaded.inv, z3.inv)


def test_group_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 1\n1 x\n")
    with pytest.raises(GroupError):
        group_from_file(path)


def test_group_by_name():
    assert group_by_name("Z4").order == 4
    assert group_by_name("S3").order == 6
    with pytest.raises(GroupError):
        group_by_name("Q8")


def test_invalid_table_rejected():
    mul = np.array([[0, 1], [1, 1]])
    with pytest.raises(GroupError):
        FiniteGroup(order=2, mul=mul, inv=np.array([0, 1]))
