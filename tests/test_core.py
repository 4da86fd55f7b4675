"""Vector, wrench and quaternion utilities."""

import math

import numpy as np
import pytest

from capft.core import (
    DegenerateOrientationError,
    UnitQuaternion,
    Vec3,
    Wrench,
    cross_normalize,
    quat_to_basis,
    slerp,
)


def rotation_matrix(q):
    """Independent oracle: explicit quaternion-to-matrix formula."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def random_unit_quaternion(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return UnitQuaternion(*v)


class TestVec3:
    def test_arithmetic(self):
        a = Vec3(1.0, 2.0, 3.0)
        b = Vec3(-1.0, 0.5, 2.0)
        assert (a - b).as_tuple() == (2.0, 1.5, 1.0)
        assert (a + b).as_tuple() == (0.0, 2.5, 5.0)
        assert (-a).as_tuple() == (-1.0, -2.0, -3.0)
        assert a.dot(b) == 1.0 * -1.0 + 2.0 * 0.5 + 3.0 * 2.0
        assert a.scaled(2.0).as_tuple() == (2.0, 4.0, 6.0)

    def test_cross_hand_value(self):
        # (1,0,0) x (0,1,0) = (0,0,1)
        assert Vec3(1, 0, 0).cross(Vec3(0, 1, 0)).as_tuple() == (0.0, 0.0, 1.0)

    def test_norm(self):
        assert Vec3(3.0, 4.0, 0.0).norm() == 5.0
        n = Vec3(1.0, 1.0, 1.0).normalized()
        assert abs(n.norm() - 1.0) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Vec3(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            Vec3(0.0, float("inf"), 0.0)


class TestWrench:
    def test_roundtrip(self):
        w = Wrench(1.0, -2.0, 3.0, 4.0, -5.0, 6.0)
        assert w.as_tuple() == (1.0, -2.0, 3.0, 4.0, -5.0, 6.0)
        assert Wrench.from_sequence(w.as_tuple()) == w

    def test_zero(self):
        assert Wrench.zero().as_tuple() == (0.0,) * 6

    @pytest.mark.parametrize("dtype", [float, np.float32, int])
    def test_from_ndarray_matches_items(self, dtype):
        row = np.array([0.1, -2.0, 3.7, 1e-300, -0.0, 6.0]).astype(dtype)
        w = Wrench.from_sequence(row)
        assert [v.hex() for v in w.as_tuple()] == [float(v).hex() for v in row]
        assert all(type(v) is float for v in w.as_tuple())

    @pytest.mark.parametrize("seq", [[1.0] * 5, np.ones(7)])
    def test_from_sequence_wrong_length(self, seq):
        with pytest.raises(ValueError):
            Wrench.from_sequence(seq)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Wrench(0.0, 0.0, float("nan"), 0.0, 0.0, 0.0)


class TestUnitQuaternion:
    def test_identity_basis(self):
        x, y, z = quat_to_basis(UnitQuaternion.identity())
        assert x.as_tuple() == (1.0, 0.0, 0.0)
        assert y.as_tuple() == (0.0, 1.0, 0.0)
        assert z.as_tuple() == (0.0, 0.0, 1.0)

    def test_z_rotation_90deg(self):
        q = UnitQuaternion.from_axis_angle(Vec3(0, 0, 1), math.pi / 2)
        x, y, z = quat_to_basis(q)
        assert abs(x.x) < 1e-12 and abs(x.y - 1.0) < 1e-12
        assert z.as_tuple() == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            UnitQuaternion(1.0, 1.0, 0.0, 0.0)

    def test_basis_matches_matrix_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = random_unit_quaternion(rng)
            x, y, z = quat_to_basis(q)
            got = np.column_stack([x.as_tuple(), y.as_tuple(), z.as_tuple()])
            np.testing.assert_allclose(got, rotation_matrix(q), atol=1e-12)

    def test_basis_orthonormal_right_handed(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            q = random_unit_quaternion(rng)
            x, y, z = quat_to_basis(q)
            r = np.column_stack([x.as_tuple(), y.as_tuple(), z.as_tuple()])
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-9)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)

    def test_from_rotation_columns_roundtrip(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            q = random_unit_quaternion(rng)
            x, y, z = quat_to_basis(q)
            q2 = UnitQuaternion.from_rotation_columns(x, y, z)
            # q and -q encode the same rotation
            assert abs(abs(q.dot(q2)) - 1.0) < 1e-9


class TestCrossNormalize:
    def test_canonical_basis(self):
        assert cross_normalize(Vec3(0, 0, 1), Vec3(1, 0, 0)).as_tuple() == \
            pytest.approx((0.0, 1.0, 0.0), abs=1e-12)

    def test_hand_value(self):
        # (1,1,0) x (0,0,2) = (2,-2,0), normalized (1/sqrt2, -1/sqrt2, 0)
        got = cross_normalize(Vec3(1, 1, 0), Vec3(0, 0, 2))
        s = 1.0 / math.sqrt(2.0)
        assert got.as_tuple() == pytest.approx((s, -s, 0.0), abs=1e-12)

    def test_parallel_rejected(self):
        with pytest.raises(DegenerateOrientationError):
            cross_normalize(Vec3(0, 0, 1), Vec3(0, 0, 1))

    def test_orthogonal_to_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = Vec3(*rng.normal(size=3))
            b = Vec3(*rng.normal(size=3))
            try:
                n = cross_normalize(a, b)
            except DegenerateOrientationError:
                continue
            assert abs(n.norm() - 1.0) < 1e-9
            assert abs(n.dot(a)) < 1e-9 * max(1.0, a.norm())
            assert abs(n.dot(b)) < 1e-9 * max(1.0, b.norm())


class TestSlerp:
    def test_endpoints(self):
        qa = UnitQuaternion.identity()
        qb = UnitQuaternion.from_axis_angle(Vec3(0, 1, 0), 1.0)
        assert slerp(qa, qb, 0.0).dot(qa) == pytest.approx(1.0, abs=1e-12)
        assert abs(slerp(qa, qb, 1.0).dot(qb)) == pytest.approx(1.0, abs=1e-12)

    def test_halfway_angle(self):
        qa = UnitQuaternion.identity()
        qb = UnitQuaternion.from_axis_angle(Vec3(1, 0, 0), 0.8)
        qm = slerp(qa, qb, 0.5)
        qh = UnitQuaternion.from_axis_angle(Vec3(1, 0, 0), 0.4)
        assert abs(qm.dot(qh)) == pytest.approx(1.0, abs=1e-12)

    def test_shortest_path(self):
        qa = UnitQuaternion.identity()
        qb = UnitQuaternion.from_axis_angle(Vec3(0, 0, 1), 0.6)
        neg = UnitQuaternion(-qb.w, -qb.x, -qb.y, -qb.z)
        qm1 = slerp(qa, qb, 0.25)
        qm2 = slerp(qa, neg, 0.25)
        assert abs(qm1.dot(qm2)) == pytest.approx(1.0, abs=1e-12)
