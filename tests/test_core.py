"""Vector, wrench and quaternion utilities."""

import math

import numpy as np
import pytest

from capft.core import (
    LEVEL_QUAT,
    DegenerateOrientationError,
    Vec3,
    Wrench,
    body_z,
    quat_from_columns,
    slerp_quat,
    snap_unit_quat,
    unit3,
)


def rotation_matrix(q):
    """Independent oracle: explicit quaternion-to-matrix formula."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def random_unit_quaternion(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return snap_unit_quat(*v.tolist())


def axis_angle(axis, angle):
    """Unit quaternion turning angle radians about the unit axis."""
    s = math.sin(0.5 * angle)
    return snap_unit_quat(math.cos(0.5 * angle), axis[0] * s, axis[1] * s, axis[2] * s)


def quat_dot(a, b):
    return sum(u * v for u, v in zip(a, b))


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
        assert body_z(*LEVEL_QUAT) == (0.0, 0.0, 1.0)
        assert quat_from_columns((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)) == LEVEL_QUAT

    def test_z_rotation_90deg(self):
        q = axis_angle((0.0, 0.0, 1.0), math.pi / 2)
        assert body_z(*q) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)
        # the body x axis turns onto the world y axis
        x_col = rotation_matrix(q)[:, 0]
        assert abs(x_col[0]) < 1e-12 and abs(x_col[1] - 1.0) < 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            snap_unit_quat(1.0, 1.0, 0.0, 0.0)

    def test_basis_matches_matrix_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = random_unit_quaternion(rng)
            np.testing.assert_allclose(body_z(*q), rotation_matrix(q)[:, 2], atol=1e-12)

    def test_from_rotation_columns_roundtrip(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            q = random_unit_quaternion(rng)
            x, y, z = (tuple(col) for col in rotation_matrix(q).T.tolist())
            q2 = quat_from_columns(x, y, z)
            # q and -q encode the same rotation
            assert abs(abs(quat_dot(q, q2)) - 1.0) < 1e-9


class TestUnit3:
    def test_hand_value(self):
        s = 1.0 / math.sqrt(2.0)
        assert unit3(2.0, -2.0, 0.0) == pytest.approx((s, -s, 0.0), abs=1e-12)

    def test_near_zero_rejected(self):
        with pytest.raises(DegenerateOrientationError, match="near-zero vector"):
            unit3(1e-9, 0.0, 0.0)


class TestSlerp:
    def test_endpoints(self):
        qa = LEVEL_QUAT
        qb = axis_angle((0.0, 1.0, 0.0), 1.0)
        assert quat_dot(slerp_quat(qa, qb, 0.0), qa) == pytest.approx(1.0, abs=1e-12)
        assert abs(quat_dot(slerp_quat(qa, qb, 1.0), qb)) == pytest.approx(1.0, abs=1e-12)

    def test_halfway_angle(self):
        qa = LEVEL_QUAT
        qb = axis_angle((1.0, 0.0, 0.0), 0.8)
        qm = slerp_quat(qa, qb, 0.5)
        qh = axis_angle((1.0, 0.0, 0.0), 0.4)
        assert abs(quat_dot(qm, qh)) == pytest.approx(1.0, abs=1e-12)

    def test_shortest_path(self):
        qa = LEVEL_QUAT
        qb = axis_angle((0.0, 0.0, 1.0), 0.6)
        neg = tuple(-v for v in qb)
        qm1 = slerp_quat(qa, qb, 0.25)
        qm2 = slerp_quat(qa, neg, 0.25)
        assert abs(quat_dot(qm1, qm2)) == pytest.approx(1.0, abs=1e-12)
