"""Shared value types and fixed-size rotation helpers.

Conventions used across the package: the world frame is z-up with gravity
(0, 0, -9.81) m/s^2, forces are in newtons, moments in millinewton-meters,
and quaternions are scalar-first (w, x, y, z) with unit norm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Iterable, get_args, get_origin, get_type_hints

import numpy as np

EPS_PARALLEL = 1e-8
GRAVITY_MAG = 9.81  # m/s^2
GRAVITY = (0.0, 0.0, -GRAVITY_MAG)  # m/s^2, down the world z axis
MNM_TO_NM = 1e-3  # moment fields carry mN*m; convert only where mechanics needs SI
ABSOLUTE_ZERO_C = -273.15


class DegenerateOrientationError(ValueError):
    """A direction needed to build an orthonormal frame is ill defined."""


def check_finite(label: str, *values: float) -> None:
    """Raise ValueError naming label and the first NaN or inf among values."""
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{label}: non-finite component {v!r}")


def check_finite_fields(obj, error: type[Exception] = ValueError) -> None:
    """Reject NaN or inf in a dataclass's float fields, tuples of floats included.

    Raises error with a message naming the class and the field, so a bad
    config key is found without guessing.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise error(f"{type(obj).__name__}.{f.name} must be finite, got {v!r}")


def check_temperature(label: str, value: float, error: type[Exception] = ValueError) -> None:
    """Raise error naming label if the temperature value, in degC, is below absolute zero."""
    if value < ABSOLUTE_ZERO_C:
        raise error(f"{label} {value!r} degC is below absolute zero ({ABSOLUTE_ZERO_C} degC)")


class InputFileError(ValueError):
    """A JSON input file cannot be read, decoded or parsed."""


def read_json(path) -> object:
    """Parse a UTF-8 JSON file.  A file that cannot be read, decoded or parsed
    (nesting too deep included) raises InputFileError naming the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc


def write_lines(path, lines: Iterable[str]) -> None:
    """Write a text output: UTF-8 and each line ended by LF, whatever the locale."""
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def from_plain(cls, data, base=None):
    """Build dataclass cls from parsed JSON, converting each value by its declared type.

    Unknown keys are rejected; a missing key takes base's value, or is an
    error without a base.  Raises ValueError naming the field.  Range checks
    stay in cls's __post_init__.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be an object, got {data!r}")
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    for key in data:
        if key not in names:
            raise ValueError(f"unknown key {key!r} in {cls.__name__}")
    kwargs = {}
    for name in names:
        label = f"{cls.__name__}.{name}"
        if name in data:
            kwargs[name] = _convert(hints[name], data[name], label, getattr(base, name, None))
        elif base is not None:
            kwargs[name] = getattr(base, name)
        else:
            raise ValueError(f"{label} is missing")
    return cls(**kwargs)


def _convert(tp, value, label: str, base=None):
    """value as type tp: a dataclass recurses, X | None takes null or an X, a tuple
    a list of its length, np.ndarray nested lists of numbers, float any non-bool
    number, and int, bool and str exactly that JSON type."""
    if tp is float and type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{label} is too large for a float") from None
    if type(value) is tp:
        return value
    if is_dataclass(tp):
        return from_plain(tp, value, base)
    args = get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _convert(args[0], value, label)
    if get_origin(tp) is tuple and isinstance(value, (list, tuple)):
        types = args[:1] * len(value) if args[-1:] == (Ellipsis,) else args
        if len(value) != len(types):
            raise ValueError(f"{label} must have {len(types)} items, got {len(value)}")
        return tuple(_convert(t, v, f"{label}[{i}]") for i, (t, v) in enumerate(zip(types, value)))
    if tp is np.ndarray and isinstance(value, list):
        cells = np.array(value, dtype=object)  # ragged or very deep lists stay list cells
        for k, v in enumerate(cells.reshape(-1)):
            _convert(float, v, label + "".join(f"[{i}]" for i in np.unravel_index(k, cells.shape)))
        return cells.astype(float)
    raise ValueError(f"{label} must be {getattr(tp, '__name__', tp)}, got {value!r}")


@dataclass(frozen=True)
class Vec3:
    """Immutable 3-vector; units depend on context."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        check_finite("Vec3", self.x, self.y, self.z)

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def scaled(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def normalized(self) -> "Vec3":
        return Vec3(*unit3(self.x, self.y, self.z))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


ZERO3 = Vec3(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Wrench:
    """Six-axis load on the sensing plate: forces in N, moments in mN*m.

    Positive fz is compression (the loaded plate moves toward the base).
    """

    fx: float
    fy: float
    fz: float
    mx: float
    my: float
    mz: float

    def __post_init__(self) -> None:
        check_finite("Wrench", self.fx, self.fy, self.fz, self.mx, self.my, self.mz)

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.fx, self.fy, self.fz, self.mx, self.my, self.mz)

    @classmethod
    def zero(cls) -> "Wrench":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_sequence(cls, seq) -> "Wrench":
        if isinstance(seq, np.ndarray):
            seq = seq.tolist()  # the same floats, without a numpy scalar per item
        fx, fy, fz, mx, my, mz = (float(v) for v in seq)
        return cls(fx, fy, fz, mx, my, mz)


def unit3(x: float, y: float, z: float) -> tuple[float, float, float]:
    """(x, y, z) divided by its norm; rejects a norm at or below EPS_PARALLEL."""
    n = math.sqrt(x * x + y * y + z * z)
    if n <= EPS_PARALLEL:
        raise DegenerateOrientationError(
            f"cannot normalize near-zero vector: norm {n!r} below {EPS_PARALLEL}")
    s = 1.0 / n
    return x * s, y * s, z * s


def snap_unit_quat(w: float, x: float, y: float, z: float
                   ) -> tuple[float, float, float, float]:
    """(w, x, y, z) as a unit quaternion: the one form an attitude takes.

    Rejects non-finite components and a norm more than 1e-6 from 1, and
    divides out a norm that is not exactly 1.
    """
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if not math.isfinite(n):  # a NaN or inf component makes n NaN or inf
        check_finite("quaternion", w, x, y, z)
    if abs(n - 1.0) > 1e-6:
        raise ValueError(f"quaternion norm {n!r} deviates from 1 by more than 1e-6")
    if n != 1.0:
        return (w / n, x / n, y / n, z / n)
    return (w, x, y, z)


def normalize_quat(w: float, x: float, y: float, z: float
                   ) -> tuple[float, float, float, float]:
    """Arbitrary nonzero components divided by their norm, before
    snap_unit_quat makes them a unit quaternion."""
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n <= EPS_PARALLEL:
        raise ValueError("cannot normalize near-zero quaternion")
    return (w / n, x / n, y / n, z / n)


def slerp_quat(a: tuple[float, float, float, float], b: tuple[float, float, float, float],
               alpha: float) -> tuple[float, float, float, float]:
    """Shortest-path spherical interpolation between unit components a and b,
    alpha in [0, 1]; returns normalized components, which snap_unit_quat
    makes the interpolated attitude."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha!r} outside [0, 1]")
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    d = aw * bw + ax * bx + ay * by + az * bz
    if d < 0.0:  # negate one end to take the short arc
        d = -d
        bw, bx, by, bz = -bw, -bx, -by, -bz
    if d > 1.0 - 1e-9:
        return normalize_quat(aw + alpha * (bw - aw), ax + alpha * (bx - ax),
                              ay + alpha * (by - ay), az + alpha * (bz - az))
    theta = math.acos(max(-1.0, min(1.0, d)))
    s = math.sin(theta)
    ka = math.sin((1.0 - alpha) * theta) / s
    kb = math.sin(alpha * theta) / s
    return normalize_quat(ka * aw + kb * bw, ka * ax + kb * bx, ka * ay + kb * by,
                          ka * az + kb * bz)


LEVEL_QUAT = (1.0, 0.0, 0.0, 0.0)  # the identity rotation: body axes along the world's


def quat_from_columns(x_col: tuple[float, float, float], y_col: tuple[float, float, float],
                      z_col: tuple[float, float, float]) -> tuple[float, float, float, float]:
    """Unit quaternion for the rotation whose matrix columns are the given
    (x, y, z) axes."""
    (m00, m10, m20), (m01, m11, m21), (m02, m12, m22) = x_col, y_col, z_col
    tr = m00 + m11 + m22
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        w = 0.25 * s
        x = (m21 - m12) / s
        y = (m02 - m20) / s
        z = (m10 - m01) / s
    elif m00 >= m11 and m00 >= m22:
        s = math.sqrt(1.0 + m00 - m11 - m22) * 2.0
        w = (m21 - m12) / s
        x = 0.25 * s
        y = (m01 + m10) / s
        z = (m02 + m20) / s
    elif m11 > m22:
        s = math.sqrt(1.0 + m11 - m00 - m22) * 2.0
        w = (m02 - m20) / s
        x = (m01 + m10) / s
        y = 0.25 * s
        z = (m12 + m21) / s
    else:
        s = math.sqrt(1.0 + m22 - m00 - m11) * 2.0
        w = (m10 - m01) / s
        x = (m02 + m20) / s
        y = (m12 + m21) / s
        z = 0.25 * s
    if w < 0.0:  # keep w >= 0 so equal rotations compare equal
        w, x, y, z = -w, -x, -y, -z
    return snap_unit_quat(*normalize_quat(w, x, y, z))


def body_z(w: float, x: float, y: float, z: float) -> tuple[float, float, float]:
    """The body z axis in the world frame: the rotation matrix's third column."""
    return 2.0 * (x * z + w * y), 2.0 * (y * z - w * x), 1.0 - 2.0 * (x * x + y * y)
