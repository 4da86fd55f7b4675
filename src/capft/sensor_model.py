"""Forward model of a capacitive six-axis force/torque transducer.

The device is a rigid sensing plate suspended on a disc-shaped array of
elastomer micropillars above a fixed electrode board.  An applied wrench
displaces the plate; four quadrant electrodes read the local gap (normal
mode) and four differential comb pairs read tangential overlap shifts
(shear mode).  A capacitance-to-digital stage scales each channel to
integer counts with additive Gaussian noise and a slow thermal baseline
drift.

Units: SI throughout (m, N, Pa, F), except Wrench moments which arrive in
mN*m and are converted once at the mechanics boundary.  Channel order is
fixed everywhere: Z1..Z4, X1..X4, Y1..Y4.

Each formula and range check is written once and takes Python floats for
one reading or (N,) numpy columns for a trajectory.  Only the Newton loop,
the reduction of a check and the rounding primitive differ by type, and
every step is a correctly rounded IEEE operation, so both agree bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from hashlib import sha256

import numpy as np

from .core import MNM_TO_NM, Wrench, check_finite_fields, from_plain

EPSILON_0 = 8.8541878128e-12  # F/m

# Fraction of pillar height treated as the hard mechanical stop.  The
# constant-volume stiffening law diverges at full compression; beyond this
# point the lumped model is meaningless and the solve reports saturation.
MAX_COMPRESSION_FRACTION = 0.8
_SOLVE_CAP_FRACTION = 0.95

CHANNEL_NAMES = ("Z1", "Z2", "Z3", "Z4", "X1", "X2", "X3", "X4", "Y1", "Y2", "Y3", "Y4")
NUM_CHANNELS = 12
# Counts are int64.  An extreme temperature can scale a reading past that
# (or overflow the drift scale to inf or NaN); such a reading is rejected
# before the int conversion instead of wrapping.
_COUNT_LIMIT = 2.0 ** 63
_COUNT_RANGE_ERROR = ("CDC reading beyond the count range: temperature too far from the "
                      "drift model's reference")


class SensorRangeError(ValueError):
    """Input outside the range where the forward model is valid."""


class SaturationError(SensorRangeError):
    """Mechanical travel exhausted: no equilibrium within the allowed stroke."""


def _holds(check) -> bool:
    """Whether a range check passes.

    A check on floats is already a bool; one on (N,) columns passes when it
    holds on every row.  Checks state the condition that must hold, so NaN
    fails them.
    """
    return check if check.__class__ is bool else bool(check.all())


def parallel_plate_capacitance(eps_r: float, area: float, gap: float) -> float:
    """Ideal parallel-plate capacitance in farads; area in m^2, gap in m."""
    if area <= 0.0 or gap <= 0.0 or eps_r <= 0.0:
        raise SensorRangeError(f"non-physical plate parameters ({eps_r}, {area}, {gap})")
    return EPSILON_0 * eps_r * area / gap


def shore_to_youngs(shore_a: float) -> float:
    """Young's modulus in Pa from Shore A hardness, valid for 10 <= S <= 90."""
    if not 10.0 <= shore_a <= 90.0:
        raise SensorRangeError(f"shore hardness {shore_a!r} outside [10, 90]")
    mpa = 0.0981 * (56.0 + 7.62336 * shore_a) / (0.137505 * (254.0 - 2.54 * shore_a))
    return mpa * 1e6


def effective_modulus(youngs: float, aspect_ratio: float):
    """Compression modulus of a bonded cylindrical pillar with shape correction.

    Short pillars read stiffer than the bulk material because the bonded end
    faces suppress lateral bulging: E_eff = E * (1 + 0.5 / eta^2) with
    eta = height / radius.  Slender pillars (eta -> inf) recover E.
    Accepts scalars or numpy arrays for the aspect ratio.
    """
    if youngs <= 0.0:
        raise SensorRangeError(f"modulus must be positive, got {youngs!r}")
    if not _holds(aspect_ratio > 0.0):
        raise SensorRangeError("aspect ratio must be positive")
    return youngs * (1.0 + 0.5 / (aspect_ratio * aspect_ratio))


@dataclass(frozen=True)
class PillarModel:
    """Elastomer pillar array: uniform cylinders on concentric rings.

    ring_counts[i] pillars sit evenly spaced on a circle of radius
    ring_radii[i].  Incompressible rubber is assumed, so the shear modulus
    is E/3 and compressed pillars grow in radius at constant volume.
    """

    youngs_modulus: float  # Pa
    height: float  # m
    radius: float  # m
    ring_radii: tuple[float, ...]  # m
    ring_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        check_finite_fields(self, SensorRangeError)
        if min(self.youngs_modulus, self.height, self.radius) <= 0.0:
            raise SensorRangeError("pillar modulus, height and radius must be positive")
        if len(self.ring_radii) != len(self.ring_counts) or not self.ring_radii:
            raise SensorRangeError("ring radii and counts must be equal-length, non-empty")
        if any(r <= 0.0 for r in self.ring_radii) or any(n <= 0 for n in self.ring_counts):
            raise SensorRangeError("ring radii and counts must be positive")

    @property
    def aspect_ratio(self) -> float:
        return self.height / self.radius

    @property
    def shear_modulus(self) -> float:
        return self.youngs_modulus / 3.0  # incompressible

    @cached_property
    def pillar_area(self) -> float:
        return math.pi * self.radius * self.radius

    @cached_property
    def count(self) -> int:
        return int(sum(self.ring_counts))

    @cached_property
    def radial_second_moment(self) -> float:
        """Sum of n_k * r_k^2 over rings, m^2; weights tilt and torsion stiffness."""
        return float(sum(n * r * r for n, r in zip(self.ring_counts, self.ring_radii)))


@dataclass(frozen=True)
class SensorGeometry:
    """Electrode layout on the fixed board under the sensing plate.

    Quadrants are indexed 1..4 counterclockwise starting in the (+x, +y)
    octant; quadrants 1 and 3 carry the x-sensitive comb pairs, 2 and 4 the
    y-sensitive ones.  Shear electrodes shift overlap area by delta / w_f
    per meter of tangential travel, where w_f is the comb finger pitch.
    """

    nominal_gap: float  # m, electrode gap at rest
    quadrant_x: tuple[float, float, float, float]  # m, centroid x per quadrant
    quadrant_y: tuple[float, float, float, float]
    normal_electrode_area: float  # m^2 per quadrant
    shear_overlap_area: float  # m^2 per comb electrode at rest
    finger_pitch: float  # m
    pillar_fill_fraction: float  # dielectric area fraction occupied by pillars
    eps_pillar: float = 3.0
    eps_air: float = 1.0

    def __post_init__(self) -> None:
        check_finite_fields(self, SensorRangeError)
        if min(self.nominal_gap, self.normal_electrode_area, self.shear_overlap_area,
               self.finger_pitch) <= 0.0:
            raise SensorRangeError("geometry lengths and areas must be positive")
        if min(self.eps_pillar, self.eps_air) <= 0.0:
            raise SensorRangeError("relative permittivities must be positive")
        if not 0.0 <= self.pillar_fill_fraction < 1.0:
            raise SensorRangeError("fill fraction must lie in [0, 1)")
        if len(self.quadrant_x) != 4 or len(self.quadrant_y) != 4:
            raise SensorRangeError("exactly four quadrant centroids required")

    @property
    def eps_effective(self) -> float:
        """Area-weighted permittivity of the pillar/air composite gap."""
        phi = self.pillar_fill_fraction
        return phi * self.eps_pillar + (1.0 - phi) * self.eps_air


@dataclass(frozen=True)
class PlateDisplacement:
    """Rigid-plate pose change under load: translations in m, tilts in rad.

    Fields are floats for one reading, or (N,) columns for a trajectory.
    """

    dz: float  # normal approach, positive toward the board
    theta_x: float
    theta_y: float
    dx: float
    dy: float
    theta_z: float

    def __post_init__(self) -> None:
        if not _holds((abs(self.theta_x) < 0.1) & (abs(self.theta_y) < 0.1)
                      & (abs(self.theta_z) < 0.1)):
            raise SensorRangeError("small-angle model invalid beyond 0.1 rad")


@dataclass(frozen=True)
class DriftModel:
    """Per-channel quadratic thermal baseline scaling around reference_temp."""

    alpha: tuple[float, ...]  # 1/degC
    beta: tuple[float, ...]  # 1/degC^2
    reference_temp: float = 25.0

    def __post_init__(self) -> None:
        if len(self.alpha) != NUM_CHANNELS or len(self.beta) != NUM_CHANNELS:
            raise SensorRangeError("drift model needs one alpha and beta per channel")
        check_finite_fields(self, SensorRangeError)

    @classmethod
    def disabled(cls, reference_temp: float = 25.0) -> "DriftModel":
        zeros = (0.0,) * NUM_CHANNELS
        return cls(alpha=zeros, beta=zeros, reference_temp=reference_temp)


@dataclass(frozen=True)
class CdcConfig:
    """Capacitance-to-digital conversion: gain, additive noise, optional lag."""

    gain_counts_per_farad: float = 1.0e15  # 1 count per fF
    noise_sigma_counts: float = 2.0
    lag_corner_hz: float | None = None  # first-order output lag, disabled by default

    def __post_init__(self) -> None:
        check_finite_fields(self, SensorRangeError)
        if self.gain_counts_per_farad <= 0.0 or self.noise_sigma_counts < 0.0:
            raise SensorRangeError("CDC gain must be positive and noise non-negative")
        if self.lag_corner_hz is not None and self.lag_corner_hz <= 0.0:
            raise SensorRangeError("lag corner must be positive when enabled")


@dataclass(frozen=True)
class SensorParams:
    """Bundle of everything the forward model needs."""

    pillars: PillarModel
    geometry: SensorGeometry
    drift: DriftModel
    cdc: CdcConfig = field(default_factory=CdcConfig)

    def to_dict(self) -> dict:
        """Nested plain values; tuples serialize as JSON arrays."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SensorParams":
        try:
            return from_plain(cls, data)
        except (KeyError, TypeError, ValueError) as exc:
            raise SensorRangeError(f"bad sensor parameter structure: {exc}") from exc

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class CapacitanceFrame:
    """One synchronized reading of all twelve channels, in integer counts."""

    normal_counts: tuple[int, int, int, int]
    shear_counts: tuple[int, int, int, int, int, int, int, int]
    timestamp: float
    temperature: float

    def __post_init__(self) -> None:
        if len(self.normal_counts) != 4 or len(self.shear_counts) != 8:
            raise SensorRangeError("frame needs 4 normal and 8 shear counts")
        # 0 leads, so a NaN first does not hide a negative count behind it
        if min(0, *self.normal_counts, *self.shear_counts) < 0:
            raise SensorRangeError("counts must be non-negative")

    @property
    def counts(self) -> tuple[int, ...]:
        """All channels in the fixed Z1..Z4, X1..X4, Y1..Y4 order."""
        return self.normal_counts + self.shear_counts

    @classmethod
    def from_counts(cls, counts, timestamp: float, temperature: float) -> "CapacitanceFrame":
        """Frame from all twelve whole-number counts in the counts order."""
        c = tuple(int(v) for v in counts)
        return cls(normal_counts=c[:4], shear_counts=c[4:], timestamp=timestamp,
                   temperature=temperature)


@dataclass(frozen=True)
class StiffnessSet:
    """Lumped plate stiffnesses at a given compression."""

    k_z: float  # N/m
    k_xy: float  # N/m
    k_tilt: float  # N*m/rad, about x or y
    k_torsion: float  # N*m/rad, about z


def _compressed_state(pillars: PillarModel, dz) -> tuple:
    """Height, area and aspect ratio of one pillar squashed by dz.

    Constant-volume compression: the radius grows as the height shrinks, so
    area * height stays fixed.  Valid for 0 <= dz < height.  Floats take
    math.sqrt and columns np.sqrt; both are correctly rounded, so the bits agree.
    """
    h_eff = pillars.height - dz
    area = pillars.pillar_area * pillars.height / h_eff
    radius = (np.sqrt if isinstance(dz, np.ndarray) else math.sqrt)(area / math.pi)
    eta = h_eff / radius
    return h_eff, area, eta


def pillar_stiffness(pillars: PillarModel, geometry: SensorGeometry, dz) -> StiffnessSet:
    """Plate stiffnesses with the array compressed by dz meters.

    Normal stiffness follows the compressed effective modulus and grown
    cross-section; shear and torsion use the nominal geometry (tangential
    comb travel is small compared to the pillar radius).  dz may be an (N,)
    column; k_z and k_tilt are then columns and k_xy and k_torsion floats.
    """
    if not _holds(dz >= 0.0):
        raise SensorRangeError("compression dz must be non-negative")
    if not _holds(dz < pillars.height):
        raise SensorRangeError("compression dz not below pillar height")
    h_eff, area, eta = _compressed_state(pillars, dz)
    kz_per_pillar = effective_modulus(pillars.youngs_modulus, eta) * area / h_eff
    kxy_per_pillar = pillars.shear_modulus * pillars.pillar_area / pillars.height
    second = pillars.radial_second_moment
    return StiffnessSet(
        k_z=pillars.count * kz_per_pillar,
        k_xy=pillars.count * kxy_per_pillar,
        k_tilt=kz_per_pillar * second,
        k_torsion=kxy_per_pillar * second,
    )


def _axial_force(pillars: PillarModel, dz):
    """Total restoring force after compressing the array by dz (closed form).

    Integral of the compressed stiffness from 0 to dz; grows superlinearly
    because the pillars fatten and their effective modulus rises.  The
    quartic is built from multiplies, not a power, so floats and numpy
    columns round it alike.
    """
    h = pillars.height
    r = pillars.radius
    a = h - dz
    scale = pillars.count * pillars.youngs_modulus * pillars.pillar_area * h
    linear = 1.0 / a - 1.0 / h
    quartic = (r * r * h / 8.0) * (1.0 / ((a * a) * (a * a)) - 1.0 / ((h * h) * (h * h)))
    return scale * (linear + quartic)


def _axial_stiffness(pillars: PillarModel, dz):
    """Slope of _axial_force at dz: the Newton tangent."""
    h_eff, area, eta = _compressed_state(pillars, dz)
    return pillars.count * effective_modulus(pillars.youngs_modulus, eta) * area / h_eff


def _newton_float(pillars: PillarModel, fz: float, k0: float, cap: float) -> float:
    """Newton steps from the linear guess, bisecting whenever one leaves the bracket."""
    dz = min(max(fz / k0, 0.0), cap)
    lo, hi = 0.0, cap
    for _ in range(80):
        resid = _axial_force(pillars, dz) - fz
        if abs(resid) < 1e-12 * max(1.0, abs(fz)):
            break
        if resid < 0.0:
            lo = dz
        if resid > 0.0:
            hi = dz
        step = dz - resid / _axial_stiffness(pillars, dz)
        dz = 0.5 * (lo + hi) if step <= lo or step >= hi else step
    return dz


def _newton_rows(pillars: PillarModel, fz: np.ndarray, k0: float, cap: float) -> np.ndarray:
    """_newton_float on every row: converged rows freeze, the rest iterate on."""
    dz = np.clip(fz / k0, 0.0, cap)
    rows, x, f = np.arange(dz.size), dz, fz
    lo, hi = np.zeros_like(dz), np.full_like(dz, cap)
    for _ in range(80):
        resid = _axial_force(pillars, x) - f
        going = ~(np.abs(resid) < 1e-12 * np.maximum(1.0, np.abs(f)))
        if not going.any():
            break
        rows, x, f, resid = rows[going], x[going], f[going], resid[going]
        lo = np.where(resid < 0.0, x, lo[going])
        hi = np.where(resid > 0.0, x, hi[going])
        step = x - resid / _axial_stiffness(pillars, x)
        x = np.where((step <= lo) | (step >= hi), 0.5 * (lo + hi), step)
        dz[rows] = x
    return dz


def _solve_dz(pillars: PillarModel, fz):
    """Guarded Newton solve of _axial_force(dz) = fz, fz >= 0.

    A float runs the float loop and an (N,) column the row loop.  Both take
    the same steps and stop each row on the same test, so row i of a column
    solve equals the float solve of fz[i] bit for bit.
    """
    cap = _SOLVE_CAP_FRACTION * pillars.height
    k0 = pillars.count * effective_modulus(pillars.youngs_modulus, pillars.aspect_ratio) \
        * pillars.pillar_area / pillars.height
    if isinstance(fz, np.ndarray):
        dz = _newton_rows(pillars, fz, k0, cap)
    else:
        fz = float(fz)
        dz = _newton_float(pillars, fz, k0, cap)
    if not _holds(abs(_axial_force(pillars, dz) - fz) < 1e-9):  # NaN fails too
        raise SaturationError("no axial equilibrium within stroke (residual >= 1e-9 N)")
    return dz


def solve_deformation(w, pillars: PillarModel, geometry: SensorGeometry) -> PlateDisplacement:
    """Static plate pose under an applied wrench.

    The normal axis is solved iteratively against the stiffening pillar
    column; the shear and rotational axes are linear in the respective
    stiffnesses evaluated at the solved compression.  Raises
    SaturationError when the wrench has no equilibrium inside the stroke
    (dz beyond 80% of pillar height, tension, or tilt outside the
    small-angle window).  w is a Wrench, or an (N, 6) float array of them,
    which gives a pose of (N,) columns equal row by row to the single solves.
    """
    fx, fy, fz, mx, my, mz = w.as_tuple() if isinstance(w, Wrench) else w.T
    if not _holds(fz >= 0.0):
        raise SaturationError("tensile normal load is outside the model range")
    dz = _solve_dz(pillars, fz)
    if not _holds(dz < MAX_COMPRESSION_FRACTION * pillars.height):
        raise SaturationError(
            f"normal stroke exhausted: dz {np.max(dz):.3e} beyond "
            f"{MAX_COMPRESSION_FRACTION:.0%} of pillar height")
    stiff = pillar_stiffness(pillars, geometry, dz)
    return PlateDisplacement(
        dz=dz,
        theta_x=mx * MNM_TO_NM / stiff.k_tilt,
        theta_y=my * MNM_TO_NM / stiff.k_tilt,
        dx=fx / stiff.k_xy,
        dy=fy / stiff.k_xy,
        theta_z=mz * MNM_TO_NM / stiff.k_torsion,
    )


def _quadrant_gaps(d: PlateDisplacement, geometry: SensorGeometry) -> list:
    """Local electrode gap under each quadrant centroid (m); raises once one closes."""
    gaps = [geometry.nominal_gap - (d.dz + d.theta_x * y - d.theta_y * x)
            for x, y in zip(geometry.quadrant_x, geometry.quadrant_y)]
    g1, g2, g3, g4 = gaps
    if not _holds((g1 > 0.0) & (g2 > 0.0) & (g3 > 0.0) & (g4 > 0.0)):
        raise SaturationError("electrode gap closed under tilt/compression")
    return gaps


def normal_mode_capacitance(d: PlateDisplacement, geometry: SensorGeometry) -> tuple:
    """Quadrant gap-sensing capacitances Z1..Z4 in farads (columns for a column pose)."""
    num = EPSILON_0 * geometry.eps_effective * geometry.normal_electrode_area
    return tuple(num / g for g in _quadrant_gaps(d, geometry))


def shear_mode_capacitance(d: PlateDisplacement, geometry: SensorGeometry) -> tuple:
    """Differential overlap-area capacitances X1..X4, Y1..Y4 in farads.

    Each quadrant carries a +/- comb pair whose overlap areas split linearly
    with tangential travel; both members share the local quadrant gap, which
    retains the normal-load cross-coupling seen on a physical device.
    """
    half_pitch = 0.5 * geometry.finger_pitch
    if not _holds((abs(d.dx) < half_pitch) & (abs(d.dy) < half_pitch)):
        raise SensorRangeError("tangential travel beyond half a finger pitch")
    gaps = _quadrant_gaps(d, geometry)
    qx, qy = geometry.quadrant_x, geometry.quadrant_y
    # rigid in-plane motion, (dx, dy) plus theta_z cross centroid, along each
    # quadrant's sensitive axis: quadrants 1 and 3 sense x, 2 and 4 sense y
    deltas = (d.dx - d.theta_z * qy[0], d.dy + d.theta_z * qx[1],
              d.dx - d.theta_z * qy[2], d.dy + d.theta_z * qx[3])
    if not _holds((abs(deltas[0]) < half_pitch) & (abs(deltas[1]) < half_pitch)
                  & (abs(deltas[2]) < half_pitch) & (abs(deltas[3]) < half_pitch)):
        raise SensorRangeError("comb overlap wrapped: quadrant travel beyond half pitch")
    num = EPSILON_0 * geometry.eps_effective * geometry.shear_overlap_area
    caps: list = []
    for q in (0, 2, 1, 3):  # order: (Q1+, Q1-), (Q3+, Q3-), (Q2+, Q2-), (Q4+, Q4-)
        base = num / gaps[q]
        ratio = deltas[q] / geometry.finger_pitch
        caps += (base * (1.0 + ratio), base * (1.0 - ratio))
    return tuple(caps)


def _channel_capacitances(w, params: SensorParams) -> tuple:
    """Noise-free capacitances of the twelve channels, in the fixed order."""
    d = solve_deformation(w, params.pillars, params.geometry)
    return normal_mode_capacitance(d, params.geometry) + shear_mode_capacitance(d, params.geometry)


# sample's memo of the last load, ((w, params), capacitances): a closed loop
# holds one load for many ticks (0 N while separated, the payload weight in
# hover), and a repeat skips the solve.  Keys that compare equal hold the same
# numbers up to the sign of a zero, which no capacitance carries, so a hit
# returns the bits a solve would.  One tuple, so a reader never sees a key
# with another load's capacitances.
_last_load: tuple = (None, ())


def capacitances(w: Wrench, params: SensorParams) -> np.ndarray:
    """Noise-free channel capacitances for one wrench, farads, fixed order."""
    return np.array(_channel_capacitances(w, params))


def _counts(c, alpha, beta, dt, cdc: CdcConfig, noise):
    """CDC counts: thermal baseline scale, gain and read noise, rounded at zero.

    Takes one channel's floats, or (N, 12) capacitances and noise with (N, 1)
    temperature offsets.  A reading int64 cannot hold raises SensorRangeError
    before the int conversion; rounding is half-even either way.
    """
    noisy = cdc.gain_counts_per_farad * c * (1.0 + alpha * dt + beta * (dt * dt)) \
        + cdc.noise_sigma_counts * noise
    if isinstance(noisy, float):
        if noisy < _COUNT_LIMIT:  # NaN fails too
            return round(noisy) if noisy > 0.0 else 0
    elif _holds(noisy < _COUNT_LIMIT):
        return np.rint(np.maximum(noisy, 0.0)).astype(int)
    raise SensorRangeError(_COUNT_RANGE_ERROR)


def count_at_reference(capacitance: float, noise: float, cdc: CdcConfig) -> int:
    """One channel's count at the drift model's reference temperature, for
    capacitance farads and a standard normal read-noise draw of noise.

    Raises SensorRangeError where sample would.  Every step of the count
    rises with the capacitance and the draw, so this bounds the counts of
    every reading whose capacitance and draw are at most these.
    """
    return _counts(capacitance, 0.0, 0.0, 0.0, cdc, noise)


def sample(w: Wrench, temperature: float, params: SensorParams, rng,
           timestamp: float = 0.0) -> CapacitanceFrame:
    """One CDC reading of the full channel set under a static wrench.

    Applies the thermal baseline scale, converts to counts, adds Gaussian
    read noise and rounds to non-negative integers.  Deterministic for a
    given rng seed, and equal bit for bit (dz, stiffnesses, capacitances
    and counts) to the matching row of sample_trajectory.

    The noise-free capacitances of the last (w, params) are kept: a call
    whose key compares equal to the last one skips the solve, and nothing is
    hashed.  The same params object compares by identity, so a hit usually
    compares only the six wrench floats.  The noise draw and rounding run
    on every call.  Of the readings a sensed flight makes, it serves 30%
    in track_sine and 41% in deploy_package.
    """
    global _last_load
    key, caps = _last_load
    if key != (w, params):
        caps = _channel_capacitances(w, params)
        _last_load = (w, params), caps
    gen = np.random.default_rng(rng)  # a Generator passes through
    drift = params.drift
    dt = float(temperature) - drift.reference_temp
    counts = tuple([_counts(c, a, b, dt, params.cdc, n) for c, a, b, n in zip(
        caps, drift.alpha, drift.beta, gen.normal(size=NUM_CHANNELS).tolist())])
    return CapacitanceFrame(counts[:4], counts[4:], timestamp, temperature)


def sample_trajectory(wrenches: np.ndarray, temperatures: np.ndarray, params: SensorParams,
                      rng) -> np.ndarray:
    """Vectorized counts for a (N, 6) wrench trajectory; returns (N, 12) ints.

    Runs the same forward model as sample on (N,) columns and draws the
    noise in the same order, so row i equals the i-th of N sample calls
    with a shared generator bit for bit: dz, stiffnesses, capacitances
    and counts alike.
    """
    gen = np.random.default_rng(rng)  # a Generator passes through
    w = np.asarray(wrenches, dtype=float)
    if w.ndim != 2 or w.shape[1] != 6:
        raise SensorRangeError(f"wrench trajectory must be (N, 6), got {w.shape}")
    temps = np.asarray(temperatures, dtype=float)
    if temps.shape != (w.shape[0],):
        raise SensorRangeError("one temperature per wrench sample required")
    caps = np.column_stack(_channel_capacitances(w, params))
    drift = params.drift
    with np.errstate(over="ignore", invalid="ignore"):
        return _counts(caps, np.asarray(drift.alpha), np.asarray(drift.beta),
                       (temps - drift.reference_temp)[:, None], params.cdc,
                       gen.normal(size=caps.shape))


def lag_rows(rows, corner_hz: float, dt: float) -> list[tuple[float, ...]]:
    """Optional mechanical lag applied to the wrench rows seen by the transducer.

    The first row sets the state; each later one moves every component
    alpha = 1 - exp(-2 pi corner_hz dt) of the way toward the row.  Rows
    are sequences of floats, one per sample dt apart; returns the states.
    """
    if dt <= 0.0:
        raise SensorRangeError("lag step requires dt > 0")
    alpha = 1.0 - math.exp(-2.0 * math.pi * corner_hz * dt)
    states: list[tuple[float, ...]] = []
    for row in rows:
        # at alpha 1 the lag settles within the step, and s + (x - s) can
        # round past x, outside the inputs' envelope
        if not states or alpha == 1.0:
            states.append(tuple(row))
        else:
            states.append(tuple(s + alpha * (x - s) for s, x in zip(states[-1], row)))
    return states


def default_pillars() -> PillarModel:
    """Illustrative pillar array: 20 mm disc, rings on a 0.5 mm radial pitch.

    Arc pitch is held near 0.2 mm so the array is stiff enough that full-range
    normal loads stay in the mildly nonlinear part of the compression curve.
    """
    radii = tuple(1e-3 + 0.5e-3 * k for k in range(18))
    counts = tuple(4 * round(math.pi * rho / (2 * 0.18e-3)) for rho in radii)
    return PillarModel(
        youngs_modulus=shore_to_youngs(30.0),
        height=127e-6,
        radius=50e-6,
        ring_radii=radii,
        ring_counts=counts,
    )


def default_geometry() -> SensorGeometry:
    """Illustrative electrode board matching default_pillars."""
    c = 6e-3 / math.sqrt(2.0)  # quadrant centroids on a 6 mm radius
    pillar_area = default_pillars().count * math.pi * (50e-6) ** 2
    disc_area = math.pi * (10e-3) ** 2
    return SensorGeometry(
        nominal_gap=203e-6,
        quadrant_x=(c, -c, -c, c),
        quadrant_y=(c, c, -c, -c),
        normal_electrode_area=40e-6,
        shear_overlap_area=20e-6,
        finger_pitch=400e-6,
        pillar_fill_fraction=pillar_area / disc_area,
    )


def default_drift() -> DriftModel:
    """Channel-to-channel spread giving 1% to 3% baseline change over 10 degC."""
    alpha = tuple(0.0012 + 0.0014 * k / 11.0 for k in range(NUM_CHANNELS))
    beta = tuple(4e-6 if k % 2 == 0 else -4e-6 for k in range(NUM_CHANNELS))
    return DriftModel(alpha=alpha, beta=beta, reference_temp=25.0)


def default_sensor_params() -> SensorParams:
    return SensorParams(
        pillars=default_pillars(),
        geometry=default_geometry(),
        drift=default_drift(),
        cdc=CdcConfig(),
    )
