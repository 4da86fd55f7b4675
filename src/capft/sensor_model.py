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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from hashlib import sha256

import numpy as np

from .core import MNM_TO_NM, Wrench

EPSILON_0 = 8.8541878128e-12  # F/m

# Fraction of pillar height treated as the hard mechanical stop.  The
# constant-volume stiffening law diverges at full compression; beyond this
# point the lumped model is meaningless and the solve reports saturation.
MAX_COMPRESSION_FRACTION = 0.8
_SOLVE_CAP_FRACTION = 0.95

CHANNEL_NAMES = ("Z1", "Z2", "Z3", "Z4", "X1", "X2", "X3", "X4", "Y1", "Y2", "Y3", "Y4")
NUM_CHANNELS = 12


class SensorRangeError(ValueError):
    """Input outside the range where the forward model is valid."""


class SaturationError(SensorRangeError):
    """Mechanical travel exhausted: no equilibrium within the allowed stroke."""


def _require_finite(label: str, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise SensorRangeError(f"{label} must be finite")


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
    bad = aspect_ratio <= 0.0  # a bool for a float, so numpy is only paid for arrays
    if bad if isinstance(bad, bool) else np.any(bad):
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
        _require_finite("pillar modulus, height and radii", self.youngs_modulus, self.height,
                        self.radius, *self.ring_radii)
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
        _require_finite("geometry lengths, areas and permittivities", self.nominal_gap,
                        *self.quadrant_x, *self.quadrant_y, self.normal_electrode_area,
                        self.shear_overlap_area, self.finger_pitch, self.pillar_fill_fraction,
                        self.eps_pillar, self.eps_air)
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
    """Rigid-plate pose change under load: translations in m, tilts in rad."""

    dz: float  # normal approach, positive toward the board
    theta_x: float
    theta_y: float
    dx: float
    dy: float
    theta_z: float

    def __post_init__(self) -> None:
        if max(abs(self.theta_x), abs(self.theta_y), abs(self.theta_z)) >= 0.1:
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
        _require_finite("drift coefficients and reference temperature", *self.alpha,
                        *self.beta, self.reference_temp)

    @cached_property
    def _coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.alpha), np.asarray(self.beta)

    def scale(self, temperature: float) -> np.ndarray:
        dt = temperature - self.reference_temp
        a, b = self._coefficients
        return 1.0 + a * dt + b * dt * dt

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
        lag = () if self.lag_corner_hz is None else (self.lag_corner_hz,)
        _require_finite("CDC gain, noise and lag corner", self.gain_counts_per_farad,
                        self.noise_sigma_counts, *lag)
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
        return {
            "pillars": {
                "youngs_modulus": self.pillars.youngs_modulus,
                "height": self.pillars.height,
                "radius": self.pillars.radius,
                "ring_radii": list(self.pillars.ring_radii),
                "ring_counts": list(self.pillars.ring_counts),
            },
            "geometry": {
                "nominal_gap": self.geometry.nominal_gap,
                "quadrant_x": list(self.geometry.quadrant_x),
                "quadrant_y": list(self.geometry.quadrant_y),
                "normal_electrode_area": self.geometry.normal_electrode_area,
                "shear_overlap_area": self.geometry.shear_overlap_area,
                "finger_pitch": self.geometry.finger_pitch,
                "pillar_fill_fraction": self.geometry.pillar_fill_fraction,
                "eps_pillar": self.geometry.eps_pillar,
                "eps_air": self.geometry.eps_air,
            },
            "drift": {
                "alpha": list(self.drift.alpha),
                "beta": list(self.drift.beta),
                "reference_temp": self.drift.reference_temp,
            },
            "cdc": {
                "gain_counts_per_farad": self.cdc.gain_counts_per_farad,
                "noise_sigma_counts": self.cdc.noise_sigma_counts,
                "lag_corner_hz": self.cdc.lag_corner_hz,
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SensorParams":
        try:
            p = data["pillars"]
            g = data["geometry"]
            d = data["drift"]
            c = data.get("cdc", {})
            return cls(
                pillars=PillarModel(
                    youngs_modulus=float(p["youngs_modulus"]),
                    height=float(p["height"]),
                    radius=float(p["radius"]),
                    ring_radii=tuple(float(r) for r in p["ring_radii"]),
                    ring_counts=tuple(int(n) for n in p["ring_counts"]),
                ),
                geometry=SensorGeometry(
                    nominal_gap=float(g["nominal_gap"]),
                    quadrant_x=tuple(float(v) for v in g["quadrant_x"]),
                    quadrant_y=tuple(float(v) for v in g["quadrant_y"]),
                    normal_electrode_area=float(g["normal_electrode_area"]),
                    shear_overlap_area=float(g["shear_overlap_area"]),
                    finger_pitch=float(g["finger_pitch"]),
                    pillar_fill_fraction=float(g["pillar_fill_fraction"]),
                    eps_pillar=float(g.get("eps_pillar", 3.0)),
                    eps_air=float(g.get("eps_air", 1.0)),
                ),
                drift=DriftModel(
                    alpha=tuple(float(v) for v in d["alpha"]),
                    beta=tuple(float(v) for v in d["beta"]),
                    reference_temp=float(d["reference_temp"]),
                ),
                cdc=CdcConfig(
                    gain_counts_per_farad=float(c.get("gain_counts_per_farad", 1.0e15)),
                    noise_sigma_counts=float(c.get("noise_sigma_counts", 2.0)),
                    lag_corner_hz=(None if c.get("lag_corner_hz") is None
                                   else float(c["lag_corner_hz"])),
                ),
            )
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
        if any(c < 0 for c in self.normal_counts) or any(c < 0 for c in self.shear_counts):
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


def _compressed_state(pillars: PillarModel, dz, sqrt=np.sqrt) -> tuple:
    """Height, area and aspect ratio of one pillar squashed by dz.

    Constant-volume compression: the radius grows as the height shrinks, so
    area * height stays fixed.  Valid for 0 <= dz < height.  Float callers
    pass math.sqrt; both square roots are correctly rounded, so the bits agree.
    """
    h_eff = pillars.height - dz
    area = pillars.pillar_area * pillars.height / h_eff
    radius = sqrt(area / math.pi)
    eta = h_eff / radius
    return h_eff, area, eta


def pillar_stiffness(pillars: PillarModel, geometry: SensorGeometry, dz: float) -> StiffnessSet:
    """Plate stiffnesses with the array compressed by dz meters.

    Normal stiffness follows the compressed effective modulus and grown
    cross-section; shear and torsion use the nominal geometry (tangential
    comb travel is small compared to the pillar radius).
    """
    if dz < 0.0:
        raise SensorRangeError(f"compression dz {dz!r} must be non-negative")
    if dz >= pillars.height:
        raise SensorRangeError(f"compression dz {dz!r} not below pillar height")
    h_eff, area, eta = _compressed_state(pillars, dz, math.sqrt)
    e_eff = effective_modulus(pillars.youngs_modulus, eta)
    kz_per_pillar = e_eff * area / h_eff
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
    because the pillars fatten and their effective modulus rises.
    """
    h = pillars.height
    r = pillars.radius
    a = h - dz
    scale = pillars.count * pillars.youngs_modulus * pillars.pillar_area * h
    linear = 1.0 / a - 1.0 / h
    quartic = (r * r * h / 8.0) * (1.0 / a**4 - 1.0 / h**4)
    return scale * (linear + quartic)


def _solve_dz(pillars: PillarModel, fz) -> np.ndarray:
    """Vectorized guarded Newton solve of _axial_force(dz) = fz, fz >= 0."""
    fz = np.asarray(fz, dtype=float)
    h = pillars.height
    cap = _SOLVE_CAP_FRACTION * h
    e0 = effective_modulus(pillars.youngs_modulus, pillars.aspect_ratio)
    k0 = pillars.count * e0 * pillars.pillar_area / h
    dz = np.clip(fz / k0, 0.0, cap)
    lo = np.zeros_like(dz)
    hi = np.full_like(dz, cap)
    for _ in range(80):
        f = _axial_force(pillars, dz)
        resid = f - fz
        if np.all(np.abs(resid) < 1e-12 * np.maximum(1.0, np.abs(fz))):
            break
        lo = np.where(resid < 0.0, dz, lo)
        hi = np.where(resid > 0.0, dz, hi)
        _, area, eta = _compressed_state(pillars, dz)
        k = pillars.count * effective_modulus(pillars.youngs_modulus, eta) * area / (h - dz)
        step = dz - resid / k
        # fall back to bisection whenever Newton leaves the bracket
        bad = (step <= lo) | (step >= hi)
        dz = np.where(bad, 0.5 * (lo + hi), step)
    resid = np.abs(_axial_force(pillars, dz) - fz)
    if np.any(resid >= 1e-9):
        raise SaturationError("no axial equilibrium within stroke (residual >= 1e-9 N)")
    return dz


def _solve_dz_float(pillars: PillarModel, fz: float) -> float:
    """_solve_dz for one load on Python floats: the same iterates, bit for bit."""
    h = pillars.height
    cap = _SOLVE_CAP_FRACTION * h
    n, youngs = pillars.count, pillars.youngs_modulus
    k0 = n * effective_modulus(youngs, pillars.aspect_ratio) * pillars.pillar_area / h
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
        h_eff, area, eta = _compressed_state(pillars, dz, math.sqrt)
        step = dz - resid / (n * effective_modulus(youngs, eta) * area / h_eff)
        dz = 0.5 * (lo + hi) if step <= lo or step >= hi else step
    if not abs(_axial_force(pillars, dz) - fz) < 1e-9:  # NaN fails too
        raise SaturationError("no axial equilibrium within stroke (residual >= 1e-9 N)")
    return dz


def solve_deformation(w: Wrench, pillars: PillarModel, geometry: SensorGeometry) -> PlateDisplacement:
    """Static plate pose under an applied wrench.

    The normal axis is solved iteratively against the stiffening pillar
    column; the shear and rotational axes are linear in the respective
    stiffnesses evaluated at the solved compression.  Raises
    SaturationError when the wrench has no equilibrium inside the stroke
    (dz beyond 80% of pillar height, tension, or tilt outside the
    small-angle window).
    """
    if w.fz < 0.0:
        raise SaturationError("tensile normal load is outside the model range")
    dz = _solve_dz_float(pillars, float(w.fz))
    if dz >= MAX_COMPRESSION_FRACTION * pillars.height:
        raise SaturationError(
            f"normal stroke exhausted: dz {dz:.3e} beyond "
            f"{MAX_COMPRESSION_FRACTION:.0%} of pillar height")
    stiff = pillar_stiffness(pillars, geometry, dz)
    disp = PlateDisplacement(
        dz=dz,
        theta_x=w.mx * MNM_TO_NM / stiff.k_tilt,
        theta_y=w.my * MNM_TO_NM / stiff.k_tilt,
        dx=w.fx / stiff.k_xy,
        dy=w.fy / stiff.k_xy,
        theta_z=w.mz * MNM_TO_NM / stiff.k_torsion,
    )
    return disp


def _quadrant_gaps(d: PlateDisplacement, geometry: SensorGeometry) -> list[float]:
    """Local electrode gap under each quadrant centroid (m); raises once one closes."""
    gaps = [geometry.nominal_gap - (d.dz + d.theta_x * y - d.theta_y * x)
            for x, y in zip(geometry.quadrant_x, geometry.quadrant_y)]
    if any(g <= 0.0 for g in gaps):
        raise SaturationError("electrode gap closed under tilt/compression")
    return gaps


def normal_mode_capacitance(d: PlateDisplacement, geometry: SensorGeometry) -> tuple[float, ...]:
    """Quadrant gap-sensing capacitances Z1..Z4 in farads."""
    num = EPSILON_0 * geometry.eps_effective * geometry.normal_electrode_area
    return tuple(num / g for g in _quadrant_gaps(d, geometry))


def shear_mode_capacitance(d: PlateDisplacement, geometry: SensorGeometry) -> tuple[float, ...]:
    """Differential overlap-area capacitances X1..X4, Y1..Y4 in farads.

    Each quadrant carries a +/- comb pair whose overlap areas split linearly
    with tangential travel; both members share the local quadrant gap, which
    retains the normal-load cross-coupling seen on a physical device.
    """
    half_pitch = 0.5 * geometry.finger_pitch
    if max(abs(d.dx), abs(d.dy)) >= half_pitch:
        raise SensorRangeError("tangential travel beyond half a finger pitch")
    gaps = _quadrant_gaps(d, geometry)
    qx, qy = geometry.quadrant_x, geometry.quadrant_y
    # rigid in-plane motion, (dx, dy) plus theta_z cross centroid, along each
    # quadrant's sensitive axis: quadrants 1 and 3 sense x, 2 and 4 sense y
    deltas = (d.dx - d.theta_z * qy[0], d.dy + d.theta_z * qx[1],
              d.dx - d.theta_z * qy[2], d.dy + d.theta_z * qx[3])
    if any(abs(v) >= half_pitch for v in deltas):
        raise SensorRangeError("comb overlap wrapped: quadrant travel beyond half pitch")
    num = EPSILON_0 * geometry.eps_effective * geometry.shear_overlap_area
    caps: list[float] = []
    for q in (0, 2, 1, 3):  # order: (Q1+, Q1-), (Q3+, Q3-), (Q2+, Q2-), (Q4+, Q4-)
        base = num / gaps[q]
        ratio = deltas[q] / geometry.finger_pitch
        caps += (base * (1.0 + ratio), base * (1.0 - ratio))
    return tuple(caps)


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def capacitances(w: Wrench, params: SensorParams) -> np.ndarray:
    """Noise-free channel capacitances for one wrench, farads, fixed order."""
    d = solve_deformation(w, params.pillars, params.geometry)
    cn = normal_mode_capacitance(d, params.geometry)
    cs = shear_mode_capacitance(d, params.geometry)
    return np.array(cn + cs)


def sample(w: Wrench, temperature: float, params: SensorParams, rng,
           timestamp: float = 0.0) -> CapacitanceFrame:
    """One CDC reading of the full channel set under a static wrench.

    Applies the thermal baseline scale, converts to counts, adds Gaussian
    read noise and rounds to non-negative integers.  Deterministic for a
    given rng seed.
    """
    gen = _as_rng(rng)
    caps = capacitances(w, params)
    scale = params.drift.scale(temperature)
    mean = params.cdc.gain_counts_per_farad * caps * scale
    noisy = mean + params.cdc.noise_sigma_counts * gen.normal(size=NUM_CHANNELS)
    counts = np.maximum(np.rint(noisy), 0.0).astype(int)
    return CapacitanceFrame.from_counts(counts.tolist(), timestamp, temperature)


def sample_trajectory(wrenches: np.ndarray, temperatures: np.ndarray, params: SensorParams,
                      rng) -> np.ndarray:
    """Vectorized counts for a (N, 6) wrench trajectory; returns (N, 12) ints.

    Equivalent to calling sample row by row with a shared generator: the
    noise draw order matches, so scalar and batch paths agree bit for bit.
    """
    gen = _as_rng(rng)
    w = np.asarray(wrenches, dtype=float)
    if w.ndim != 2 or w.shape[1] != 6:
        raise SensorRangeError(f"wrench trajectory must be (N, 6), got {w.shape}")
    temps = np.asarray(temperatures, dtype=float)
    if temps.shape != (w.shape[0],):
        raise SensorRangeError("one temperature per wrench sample required")
    pillars, geometry = params.pillars, params.geometry

    if np.any(w[:, 2] < 0.0):
        raise SaturationError("tensile normal load is outside the model range")
    dz = _solve_dz(pillars, w[:, 2])
    if np.any(dz >= MAX_COMPRESSION_FRACTION * pillars.height):
        raise SaturationError("normal stroke exhausted in trajectory")
    h_eff, area, eta = _compressed_state(pillars, dz)
    kz_per = effective_modulus(pillars.youngs_modulus, eta) * area / h_eff
    kxy_per = pillars.shear_modulus * pillars.pillar_area / pillars.height
    second = pillars.radial_second_moment
    k_tilt = kz_per * second
    k_torsion = kxy_per * second * np.ones_like(dz)
    theta_x = w[:, 3] * MNM_TO_NM / k_tilt
    theta_y = w[:, 4] * MNM_TO_NM / k_tilt
    theta_z = w[:, 5] * MNM_TO_NM / k_torsion
    dx = w[:, 0] / (pillars.count * kxy_per)
    dy = w[:, 1] / (pillars.count * kxy_per)
    if np.max(np.abs(np.stack([theta_x, theta_y, theta_z]))) >= 0.1:
        raise SensorRangeError("small-angle model invalid beyond 0.1 rad")

    qx = np.asarray(geometry.quadrant_x)
    qy = np.asarray(geometry.quadrant_y)
    gaps = geometry.nominal_gap - (dz[:, None] + np.outer(theta_x, qy) - np.outer(theta_y, qx))
    if np.any(gaps <= 0.0):
        raise SaturationError("electrode gap closed under tilt/compression")
    eps = EPSILON_0 * geometry.eps_effective
    c_normal = eps * geometry.normal_electrode_area / gaps

    half_pitch = 0.5 * geometry.finger_pitch
    tx = dx[:, None] - np.outer(theta_z, qy)
    ty = dy[:, None] + np.outer(theta_z, qx)
    deltas = np.where(np.arange(4) % 2 == 0, tx, ty)
    if np.max(np.abs(dx)) >= half_pitch or np.max(np.abs(dy)) >= half_pitch \
            or np.max(np.abs(deltas)) >= half_pitch:
        raise SensorRangeError("tangential travel beyond half a finger pitch")
    ratio = deltas / geometry.finger_pitch
    base = eps * geometry.shear_overlap_area / gaps
    plus = base * (1.0 + ratio)
    minus = base * (1.0 - ratio)
    caps = np.column_stack([
        c_normal,
        plus[:, 0], minus[:, 0], plus[:, 2], minus[:, 2],
        plus[:, 1], minus[:, 1], plus[:, 3], minus[:, 3],
    ])

    dt = temps - params.drift.reference_temp
    alpha = np.asarray(params.drift.alpha)
    beta = np.asarray(params.drift.beta)
    scale = 1.0 + alpha * dt[:, None] + beta * (dt * dt)[:, None]
    mean = params.cdc.gain_counts_per_farad * caps * scale
    noisy = mean + params.cdc.noise_sigma_counts * gen.normal(size=mean.shape)
    return np.maximum(np.rint(noisy), 0.0).astype(int)


@dataclass
class FirstOrderLag:
    """Optional mechanical lag applied to the wrench seen by the transducer."""

    corner_hz: float
    _state: np.ndarray | None = None

    def step(self, w: Wrench, dt: float) -> Wrench:
        if dt <= 0.0:
            raise SensorRangeError("lag step requires dt > 0")
        target = np.asarray(w.as_tuple())
        if self._state is None:
            self._state = target.copy()
        else:
            alpha = 1.0 - math.exp(-2.0 * math.pi * self.corner_hz * dt)
            self._state = self._state + alpha * (target - self._state)
        return Wrench.from_sequence(self._state)


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
