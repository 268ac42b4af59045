"""Generate the bundled rat calvaria surrogate dataset.

The classical Vilmann/Bookstein rat calvaria archive (8 landmarks digitized
on midsagittal X-rays of 18 rats at 8 ages, distributed via
http://life.bio.sunysb.edu/morph/data/datasets.html) could not be downloaded
in the build environment, so the package ships this synthetic stand-in with
the same design (18 subjects x 8 ages x 8 planar landmarks) and with growth
structure calibrated so the shape-space fits reach the reference
determination coefficients 0.79 / 0.85 / 0.87 at orders 1 / 2 / 3.

Construction: a calvaria-like base shape is deformed along three orthonormal
horizontal modes.  Mode one follows a full cubic time course (an accelerating
growth axis), mode two follows the quadratic component orthogonal to linear
trends over the actual age design, and mode three the cubic component
orthogonal to quadratics, so each successive polynomial order captures one
more mode.  Subjects get a persistent random shape offset plus
per-observation digitizing noise; landmark rows are emitted at a growing
size and fixed translation to exercise the similarity standardization.

Regenerate with:  python scripts/make_rat_fixture.py
Swap in the real archive file via
``riempoly convert-tps --ages 7,14,21,30,40,60,90,150``.
"""

import pathlib

import numpy as np

from riempoly import KendallShapeSpace
from riempoly.landmarks import LandmarkFileRecord, write_landmarks_csv

AGES = np.array([7.0, 14.0, 21.0, 30.0, 40.0, 60.0, 90.0, 150.0])
N_RATS = 18
SEED = 20260808

# calvaria-like octagon: vault points on top, cranial-base points below
BASE_SHAPE = np.array([
    [-1.00, -0.30],   # basion
    [-1.15, 0.10],    # opisthion
    [-0.75, 0.60],    # interparietal
    [-0.25, 0.75],    # lambda
    [0.55, 0.72],     # bregma
    [0.95, -0.18],    # spheno-ethmoid
    [0.45, -0.32],    # intersphenoidal
    [-0.30, -0.38],   # spheno-occipital
])

# time course of the dominant growth axis (coefficients of s, s^2/2, s^3/6)
MODE1_COEFFS = (0.20, 0.22, 0.12)
# weights of the design-orthogonalized quadratic and cubic components
MODE2_WEIGHT = 0.0263
MODE3_WEIGHT = 0.0163
SUBJECT_SD = 9.5e-3          # per-axis, horizontal, per subject
NOISE_SD = 7.7e-3            # per-axis, horizontal, per observation


def normalized_s() -> np.ndarray:
    return (AGES - AGES[0]) / (AGES[-1] - AGES[0])


def orthogonal_time_courses():
    """Quadratic and cubic time courses orthonormal to lower degrees.

    Orthogonality is taken over the actual (skewed) age design, so the
    quadratic course is invisible to a geodesic fit and the cubic course is
    invisible to a quadratic fit.
    """
    s = normalized_s()

    def project_out(f, deg):
        v = np.stack([s**j for j in range(deg + 1)], axis=1)
        beta, *_ = np.linalg.lstsq(v, f, rcond=None)
        return f - v @ beta

    q2 = project_out(s**2 / 2.0, 1)
    q2 /= np.sqrt(np.mean(q2 * q2))
    q3 = project_out(s**3 / 6.0, 2)
    q3 /= np.sqrt(np.mean(q3 * q3))
    return q2, q3


def deformation_modes(space, base_flat):
    """Three smooth independent fields, made horizontal and orthonormal."""
    pts = BASE_SHAPE - BASE_SHAPE.mean(axis=0)
    elongate = np.stack([0.6 * pts[:, 0], -0.35 * pts[:, 1]], axis=1)
    flatten = np.stack([0.15 * pts[:, 1], -0.5 * np.abs(pts[:, 0]) * pts[:, 1]], axis=1)
    bend = np.stack([0.3 * pts[:, 1] ** 2, 0.45 * pts[:, 0] ** 2], axis=1)
    modes = []
    for field in (elongate, flatten, bend):
        v = space.project_tangent(base_flat, field.reshape(-1))
        for u in modes:
            v = v - np.dot(v, u) * u
        modes.append(v / np.sqrt(v @ v))
    return modes


def make_records():
    rng = np.random.default_rng(SEED)
    space = KendallShapeSpace(8, 2)
    base = space.from_landmarks(BASE_SHAPE)
    u1, u2, u3 = deformation_modes(space, base)
    s = normalized_s()
    a1, b1, c1 = MODE1_COEFFS
    course1 = a1 * s + b1 * s**2 / 2.0 + c1 * s**3 / 6.0
    q2, q3 = orthogonal_time_courses()

    trend = (
        course1[:, None] * u1
        + (MODE2_WEIGHT * q2)[:, None] * u2
        + (MODE3_WEIGHT * q3)[:, None] * u3
    )

    records = []
    for rat in range(N_RATS):
        offset = space.project_tangent(
            base, rng.standard_normal(16) * SUBJECT_SD
        )
        for j, age in enumerate(AGES):
            noise = space.project_tangent(
                base, rng.standard_normal(16) * NOISE_SD
            )
            y = space.exp(base, space.project_tangent(
                base, trend[j] + offset + noise
            ))
            # raw digitizer-like units; shape analysis removes size and origin
            size = 1.0 + 0.9 * s[j]
            pts = y.reshape(8, 2) * size * 100.0 + np.array([120.0, 80.0])
            records.append(
                LandmarkFileRecord(id=f"rat{rat + 1:02d}", time=age, landmarks=pts)
            )
    return records


if __name__ == "__main__":
    out = pathlib.Path(__file__).resolve().parents[1] / "src" / "riempoly" / "data"
    out.mkdir(parents=True, exist_ok=True)
    records = make_records()
    write_landmarks_csv(records, out / "rat_calvaria_synthetic.csv")
    print(f"wrote {len(records)} records")
