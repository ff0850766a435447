"""RAY's kernel works on each sphere's screen-space box; it must equal,
bit for bit, the full-frame kernel it replaced (kept here as the
oracle)."""

import numpy as np
import pytest

from repro.workloads import get_workload


def full_frame_ray(side: int, arrays: dict[str, np.ndarray]) -> np.ndarray:
    scene = arrays["scene"].astype(np.float64)
    spheres = arrays["spheres"].astype(np.float64)
    ys, xs = np.meshgrid(
        np.linspace(-1, 1, side), np.linspace(-1, 1, side),
        indexing="ij",
    )
    dz = np.ones_like(xs)
    norm = np.sqrt(xs**2 + ys**2 + dz**2)
    dirs = np.stack([xs / norm, ys / norm, dz / norm], axis=-1)
    best_t = np.full((side, side), np.inf)
    shade = np.zeros((side, side))
    light = np.array([0.4, 0.7, -0.6])
    light = light / np.linalg.norm(light)
    for cx, cy, cz, r in spheres:
        center = np.array([cx, cy, cz])
        b = dirs @ center
        c = center @ center - r * r
        disc = b * b - c
        hit = disc > 0
        t = b - np.sqrt(np.where(hit, disc, 0.0))
        valid = hit & (t > 0) & (t < best_t)
        if not valid.any():
            continue
        point = dirs * t[..., None]
        normal = (point - center) / r
        lam = np.clip(normal @ light, 0.0, 1.0)
        shade = np.where(valid, lam, shade)
        best_t = np.where(valid, t, best_t)
    return (0.2 * scene / scene.max() + 0.8 * shade).astype(np.float64)


def assert_bit_identical(workload, arrays) -> None:
    got = workload.run_kernel(arrays)
    want = full_frame_ray(workload.side, arrays)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "scale,seed", [(0.5, 1), (0.5, 2), (0.25, 3), (0.1, 9), (0.3, 13)]
)
def test_clipped_kernel_matches_full_frame(scale, seed) -> None:
    workload = get_workload("RAY", scale=scale, seed=seed)
    assert_bit_identical(workload, workload.arrays)


def test_perturbed_scene_and_spheres() -> None:
    workload = get_workload("RAY", scale=0.25, seed=4)
    rng = np.random.default_rng(0)
    arrays = dict(workload.arrays)
    scene = arrays["scene"].copy()
    scene.ravel()[rng.integers(0, scene.size, 500)] *= 1.5
    spheres = arrays["spheres"].copy()
    spheres[:, :2] += rng.normal(0, 0.5, (len(spheres), 2)).astype(
        spheres.dtype
    )
    arrays.update(scene=scene, spheres=spheres)
    assert_bit_identical(workload, arrays)


def test_sphere_reaching_behind_the_pinhole_uses_full_frame() -> None:
    workload = get_workload("RAY", scale=0.25, seed=5)

    def with_first_sphere(sphere):
        spheres = workload.arrays["spheres"].copy()
        spheres[0] = sphere
        return dict(workload.arrays, spheres=spheres)

    # cz - r <= 0 but the pinhole is outside the sphere: its front cap
    # is in view, and the box's corner slopes do not bound its pixels.
    arrays = with_first_sphere((1.0, 0.0, 0.6, 0.8))
    assert_bit_identical(workload, arrays)
    off_screen = with_first_sphere((60.0, 0.0, 5.0, 1.0))
    assert not np.array_equal(
        workload.run_kernel(arrays), workload.run_kernel(off_screen)
    )


def test_off_screen_sphere_is_skipped() -> None:
    workload = get_workload("RAY", scale=0.1, seed=6)
    spheres = workload.arrays["spheres"].copy()
    spheres[0] = (60.0, 0.0, 5.0, 1.0)
    arrays = dict(workload.arrays, spheres=spheres)
    assert_bit_identical(workload, arrays)
