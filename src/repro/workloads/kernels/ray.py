"""RAY — ray tracing (GPGPU-Sim benchmark suite).

Table II: Group 3; High thrashing, High delay tolerance, High activation
sensitivity, Low Th_RBL sensitivity, High error tolerance.

Group 3 because its rows are rarely read-only when opened: shading
writes land in the same rows as scene reads, so AMS coverage cannot
reach 10 % even though the (smooth) scene data is very tolerant.
"""

from __future__ import annotations

import numpy as np

from repro.config.gpu import GPUConfig
from repro.workloads.base import Workload
from repro.workloads.data import smooth_field
from repro.workloads.traces import interleave, row_visit_streams


class Ray(Workload):
    """Sphere-scene ray casting with Lambert shading."""

    name = "RAY"
    description = "ray tracing"
    input_kind = "Matrix"
    group = 3

    N_SPHERES = 64

    def _build(self) -> None:
        side = self.dim2(768, multiple=48, minimum=96)
        self.side = side
        rng = self.rng
        spheres = np.stack(
            [
                rng.uniform(-4, 4, self.N_SPHERES),
                rng.uniform(-4, 4, self.N_SPHERES),
                rng.uniform(4, 14, self.N_SPHERES),
                rng.uniform(0.5, 1.8, self.N_SPHERES),
            ],
            axis=1,
        ).astype(np.float32)
        self.register("scene", smooth_field(rng, (side, side)),
                      approximable=True)
        self.register("spheres", spheres)
        self.register("frame", np.zeros((side, side), dtype=np.float32))

    def warp_streams(self, config: GPUConfig):
        m = config.mapping
        # Irregular scene gathers in two skewed waves (delay merges them).
        gathers = row_visit_streams(
            self.space, "scene", m,
            n_warps=self.warps(200), lines_per_visit=3, lines_per_op=1,
            visits_per_row=2, skew_cycles=(300.0, 2400.0),
            compute=self.cycles(25.0), shuffle_seed=self.seed,
        )
        # Shading writes into the same DRAM rows (line-offset apart):
        # these make most opened rows non-read-only, starving AMS.
        shade_writes = row_visit_streams(
            self.space, "scene", m,
            n_warps=self.warps(32), lines_per_visit=2, visits_per_row=1,
            line_offset=6, compute=self.cycles(50.0), write=True,
            shuffle_seed=self.seed + 1,
        )
        frame_out = row_visit_streams(
            self.space, "frame", m,
            n_warps=self.warps(8), lines_per_visit=8, visits_per_row=1,
            compute=self.cycles(50.0), write=True,
        )
        return interleave(gathers, shade_writes, frame_out)

    def run_kernel(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        side = self.side
        scene = arrays["scene"].astype(np.float64)
        spheres = arrays["spheres"].astype(np.float64)
        ys, xs = np.meshgrid(
            np.linspace(-1, 1, side), np.linspace(-1, 1, side),
            indexing="ij",
        )
        # Ray directions through the pixel grid (pinhole at origin).
        dz = np.ones_like(xs)
        norm = np.sqrt(xs**2 + ys**2 + dz**2)
        dirs = np.stack([xs / norm, ys / norm, dz / norm], axis=-1)
        best_t = np.full((side, side), np.inf)
        shade = np.zeros((side, side))
        light = np.array([0.4, 0.7, -0.6])
        light = light / np.linalg.norm(light)
        for cx, cy, cz, r in spheres:
            center = np.array([cx, cy, cz])
            block = _screen_box(cx, cy, cz, r, side)
            if block is None:
                continue
            sub = dirs[block]
            b = sub @ center
            c = center @ center - r * r
            disc = b * b - c
            hit = disc > 0
            t = b - np.sqrt(np.where(hit, disc, 0.0))
            valid = hit & (t > 0) & (t < best_t[block])
            if not valid.any():
                continue
            point = sub * t[..., None]
            normal = (point - center) / r
            lam = np.clip(normal @ light, 0.0, 1.0)
            shade[block] = np.where(valid, lam, shade[block])
            best_t[block] = np.where(valid, t, best_t[block])
        # Ambient term modulated by the (approximable) scene texture.
        return (0.2 * scene / scene.max() + 0.8 * shade).astype(np.float64)


def _screen_box(cx, cy, cz, r, side: int):
    """The pixel block (row slice, column slice) a sphere can cover.

    Every point of the sphere lies in the box [cx±r]×[cy±r]×[cz±r]; in
    front of the pinhole (``cz - r > 0``) the slopes x/z and y/z are
    monotone over that box, so its corners bound the pixel coordinates
    of every ray that can hit it. The block is widened by one pixel
    against rounding. A sphere reaching behind the pinhole gets the full
    frame; one entirely off screen gets ``None``.
    """
    near, far = cz - r, cz + r
    if near <= 0:
        return (slice(None), slice(None))
    half = (side - 1) / 2.0

    def pixels(lo, hi):
        slopes = (lo / near, lo / far, hi / near, hi / far)
        first = max(int(np.floor((min(slopes) + 1.0) * half)) - 1, 0)
        last = min(int(np.ceil((max(slopes) + 1.0) * half)) + 1, side - 1)
        return slice(first, last + 1) if first <= last else None

    rows = pixels(cy - r, cy + r)
    cols = pixels(cx - r, cx + r)
    if rows is None or cols is None:
        return None
    return (rows, cols)
