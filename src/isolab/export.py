"""Mesh and curve export, plus the Euclidean tautness spot check on
stereographic images (ring cyclides) of the two-curvature family.

Only ambient dimension 4 is meshable (surfaces in the 3-sphere projecting to
surfaces in 3-space); higher-dimensional families export point clouds as CSV
instead.  OBJ output uses a consistent winding so compact images are
watertight: every edge is shared by exactly two triangles in opposite
directions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InputContractError, MeshExportError
from .families import Report, seeded_rng
from .focal import _circle_profile
from .levelset import (_frames_batch, _hypersurface_level, _level_jet,
                       _normalize_rows, _row_norms, sample_points)
from .morse import (_NEWTON_MAX_ITER, _chart_hessians, _chart_step, _dedup,
                    _level_flow, _masked_newton)
from .shape import spectrum_at
from .sphere import SpherePoint, tangent_basis

_CLIP_RADIUS = 1e-3
_FOCAL_POLE_TOL = 1e-6


@dataclass
class MeshData:
    vertices: np.ndarray         # (V, 3)
    faces: np.ndarray            # (F, 3) zero-based
    flagged_faces: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def _edge_counts(self):
        """How many triangles share each undirected edge."""
        pairs = self.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        edges = np.sort(pairs, axis=1)
        return np.unique(edges, axis=0, return_counts=True)[1]

    def euler_characteristic(self):
        return int(len(self.vertices) - len(self._edge_counts())
                   + len(self.faces))

    def is_watertight(self):
        return bool((self._edge_counts() == 2).all())


def _stereo_rows(points, basis, q):
    """Stereographic projection of an (N, D) block from the pole q, with
    `basis` the rows of its `tangent_basis`."""
    dots = points @ q
    return (points @ basis.T) / (1.0 - dots)[:, None], dots


def _torus_grid(s, resolution):
    a = np.sqrt((1.0 + s) / 2.0)
    b = np.sqrt((1.0 - s) / 2.0)
    ang = 2.0 * np.pi * np.arange(resolution) / resolution
    phi, psi = np.meshgrid(ang, ang, indexing="ij")
    pts = np.stack([a * np.cos(phi), a * np.sin(phi),
                    b * np.cos(psi), b * np.sin(psi)], axis=-1)
    return pts.reshape(-1, 4)


def _sphere_grid(s, resolution, axis):
    # level of a height function on S^3: a 2-sphere of radius sqrt(1-s^2)
    rad = np.sqrt(1.0 - s * s)
    a = np.zeros(4)
    a[axis] = 1.0
    frame = tangent_basis(SpherePoint(a)).vectors
    rows = [s * a + rad * frame[2]]           # north cap
    for i in range(1, resolution):
        th = np.pi * i / resolution
        for j in range(resolution):
            ph = 2 * np.pi * j / resolution
            v = (np.sin(th) * np.cos(ph) * frame[0]
                 + np.sin(th) * np.sin(ph) * frame[1]
                 + np.cos(th) * frame[2])
            rows.append(s * a + rad * v)
    rows.append(s * a - rad * frame[2])       # south cap
    return np.array(rows)


def _grid_faces(resolution):
    # the doubly periodic grid of `_torus_grid`, two triangles per cell
    r = resolution
    i, j = np.meshgrid(np.arange(r), np.arange(r), indexing="ij")
    v00, v01 = i * r + j, i * r + (j + 1) % r
    v10, v11 = (i + 1) % r * r + j, (i + 1) % r * r + (j + 1) % r
    return np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)


def _sphere_faces(resolution):
    r = resolution
    faces = []
    def ring(i, j):
        return 1 + (i - 1) * r + (j % r)
    for j in range(r):  # north fan
        faces.append((0, ring(1, j), ring(1, j + 1)))
    for i in range(1, r - 1):
        for j in range(r):
            faces.append((ring(i, j), ring(i + 1, j), ring(i + 1, j + 1)))
            faces.append((ring(i, j), ring(i + 1, j + 1), ring(i, j + 1)))
    south = 1 + (r - 1) * r
    for j in range(r):  # south fan
        faces.append((south, ring(r - 1, j + 1), ring(r - 1, j)))
    return np.array(faces, dtype=int)


def export_mesh(fam, s, pole: SpherePoint, resolution=64, path=None) -> MeshData:
    """Stereographic image of the level surface M_s as a triangle mesh.

    Supports the two parametrized ambient-dimension-4 families (the torus
    family and level spheres of a height function).  Other families of
    ambient dimension 4 are emitted as a vertex cloud with a warning; higher
    ambient dimensions are refused (use the CSV point-cloud export).
    """
    if fam.ambient_dim != 4:
        raise MeshExportError(
            "mesh export needs ambient dimension 4; export a CSV point cloud "
            "for higher-dimensional families")
    s = _hypersurface_level(s)
    if resolution < 3:
        # the smallest grids that close up: a watertight torus (chi 0) and
        # sphere (chi 2) need 3 vertices around each circle
        raise InputContractError(
            f"mesh resolution must be at least 3, got {resolution}")
    warnings = []
    if abs(float(fam.polynomial.value(pole.coords))) > 1.0 - _FOCAL_POLE_TOL:
        warnings.append(
            "unbounded-image: the projection pole lies on the focal set, so "
            "the family's image passes through infinity")
    faces = None
    if fam.label == "clifford":
        points = _torus_grid(s, resolution)
        faces = _grid_faces(resolution)
    elif fam.label == "great-sphere":
        axis = int(np.argmax(np.abs(fam.polynomial.gradient(pole.coords))))
        points = _sphere_grid(s, resolution, axis)
        faces = _sphere_faces(resolution)
    else:
        points = np.array([p.x.coords for p in
                           sample_points(fam, s, resolution * resolution, seed=0)])
        warnings.append("no parametrization for this family: emitting a "
                        "vertex cloud without faces")
    verts, dots = _stereo_rows(points, tangent_basis(pole).vectors,
                               pole.coords)
    near = np.arccos(np.clip(dots, -1.0, 1.0)) < _CLIP_RADIUS
    if near.any():
        warnings.append(
            f"near-singularity: {int(near.sum())} vertices within "
            f"{_CLIP_RADIUS:g} of the pole; incident triangles are flagged")
    if faces is None:
        faces = np.zeros((0, 3), dtype=int)
    flagged = np.flatnonzero(near[faces].any(axis=1)).tolist()
    mesh = MeshData(vertices=verts, faces=faces, flagged_faces=flagged,
                    warnings=warnings)
    if path is not None:
        write_obj(mesh, path)
    return mesh


def write_obj(mesh: MeshData, path):
    """ASCII OBJ with v/f records; flagged faces go to a separate group."""
    flagged = set(mesh.flagged_faces)
    with open(path, "w") as fh:
        for note in mesh.warnings:
            fh.write(f"# {note}\n")
        for v in mesh.vertices:
            fh.write("v {:.17g} {:.17g} {:.17g}\n".format(*v))
        fh.write("g surface\n")
        for k, tri in enumerate(mesh.faces):
            if k not in flagged:
                fh.write(f"f {tri[0] + 1} {tri[1] + 1} {tri[2] + 1}\n")
        if flagged:
            fh.write("g clipped\n")
            for k in sorted(flagged):
                tri = mesh.faces[k]
                fh.write(f"f {tri[0] + 1} {tri[1] + 1} {tri[2] + 1}\n")


def export_spectrum_csv(fam, s, num_samples, seed, path):
    """Rows: level, point index, the g distinct curvatures, multiplicities."""
    pts = sample_points(fam, _hypersurface_level(s), num_samples, seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = (["level", "point"]
                  + [f"lambda{i + 1}" for i in range(fam.g)]
                  + [f"mult{i + 1}" for i in range(fam.g)])
        writer.writerow(header)
        for k, p in enumerate(pts):
            spec = spectrum_at(p)
            writer.writerow([repr(float(s)), k]
                            + [repr(float(v)) for v in spec.values]
                            + list(spec.multiplicities))
    return path


def export_focal_circle_csv(fam, s, seed, path, grid_size=720):
    """Rows: t, V along the normal circle at t, and the focal side tag
    (+/-1 at focal parameters, 0 elsewhere)."""
    ts, vals = _circle_profile(
        fam, sample_points(fam, _hypersurface_level(s), 1, seed)[0], grid_size)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "V", "side"])
        for t, v in zip(ts, vals):
            side = 1 if v > 1 - 1e-9 else (-1 if v < -1 + 1e-9 else 0)
            writer.writerow([repr(float(t)), repr(float(v)), side])
    return path


def export_point_cloud_csv(fam, s, count, seed, pole, path):
    """Stereographic point cloud of M_s for families with no mesh support."""
    pts = np.array([p.x.coords for p in sample_points(
        fam, _hypersurface_level(s), count, seed)])
    proj, _ = _stereo_rows(pts, tangent_basis(pole).vectors, pole.coords)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"y{i + 1}" for i in range(proj.shape[1])])
        for row in proj:
            writer.writerow([repr(float(v)) for v in row])
    return path


# -- Euclidean tautness spot check -------------------------------------------

@dataclass
class SpotCheckReport(Report):
    family: str
    level: float
    pole: list
    num_centers: int
    seed: int
    counts: list
    index_multisets: list
    resampled_centers: int
    passed: bool


def _distance_gradient(X, basis, q, center, xi):
    """The Riemannian gradient of L = |sigma(x) - c|^2 on the level through
    the rows of X, sigma(x) = Bx / (1 - <x, q>) the projection from the pole
    q with `tangent_basis` rows B: the ambient gradient
    2 (B^T r + <r, y> q) / (1 - <x, q>), y = sigma(x) and r = y - c, less
    its parts along x and along the level's unit normals xi at X."""
    y, dots = _stereo_rows(X, basis, q)
    r = y - center
    grad = 2 * (r @ basis + np.einsum("ij,ij->i", r, y)[:, None] * q)
    grad /= (1.0 - dots)[:, None]
    return (grad - np.einsum("ij,ij->i", grad, X)[:, None] * X
            - np.einsum("ij,ij->i", grad, xi)[:, None] * xi)


def _distance_critical_points(fam, s, grid, basis, q, center, tol):
    """Hessian eigenvalues (K, 2) of L = |sigma(x) - c|^2 at its K critical
    points on M_s, in the frames of `_frames_batch`.

    Newton (`_masked_newton`, steps by `_chart_step` with the Jacobian from
    the `_chart_hessians` stencil) runs from the rows of `grid` and from the
    ends of two `_level_flow`s, a descent from the grid's argmin of L and an
    ascent from its argmax: where the pole stretches the image, the grid
    alone misses the minimum or the maximum.  A start counts as converged
    once its Riemannian gradient is below `tol`; `_dedup` merges them."""
    def value(X):
        return np.sum((_stereo_rows(X, basis, q)[0] - center) ** 2, axis=1)

    def gradient(X, *jet):
        xi = _normalize_rows(_level_jet(fam, X, jet or None)[1])
        return _distance_gradient(X, basis, q, center, xi)

    def residual(rows, *jet):
        xi, frames, _vals, _wn = _frames_batch(fam, rows, jet or None)
        grad = _distance_gradient(rows, basis, q, center, xi)
        return _row_norms(grad), [frames, grad]

    def step(rows, state):
        frames, grad = state
        jac = _chart_hessians(fam, s, rows, frames, 1e-9, gradient)
        return _chart_step(fam, s, rows, frames, jac, grad)

    ell = value(grid)
    ends = _level_flow(fam, s, grid[[np.argmin(ell), np.argmax(ell)]], value,
                       gradient, np.array([-1.0, 1.0]))
    X = np.concatenate([grid, ends])
    rnorm = _masked_newton(X, residual(X), residual, step, tol,
                           _NEWTON_MAX_ITER)[0]
    sols = _dedup(fam, X[rnorm <= tol], rnorm[rnorm <= tol])
    return np.linalg.eigvalsh(_chart_hessians(
        fam, s, sols, _frames_batch(fam, sols)[1], 1e-9, gradient))


def euclidean_taut_spot_check(fam, s, pole: SpherePoint, num_centers=25,
                              seed=0) -> SpotCheckReport:
    """Count critical points of Euclidean squared-distance functions on the
    projected torus (a ring cyclide).

    Tightness on the sphere transports through stereographic projection to
    tautness in Euclidean space, so every non-degenerate center must see
    exactly 4 critical points with index multiset {0, 1, 1, 2}.  The points
    are found on M_s itself, as critical points of the squared distance
    pulled back through the projection (`_distance_critical_points`).
    Centers with near-singular Hessians are resampled and counted.
    """
    if fam.label != "clifford" or fam.ambient_dim != 4:
        raise InputContractError(
            "the spot check needs the two-curvature family on the 3-sphere")
    s = _hypersurface_level(s)
    if num_centers < 1:
        raise InputContractError(
            f"the spot check needs at least one center, got {num_centers}")
    if abs(float(fam.polynomial.value(pole.coords)) - s) < 1e-3:
        raise InputContractError("projection pole too close to the surface")
    rng = seeded_rng(seed, 0xC9C)
    basis, q = tangent_basis(pole).vectors, pole.coords
    grid = _torus_grid(s, 24)
    ysamp, _ = _stereo_rows(grid, basis, q)
    center_mid = ysamp.mean(axis=0)
    scale = np.linalg.norm(ysamp - center_mid, axis=1).max()
    counts, multisets = [], []
    resampled = 0
    while len(counts) < num_centers:
        center = center_mid + scale * rng.normal(size=3)
        eig = _distance_critical_points(fam, s, grid, basis, q, center,
                                        1e-9 * max(1.0, scale ** 2))
        # no critical point at all counts as a failure, not as degenerate
        mags = np.abs(eig)
        if mags.min(initial=np.inf) < 1e-6 * mags.max(initial=0.0):
            resampled += 1
            if resampled > 20 * num_centers:
                raise InputContractError("could not find non-degenerate centers")
            continue
        counts.append(len(eig))
        multisets.append(sorted((eig < 0).sum(axis=1).tolist()))
    return SpotCheckReport(
        family=fam.label, level=float(s),
        pole=[float(v) for v in pole.coords], num_centers=num_centers,
        seed=seed, counts=counts, index_multisets=multisets,
        resampled_centers=resampled,
        passed=all(m == [0, 1, 1, 2] for m in multisets))
