"""Mesh and curve export, plus the Euclidean tautness spot check on
stereographic images (ring cyclides) of the two-curvature family.

Only ambient dimension 4 is meshable (surfaces in the 3-sphere projecting to
surfaces in 3-space); higher-dimensional families export point clouds as CSV
instead.  OBJ output uses a consistent winding so compact images are
watertight: every edge is shared by exactly two triangles in opposite
directions.

The spot check is a height-function certificate with a moving pole.  The
squared distance L(x) = |sigma(x) - c|^2 = (a0 + <x, w>) / (1 - <x, q>) is
critical at x with value lam exactly when x is critical for the height
function toward p(lam) = (w + lam q) / |w + lam q|, and there Hess L is a
positive multiple of that height function's Hessian (`_StereoLevel`).  So
the certificates' one Newton body (`morse._newton`) and one classifier
(`morse._classify`) find the points and read both index witnesses.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InputContractError, MeshExportError
from .families import Report, _size, seeded_rng
from .focal import _circle_profile
from .levelset import _hypersurface_level, _normalize_rows, sample_points
from .morse import _Level, _classify, _dedup, _level_flow, _newton
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
    # the smallest grids that close up: a watertight torus (chi 0) and
    # sphere (chi 2) need 3 vertices around each circle
    resolution = _size("resolution", resolution, 3)
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
    pts = sample_points(fam, _hypersurface_level(s),
                        _size("num_samples", num_samples, 1), seed)
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


class _StereoLevel(_Level):
    """The level M_s carrying L(x) = |sigma(x) - c|^2, sigma the projection
    from the pole q with `tangent_basis` rows B.  On the sphere

        L = (a0 + <x, w>) / (1 - <x, q>),  a0 = 1 + |c|^2,
        w = (1 - |c|^2) q - 2 B^T c,

    with ambient gradient (w + L q) / (1 - <x, q>), so x is critical for L
    with value lam exactly when it is critical for the height function
    toward p(lam) = (w + lam q) / |w + lam q|, and there
    Hess L = |w + lam q| / (1 - <x, q>) Hess l_p, a positive multiple.  The
    residual is `_Level.residual` toward the moving poles `poles(X)`; the
    Jacobian leaves out the pole's motion, (grad L . v) T_x q / |w + L q|,
    which vanishes at a critical point, so each step is still a Newton step
    to first order."""

    def __init__(self, fam, s, basis, q, center):
        super().__init__(fam, s)
        c2 = center @ center
        self.q, self.a0 = q, 1.0 + c2
        self.w = (1.0 - c2) * q - 2.0 * (center @ basis)

    def value(self, X):
        return (self.a0 + X @ self.w) / (1.0 - X @ self.q)

    def poles(self, X):
        """p(L(x)), one row per row of X."""
        return _normalize_rows(self.w + self.value(X)[:, None] * self.q)

    def residual(self, rows, _poles, *jet):
        return super().residual(rows, self.poles(rows), *jet)

    start = residual


def _distance_critical_points(sheet, grid):
    """The critical points of L on the `_StereoLevel` sheet, as the
    CriticalPoint records of `_classify` toward each point's pole p(L(x)):
    L's index there is n - index_hessian.

    One `_newton` toward the moving poles runs from the rows of `grid` and
    from the ends of two `_level_flow`s, a descent from the grid's argmin
    of L and an ascent from its argmax: where the pole stretches the image,
    the grid alone misses the minimum or the maximum.  The flows step along
    the tangent part of p(L(x)), which points along grad L.  `_dedup`
    merges the solutions."""
    fam, s = sheet.fam, sheet.level
    ell = sheet.value(grid)
    ends = _level_flow(fam, s, grid[[np.argmin(ell), np.argmax(ell)]],
                       sheet.value,
                       lambda X: sheet.stencil_gradient(sheet.poles(X), X),
                       np.array([-1.0, 1.0]))
    X = np.concatenate([grid, ends])
    sols = _dedup(fam, *_newton(sheet, sheet.poles(X), X, ())[:2])
    return _classify(fam, s, sheet.poles(sols), sols)


def euclidean_taut_spot_check(fam, s, pole: SpherePoint, num_centers=25,
                              seed=0) -> SpotCheckReport:
    """Count critical points of Euclidean squared-distance functions on the
    projected torus (a ring cyclide).

    Tightness on the sphere transports through stereographic projection to
    tautness in Euclidean space, so every non-degenerate center must see
    exactly 4 critical points with index multiset {0, 1, 1, 2}.  The points
    are found on M_s itself, as critical points of the squared distance
    pulled back through the projection (`_distance_critical_points`), and
    each index is read twice, from the Hessian stencil and from the focal
    count; the check passes only if the two agree at every point.  Centers
    with a degenerate critical point are resampled and counted.
    """
    if fam.label != "clifford" or fam.ambient_dim != 4:
        raise InputContractError(
            "the spot check needs the two-curvature family on the 3-sphere")
    s = _hypersurface_level(s)
    num_centers = _size("num_centers", num_centers, 1)
    if abs(float(fam.polynomial.value(pole.coords)) - s) < 1e-3:
        raise InputContractError("projection pole too close to the surface")
    rng = seeded_rng(seed, 0xC9C)
    basis, q = tangent_basis(pole).vectors, pole.coords
    grid = _torus_grid(s, 24)
    ysamp, _ = _stereo_rows(grid, basis, q)
    center_mid = ysamp.mean(axis=0)
    scale = np.linalg.norm(ysamp - center_mid, axis=1).max()
    counts, multisets = [], []
    resampled, agree = 0, True
    while len(counts) < num_centers:
        center = center_mid + scale * rng.normal(size=3)
        cps = _distance_critical_points(
            _StereoLevel(fam, s, basis, q, center), grid)
        # no critical point at all counts as a failure, not as degenerate
        if any(cp.degenerate for cp in cps):
            resampled += 1
            if resampled > 20 * num_centers:
                raise InputContractError("could not find non-degenerate centers")
            continue
        counts.append(len(cps))
        # Hess L is a positive multiple of Hess l_p, and d_p's index_hessian
        # counts Hess l_p's positive eigenvalues
        multisets.append(sorted(fam.hypersurface_dim - cp.index_hessian
                                for cp in cps))
        agree = agree and all(cp.index_focal == cp.index_hessian
                              for cp in cps)
    return SpotCheckReport(
        family=fam.label, level=float(s),
        pole=[float(v) for v in pole.coords], num_centers=num_centers,
        seed=seed, counts=counts, index_multisets=multisets,
        resampled_centers=resampled,
        passed=agree and all(m == [0, 1, 1, 2] for m in multisets))
