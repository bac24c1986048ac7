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
from .levelset import sample_points
from .shape import spectrum_at
from .sphere import SpherePoint, tangent_basis

_CLIP_RADIUS = 1e-3
_FOCAL_POLE_TOL = 1e-6
_FLOW_STEPS = 200   # gradient-flow steps toward the extremes of L


@dataclass
class MeshData:
    vertices: np.ndarray         # (V, 3)
    faces: np.ndarray            # (F, 3) zero-based
    flagged_faces: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def euler_characteristic(self):
        edges = set()
        for tri in self.faces:
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                edges.add((min(a, b), max(a, b)))
        return int(len(self.vertices) - len(edges) + len(self.faces))

    def is_watertight(self):
        counts = {}
        for tri in self.faces:
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (min(a, b), max(a, b))
                counts[key] = counts.get(key, 0) + 1
        return all(c == 2 for c in counts.values())


def _stereo_rows(points, pole):
    """Stereographic projection of an (N, D) block from a SpherePoint pole."""
    basis = tangent_basis(pole).vectors
    dots = points @ pole.coords
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
    # the doubly periodic grid of `_torus_grid`
    r = resolution
    faces = []
    for i in range(r):
        for j in range(r):
            v00 = i * r + j
            v01 = i * r + (j + 1) % r
            v10 = ((i + 1) % r) * r + j
            v11 = ((i + 1) % r) * r + (j + 1) % r
            faces.append((v00, v10, v11))
            faces.append((v00, v11, v01))
    return np.array(faces, dtype=int)


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
    if not -1.0 < s < 1.0:
        raise InputContractError("mesh levels live in (-1, 1)")
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
    dots = points @ pole.coords
    near = np.arccos(np.clip(dots, -1.0, 1.0)) < _CLIP_RADIUS
    if near.any():
        warnings.append(
            f"near-singularity: {int(near.sum())} vertices within "
            f"{_CLIP_RADIUS:g} of the pole; incident triangles are flagged")
    verts, _ = _stereo_rows(points, pole)
    flagged = []
    if faces is None:
        faces = np.zeros((0, 3), dtype=int)
    elif near.any():
        flagged = [k for k, tri in enumerate(faces) if near[list(tri)].any()]
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
    pts = sample_points(fam, s, num_samples, seed)
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
    ts, vals = _circle_profile(fam, sample_points(fam, s, 1, seed)[0],
                               grid_size)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "V", "side"])
        for t, v in zip(ts, vals):
            side = 1 if v > 1 - 1e-9 else (-1 if v < -1 + 1e-9 else 0)
            writer.writerow([repr(float(t)), repr(float(v)), side])
    return path


def export_point_cloud_csv(fam, s, count, seed, pole, path):
    """Stereographic point cloud of M_s for families with no mesh support."""
    pts = np.array([p.x.coords for p in sample_points(fam, s, count, seed)])
    proj, _ = _stereo_rows(pts, pole)
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


def _cyclide_chart(fam, s, pole):
    a = np.sqrt((1.0 + s) / 2.0)
    b = np.sqrt((1.0 - s) / 2.0)
    basis = tangent_basis(pole).vectors
    q = pole.coords

    def xyz(phi, psi):
        x = np.stack([a * np.cos(phi), a * np.sin(phi),
                      b * np.cos(psi), b * np.sin(psi)], axis=-1)
        den = 1.0 - x @ q
        return (x @ basis.T) / den[..., None], x, den

    def dxyz(phi, psi):
        y, x, den = xyz(phi, psi)
        dx_phi = np.stack([-a * np.sin(phi), a * np.cos(phi),
                           np.zeros_like(phi), np.zeros_like(phi)], axis=-1)
        dx_psi = np.stack([np.zeros_like(psi), np.zeros_like(psi),
                           -b * np.sin(psi), b * np.cos(psi)], axis=-1)
        dy_phi = (dx_phi @ basis.T) / den[..., None] \
            + y * (dx_phi @ q)[..., None] / den[..., None]
        dy_psi = (dx_psi @ basis.T) / den[..., None] \
            + y * (dx_psi @ q)[..., None] / den[..., None]
        return y, dy_phi, dy_psi

    return xyz, dxyz


def euclidean_taut_spot_check(fam, s, pole: SpherePoint, num_centers=25,
                              seed=0) -> SpotCheckReport:
    """Count critical points of Euclidean squared-distance functions on the
    projected torus (a ring cyclide).

    Tightness on the sphere transports through stereographic projection to
    tautness in Euclidean space, so every non-degenerate center must see
    exactly 4 critical points with index multiset {0, 1, 1, 2}.  Centers with
    near-singular Hessians are resampled and counted.
    """
    if fam.label != "clifford" or fam.ambient_dim != 4:
        raise InputContractError(
            "the spot check needs the two-curvature family on the 3-sphere")
    if abs(float(fam.polynomial.value(pole.coords)) - s) < 1e-3:
        raise InputContractError("projection pole too close to the surface")
    xyz, dxyz = _cyclide_chart(fam, s, pole)
    rng = seeded_rng(seed, 0xC9C)
    grid = 2.0 * np.pi * np.arange(24) / 24
    phi0, psi0 = np.meshgrid(grid, grid, indexing="ij")
    phi0 = phi0.ravel()
    psi0 = psi0.ravel()
    ysamp, _, _ = xyz(phi0, psi0)
    center_mid = ysamp.mean(axis=0)
    scale = np.linalg.norm(ysamp - center_mid, axis=1).max()

    def critical_points(center):
        def gradient(phi, psi):
            # of the squared distance L = |y - center|^2 in the (phi, psi)
            # chart
            y, dphi, dpsi = dxyz(phi, psi)
            r = y - center
            return (2 * np.einsum("ij,ij->i", r, dphi),
                    2 * np.einsum("ij,ij->i", r, dpsi))

        def hessian(phi, psi, h):
            # central differences of the gradient, (h11, h12, h21, h22):
            # column 1 steps phi, column 2 steps psi; not symmetrized
            gpp, gpm = gradient(phi + h, psi), gradient(phi - h, psi)
            gqp, gqm = gradient(phi, psi + h), gradient(phi, psi - h)
            return ((gpp[0] - gpm[0]) / (2 * h), (gqp[0] - gqm[0]) / (2 * h),
                    (gpp[1] - gpm[1]) / (2 * h), (gqp[1] - gqm[1]) / (2 * h))

        def squared_distance(phi, psi):
            y, _, _ = xyz(phi, psi)
            return np.sum((y - center) ** 2, axis=-1)

        # Newton from the grid alone misses the minimum or the maximum where
        # the pole stretches the chart, so two more starts come from
        # monotone gradient flows: descent from the grid's argmin of L and
        # ascent from its argmax, halving a step until L improves
        ell = squared_distance(phi0, psi0)
        ends = [int(np.argmin(ell)), int(np.argmax(ell))]
        fphi, fpsi, fell = phi0[ends], psi0[ends], ell[ends]
        sign, step = np.array([-1.0, 1.0]), np.full(2, 0.5)
        for _ in range(_FLOW_STEPS):
            gphi, gpsi = gradient(fphi, fpsi)
            gnorm = np.maximum(np.hypot(gphi, gpsi), 1e-300)
            tphi = fphi + sign * step * gphi / gnorm
            tpsi = fpsi + sign * step * gpsi / gnorm
            tell = squared_distance(tphi, tpsi)
            better = sign * (tell - fell) > 0
            fphi = np.where(better, tphi, fphi)
            fpsi = np.where(better, tpsi, fpsi)
            fell = np.where(better, tell, fell)
            step = np.where(better, np.minimum(2 * step, 0.5), step / 2)
        phi = np.concatenate([phi0, np.mod(fphi, 2 * np.pi)])
        psi = np.concatenate([psi0, np.mod(fpsi, 2 * np.pi)])
        for _ in range(60):
            gphi, gpsi = gradient(phi, psi)
            gnorm = np.hypot(gphi, gpsi)
            if gnorm.max() < 1e-9 * max(1.0, scale ** 2):
                break
            h11, h12, h21, h22 = hessian(phi, psi, 1e-6)
            det = h11 * h22 - h12 * h21
            det = np.where(np.abs(det) < 1e-14, np.nan, det)
            dphi_step = -(h22 * gphi - h12 * gpsi) / det
            dpsi_step = -(-h21 * gphi + h11 * gpsi) / det
            step = np.hypot(dphi_step, dpsi_step)
            cap = 0.5
            shrink = np.where(step > cap, cap / np.maximum(step, cap), 1.0)
            bad = ~np.isfinite(dphi_step) | ~np.isfinite(dpsi_step)
            dphi_step = np.where(bad, 0.0, dphi_step * shrink)
            dpsi_step = np.where(bad, 0.0, dpsi_step * shrink)
            phi = np.mod(phi + dphi_step, 2 * np.pi)
            psi = np.mod(psi + dpsi_step, 2 * np.pi)
        gphi, gpsi = gradient(phi, psi)
        conv = np.hypot(gphi, gpsi) < 1e-8 * max(1.0, scale ** 2)
        sols = []
        for k in np.flatnonzero(conv):
            dup = False
            for ph, ps in sols:
                dp = np.angle(np.exp(1j * (phi[k] - ph)))
                dq = np.angle(np.exp(1j * (psi[k] - ps)))
                if np.hypot(dp, dq) < 1e-5:
                    dup = True
                    break
            if not dup:
                sols.append((float(phi[k]), float(psi[k])))
        results = []
        for ph, ps in sols:
            hmat = np.reshape(hessian(np.array([ph]), np.array([ps]), 1e-5),
                              (2, 2))
            hmat = 0.5 * (hmat + hmat.T)
            eig = np.linalg.eigvalsh(hmat)
            results.append({"phi": ph, "psi": ps,
                            "index": int(np.sum(eig < 0)),
                            "eig": eig})
        return results

    counts, multisets = [], []
    resampled = 0
    accepted = 0
    while accepted < num_centers:
        center = center_mid + scale * rng.normal(size=3)
        results = critical_points(center)
        eigs = np.concatenate([r["eig"] for r in results]) if results else np.array([0.0])
        degenerate = (np.abs(eigs).min() < 1e-6 * np.abs(eigs).max())
        if degenerate:
            resampled += 1
            if resampled > 20 * num_centers:
                raise InputContractError("could not find non-degenerate centers")
            continue
        accepted += 1
        counts.append(len(results))
        multisets.append(sorted(r["index"] for r in results))
    passed = all(c == 4 for c in counts) and all(m == [0, 1, 1, 2]
                                                 for m in multisets)
    return SpotCheckReport(
        family=fam.label, level=float(s),
        pole=[float(v) for v in pole.coords], num_centers=num_centers,
        seed=seed, counts=counts, index_multisets=multisets,
        resampled_centers=resampled, passed=passed)
