"""Mesh export, OBJ structure, point clouds, and the Euclidean spot check."""

import numpy as np
import pytest

from isolab import (InputContractError, MeshExportError, SpherePoint,
                    euclidean_taut_spot_check, export_mesh, sample_points)
from isolab.export import (_CLIP_RADIUS, MeshData, _grid_faces,
                           _StereoLevel, _stereo_rows, _torus_grid,
                           export_point_cloud_csv, write_obj)
from isolab.levelset import _frames_batch, _normalize_rows, _project_batch
from isolab.sphere import tangent_basis

POLE = SpherePoint(np.array([0.12, 0.23, 0.34, 0.90]))


def test_torus_mesh_counts(fam_clifford, tmp_path):
    res = 64
    mesh = export_mesh(fam_clifford, 0.0, POLE, resolution=res,
                       path=str(tmp_path / "torus.obj"))
    assert len(mesh.vertices) == res * res
    assert len(mesh.faces) == 2 * res * res
    assert mesh.euler_characteristic() == 0
    assert mesh.is_watertight()
    assert mesh.warnings == []


def test_obj_file_structure(fam_clifford, tmp_path):
    path = tmp_path / "torus.obj"
    mesh = export_mesh(fam_clifford, 0.0, POLE, resolution=8, path=str(path))
    lines = path.read_text().splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == len(mesh.vertices)
    assert len(f_lines) == len(mesh.faces)
    refs = {int(tok) for l in f_lines for tok in l.split()[1:]}
    assert min(refs) == 1 and max(refs) == len(mesh.vertices)


def test_sphere_mesh_euler_characteristic(tmp_path):
    from isolab import catalog
    fam = catalog("great-sphere", n=2)
    mesh = export_mesh(fam, 0.4, SpherePoint(np.array([0.0, 0.2, 0.5, 0.84])),
                       resolution=20)
    assert mesh.euler_characteristic() == 2
    assert mesh.is_watertight()


def test_focal_pole_warns_unbounded(fam_clifford):
    mesh = export_mesh(fam_clifford, 0.0,
                       SpherePoint(np.array([1.0, 0.0, 0.0, 0.0])),
                       resolution=16)
    assert any("unbounded" in w for w in mesh.warnings)


def test_pole_near_surface_flags_triangles(fam_clifford):
    # pole on the surface itself: some vertices land within the clip radius
    a = np.sqrt(0.5)
    on_surface = SpherePoint(np.array([a, 0.0, a, 0.0]))
    mesh = export_mesh(fam_clifford, 0.0, on_surface, resolution=64)
    assert any("near-singularity" in w for w in mesh.warnings)
    assert len(mesh.flagged_faces) > 0


def test_mesh_rejects_high_ambient(fam_cartan):
    with pytest.raises(MeshExportError):
        export_mesh(fam_cartan, 0.2, SpherePoint(np.ones(5)))


def test_point_cloud_csv(tmp_path, fam_cartan):
    path = tmp_path / "cloud.csv"
    export_point_cloud_csv(fam_cartan, 0.2, 50, 0,
                           SpherePoint(np.array([1.0, 0, 0, 0, 0])), str(path))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "y1,y2,y3,y4"
    assert len(rows) == 51
    cloud = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert cloud.shape == (50, 4)
    assert np.isfinite(cloud).all()


def test_write_obj_groups(tmp_path):
    from isolab.export import MeshData
    mesh = MeshData(vertices=np.eye(3), faces=np.array([[0, 1, 2]]),
                    flagged_faces=[0], warnings=["note"])
    path = tmp_path / "flag.obj"
    write_obj(mesh, str(path))
    text = path.read_text()
    assert "# note" in text
    assert "g clipped" in text


def test_spot_check_counts_and_indices(fam_clifford):
    report = euclidean_taut_spot_check(fam_clifford, 0.0, POLE,
                                       num_centers=8, seed=1)
    assert report.passed
    assert report.counts == [4] * 8
    assert all(m == [0, 1, 1, 2] for m in report.index_multisets)


def test_spot_check_far_center_indices(fam_clifford):
    # centers far from the surface still see the taut count
    report = euclidean_taut_spot_check(fam_clifford, 0.0, POLE,
                                       num_centers=3, seed=99)
    assert report.passed


def test_spot_check_fails_when_the_index_witnesses_disagree(fam_clifford,
                                                          monkeypatch):
    # the focal count is the second index witness: shifting it by one at
    # every point must fail a check whose counts and multisets still pass
    from isolab import morse
    focal_counts = morse._focal_counts

    def shifted(*args):
        indices, near = focal_counts(*args)
        return indices + 1, near

    monkeypatch.setattr(morse, "_focal_counts", shifted)
    report = euclidean_taut_spot_check(fam_clifford, 0.0, POLE,
                                       num_centers=2, seed=1)
    assert report.counts == [4] * 2
    assert all(m == [0, 1, 1, 2] for m in report.index_multisets)
    assert not report.passed


def test_spot_check_requires_torus(fam_cartan):
    from isolab import InputContractError
    with pytest.raises(InputContractError):
        euclidean_taut_spot_check(fam_cartan, 0.2, SpherePoint(np.ones(5)))


def test_smallest_meshes_close_up(fam_clifford):
    from isolab import InputContractError, catalog
    sphere = catalog("great-sphere", n=2)
    for fam, s, chi in ((fam_clifford, 0.0, 0), (sphere, 0.4, 2)):
        mesh = export_mesh(fam, s, POLE, resolution=3)
        assert mesh.is_watertight() and mesh.euler_characteristic() == chi
        with pytest.raises(InputContractError):
            export_mesh(fam, s, POLE, resolution=2)


def test_spot_check_finds_the_extremes_on_a_distorted_cyclide(fam_clifford):
    # this pole stretches part of the image, and the shared Newton from the
    # 24 x 24 grid alone, without the two flow ends, misses the minimum or
    # the maximum at 11 of the 25 centers
    pole = SpherePoint(np.array([0.5, -0.2, 0.1, 0.8]))
    report = euclidean_taut_spot_check(fam_clifford, 0.0, pole,
                                       num_centers=25, seed=7)
    assert report.passed
    assert report.counts == [4] * 25
    assert all(m == [0, 1, 1, 2] for m in report.index_multisets)


@pytest.mark.parametrize("num_centers", [0, -3])
def test_spot_check_needs_a_center(fam_clifford, num_centers):
    # a check over no centers certifies nothing
    with pytest.raises(InputContractError,
                       match="num_centers must be at least 1"):
        euclidean_taut_spot_check(fam_clifford, 0.0, POLE,
                                  num_centers=num_centers)


@pytest.mark.parametrize("s", [1.5, float("nan"), 1.0, -1.0])
def test_spot_check_levels_live_in_the_open_interval(fam_clifford, s):
    with pytest.raises(InputContractError, match="levels live in"):
        euclidean_taut_spot_check(fam_clifford, s, POLE, num_centers=1)


@pytest.mark.parametrize("s", [0.0, 0.3])
def test_distance_gradient_matches_central_differences(fam_clifford, s):
    # L = |sigma(x) - c|^2 in the closed form of `_StereoLevel`, and its
    # Riemannian gradient, the tangent part of (w + L q) / (1 - <x, q>),
    # against central differences of L along the tangent frames, each move
    # retracted to the level; the retraction's second-order term cancels
    # between +h and -h
    rng = np.random.default_rng(19)
    X = np.array([sp.x.coords for sp in sample_points(fam_clifford, s, 6, 4)])
    xi, frames, _vals, _wn = _frames_batch(fam_clifford, X)
    h = 1e-5
    for raw in ((0.12, 0.23, 0.34, 0.90), (0.5, -0.2, 0.1, 0.8),
                (0.7, 0.1, 0.2, -0.6)):
        pole = SpherePoint(np.array(raw))
        basis, q = tangent_basis(pole).vectors, pole.coords
        center = rng.normal(size=3)
        sheet = _StereoLevel(fam_clifford, s, basis, q, center)

        def squared_distance(rows):
            return np.sum((_stereo_rows(rows, basis, q)[0] - center) ** 2, 1)

        assert np.allclose(sheet.value(X), squared_distance(X), rtol=1e-12,
                           atol=0)
        grad = (sheet.w + sheet.value(X)[:, None] * q) / (1 - X @ q)[:, None]
        grad -= (np.einsum("ij,ij->i", grad, X)[:, None] * X
                 + np.einsum("ij,ij->i", grad, xi)[:, None] * xi)
        scale = np.abs(grad).max()
        for i in range(frames.shape[1]):
            plus, minus = (_project_batch(fam_clifford, s, _normalize_rows(
                X + sign * h * frames[:, i]))[0] for sign in (1, -1))
            diff = (squared_distance(plus) - squared_distance(minus)) / (2 * h)
            along = np.einsum("ij,ij->i", grad, frames[:, i])
            assert np.abs(diff - along).max() <= 1e-6 * scale, (raw, s, i)


def loop_grid_faces(r):
    # the former per-cell loop, kept as an oracle for `_grid_faces`
    faces = []
    for i in range(r):
        for j in range(r):
            v00, v01 = i * r + j, i * r + (j + 1) % r
            v10, v11 = ((i + 1) % r) * r + j, ((i + 1) % r) * r + (j + 1) % r
            faces += [(v00, v10, v11), (v00, v11, v01)]
    return np.array(faces, dtype=int)


def loop_edge_counts(faces):
    # the former per-triangle edge dict, kept as an oracle for MeshData
    counts = {}
    for tri in faces:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return counts


def test_mesh_faces_edges_and_flags_match_loops(fam_clifford):
    for r in (3, 4, 9):
        assert np.array_equal(_grid_faces(r), loop_grid_faces(r)), r
    # a pole on the surface flags the triangles at the vertices near it
    a = np.sqrt(0.5)
    pole = SpherePoint(np.array([a, 0.0, a, 0.0]))
    torus = export_mesh(fam_clifford, 0.0, pole, resolution=16)
    near = np.arccos(np.clip(_torus_grid(0.0, 16) @ pole.coords, -1, 1)) \
        < _CLIP_RADIUS
    assert torus.flagged_faces and torus.flagged_faces == [
        k for k, tri in enumerate(torus.faces) if near[list(tri)].any()]
    from isolab import catalog
    sphere = export_mesh(catalog("great-sphere", n=2), 0.4, POLE,
                         resolution=7)
    for mesh in (torus, sphere,
                 MeshData(vertices=np.eye(3), faces=np.array([[0, 1, 2]])),
                 MeshData(vertices=np.eye(3), faces=np.zeros((0, 3), int))):
        counts = loop_edge_counts(mesh.faces)
        assert mesh.euler_characteristic() == (
            len(mesh.vertices) - len(counts) + len(mesh.faces))
        assert mesh.is_watertight() == all(c == 2 for c in counts.values())
