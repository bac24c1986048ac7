"""Mesh export, OBJ structure, point clouds, and the Euclidean spot check."""

import numpy as np
import pytest

from isolab import MeshExportError, SpherePoint, euclidean_taut_spot_check, export_mesh
from isolab.export import export_point_cloud_csv, write_obj

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
    # this pole stretches part of the chart, and Newton from the 24 x 24
    # grid alone missed the minimum or the maximum at 11 of the 25 centers
    pole = SpherePoint(np.array([0.5, -0.2, 0.1, 0.8]))
    report = euclidean_taut_spot_check(fam_clifford, 0.0, pole,
                                       num_centers=25, seed=7)
    assert report.passed
    assert report.counts == [4] * 25
    assert all(m == [0, 1, 1, 2] for m in report.index_multisets)
