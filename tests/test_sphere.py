"""Sphere primitives: geodesics, distances, frames, stereographic projection."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isolab import (InputContractError, SpherePoint, StereographicPoleError,
                    geodesic, normal_exponential, spherical_distance,
                    stereographic, stereographic_inverse, tangent_basis)


def _random_point_and_tangent(seed, dim=5):
    rng = np.random.default_rng(seed)
    x = SpherePoint(rng.normal(size=dim))
    u = rng.normal(size=dim)
    u -= (u @ x.coords) * x.coords
    return x, u / np.linalg.norm(u)


def test_sphere_point_normalizes():
    p = SpherePoint(np.array([3.0, 0.0, 0.0, 4.0]))
    assert abs(np.linalg.norm(p.coords) - 1.0) < 1e-12


def test_sphere_point_rejects_tiny():
    with pytest.raises(InputContractError):
        SpherePoint(np.array([1e-9, 0.0, 0.0]))


def test_geodesic_identity_antipode_quarter():
    x, u = _random_point_and_tangent(0)
    assert np.allclose(geodesic(x, u, 0.0).coords, x.coords, atol=1e-15)
    assert np.allclose(geodesic(x, u, np.pi).coords, -x.coords, atol=1e-12)
    e1 = SpherePoint(np.eye(4)[0])
    e2 = np.eye(4)[1]
    assert np.allclose(geodesic(e1, e2, np.pi / 2).coords, e2, atol=1e-12)


def test_geodesic_rejects_bad_direction():
    x, u = _random_point_and_tangent(1)
    with pytest.raises(InputContractError):
        geodesic(x, 2.0 * u, 0.3)
    with pytest.raises(InputContractError):
        geodesic(x, x.coords, 0.3)


def test_distance_basics():
    x, _ = _random_point_and_tangent(2)
    assert spherical_distance(x, x) == 0.0
    assert abs(spherical_distance(x, x.antipode()) - np.pi) < 1e-12
    e1, e2 = SpherePoint(np.eye(4)[0]), SpherePoint(np.eye(4)[1])
    assert abs(spherical_distance(e1, e2) - np.pi / 2) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       t=st.floats(-np.pi, np.pi, allow_nan=False))
def test_geodesic_unit_norm_and_distance(seed, t):
    x, u = _random_point_and_tangent(seed)
    y = geodesic(x, u, t)
    assert abs(np.linalg.norm(y.coords) - 1.0) < 1e-12
    assert abs(spherical_distance(y, x) - abs(t)) < 1e-10


def test_normal_exponential_offsets():
    x, xi = _random_point_and_tangent(3)
    assert np.allclose(normal_exponential(0.7, x, xi, 0.7).coords, x.coords,
                       atol=1e-12)
    off = normal_exponential(0.7 - np.pi / 2, x, xi, 0.7)
    assert np.allclose(off.coords, xi, atol=1e-12)


def test_tangent_basis_properties():
    x, xi = _random_point_and_tangent(4)
    frame = tangent_basis(x, xi)
    vecs = frame.vectors
    assert vecs.shape == (4, 5)
    gram = vecs @ vecs.T
    assert np.abs(gram - np.eye(4)).max() < 1e-12
    assert np.abs(vecs @ x.coords).max() < 1e-12
    assert np.allclose(vecs[-1], xi, atol=1e-8)
    assert frame.surface_tangents.shape == (3, 5)


def test_tangent_basis_axis_point():
    e1 = SpherePoint(np.eye(4)[0])
    frame = tangent_basis(e1)
    assert frame.vectors.shape == (3, 4)
    assert np.abs(frame.vectors[:, 0]).max() < 1e-12


def test_tangent_basis_rejects_radial_normal():
    x, _ = _random_point_and_tangent(5)
    with pytest.raises(InputContractError):
        tangent_basis(x, x.coords)


def test_stereographic_special_points():
    pole = SpherePoint(np.array([0.0, 0.0, 0.0, 1.0]))
    assert np.linalg.norm(stereographic(pole.antipode(), pole)) < 1e-12
    equator = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]))
    y = stereographic(equator, pole)
    assert abs(np.linalg.norm(y) - 1.0) < 1e-12
    back = stereographic_inverse(y, pole)
    assert np.allclose(back.coords, equator.coords, atol=1e-12)


def test_stereographic_pole_singularity():
    pole = SpherePoint(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(StereographicPoleError):
        stereographic(pole, pole)


def test_stereographic_round_trip_bulk():
    rng = np.random.default_rng(7)
    pole = SpherePoint(rng.normal(size=5))
    worst = 0.0
    for _ in range(1000):
        x = SpherePoint(rng.normal(size=5))
        if spherical_distance(x, pole) < 1e-3:
            continue
        y = stereographic(x, pole)
        back = stereographic_inverse(y, pole)
        worst = max(worst, float(np.linalg.norm(back.coords - x.coords)))
    assert worst < 1e-10


def test_stereographic_conformal():
    # push two orthonormal tangent vectors through a finite-difference
    # Jacobian: images must stay orthogonal and of equal length
    rng = np.random.default_rng(11)
    pole = SpherePoint(rng.normal(size=4))
    h = 1e-5
    for seed in range(5):
        x, u = _random_point_and_tangent(100 + seed, dim=4)
        if spherical_distance(x, pole) < 0.3:
            continue
        v = rng.normal(size=4)
        v -= (v @ x.coords) * x.coords
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        ju = (stereographic(geodesic(x, u, h), pole)
              - stereographic(geodesic(x, u, -h), pole)) / (2 * h)
        jv = (stereographic(geodesic(x, v, h), pole)
              - stereographic(geodesic(x, v, -h), pole)) / (2 * h)
        scale = np.linalg.norm(ju)
        assert abs(ju @ jv) / scale ** 2 < 1e-8
        assert abs(np.linalg.norm(jv) - scale) / scale < 1e-8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sphere_point_rejects_non_finite(bad):
    with pytest.raises(InputContractError, match="finite"):
        SpherePoint(np.array([1.0, bad, 0.0]))
    with pytest.raises(InputContractError, match="finite"):
        SpherePoint(np.array([1e308, bad, 1e308]))


@pytest.mark.parametrize("scale", [1e200, 1e308])
def test_sphere_point_normalizes_huge_directions(scale):
    # the plain norm overflows; the direction is still a valid input
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = SpherePoint([scale, 0.0, scale, 0.0])
        assert SpherePoint([scale, 0.0, 0.0, 0.0]).coords.tolist() == \
            [1.0, 0.0, 0.0, 0.0]
    # rescaled by the largest entry, it is the unit-scale point bit for bit
    unit = SpherePoint([1.0, 0.0, 1.0, 0.0])
    assert x.coords.tolist() == unit.coords.tolist()
    assert np.abs(x.coords - [2 ** -0.5, 0, 2 ** -0.5, 0]).max() \
        <= np.finfo(float).eps
