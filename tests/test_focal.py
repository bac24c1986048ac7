"""Focal points, the cosine profile, and focal-submanifold dimensions."""

import numpy as np
import pytest

from isolab import (InputContractError, exp_param_check,
                    focal_dimension_estimate, focal_points_along_normal,
                    normal_exponential, sample_points)
from isolab.shape import spectrum_at

LEVELS = {"great-sphere": 0.4, "clifford": 0.3, "cartan-cubic": 0.2,
          "nomizu-quartic": 0.3}


def test_focal_point_structure(all_families):
    for fam in all_families:
        for sp in sample_points(fam, LEVELS[fam.label], 5, seed=0):
            pts = focal_points_along_normal(sp)
            assert len(pts) == 2 * fam.g
            ts = np.array([f.t for f in pts])
            gaps = np.diff(np.concatenate([ts, [ts[0] + 2 * np.pi]]))
            assert np.abs(gaps - np.pi / fam.g).max() < 1e-7
            sides = [f.side for f in pts]
            assert all(a != b for a, b in zip(sides, sides[1:]))
            assert sides.count(1) == fam.g and sides.count(-1) == fam.g
            for f in pts:
                assert abs(abs(float(fam.polynomial.value(f.location.coords))) - 1.0) < 1e-8
                assert f.multiplicity in (fam.m1, fam.m2)


def test_focal_multiplicity_sequence(fam_clifford_asym):
    sp = sample_points(fam_clifford_asym, 0.1, 1, seed=1)[0]
    pts = focal_points_along_normal(sp)
    mults = [f.multiplicity for f in pts]
    # alternation with both multiplicities present when m1 != m2
    assert mults == [mults[0], mults[1]] * 2
    assert {mults[0], mults[1]} == {1, 2}


def test_focal_points_are_profile_extrema(all_families):
    # the focal locations from the spectrum must coincide with |V| = 1
    # extrema of V along the normal circle
    for fam in all_families:
        sp = sample_points(fam, LEVELS[fam.label], 1, seed=2)[0]
        spec = spectrum_at(sp)
        for f in focal_points_along_normal(sp, spec):
            probe = np.cos(f.t) * sp.x.coords + np.sin(f.t) * np.asarray(sp.xi)
            assert abs(abs(float(fam.polynomial.value(probe))) - 1.0) < 1e-8


def test_exp_param_profile(all_families):
    for fam in all_families:
        worst = max(exp_param_check(fam, sp, grid_size=720)
                    for sp in sample_points(fam, LEVELS[fam.label], 5, seed=3))
        assert worst < 1e-8, fam.label


def test_exp_param_endpoint_values(fam_cartan):
    sp = sample_points(fam_cartan, 0.2, 1, seed=4)[0]
    spec = spectrum_at(sp)
    at_zero = normal_exponential(0.0, sp.x, sp.xi, spec.theta)
    assert abs(float(fam_cartan.polynomial.value(at_zero.coords)) - 1.0) < 1e-10
    at_quarter = normal_exponential(np.pi / (2 * fam_cartan.g), sp.x, sp.xi,
                                    spec.theta)
    assert abs(float(fam_cartan.polynomial.value(at_quarter.coords))) < 1e-10


def test_focal_dimensions(all_families):
    # dim V^{-1}(+1) = n - m2 and dim V^{-1}(-1) = n - m1 under the
    # Laplacian-consistent multiplicity labels (equal here since m1 = m2)
    expected = {"great-sphere": (0, 0), "clifford": (1, 1),
                "cartan-cubic": (2, 2), "nomizu-quartic": (3, 3)}
    for fam in all_families:
        dplus = focal_dimension_estimate(fam, 1, seed=5)
        dminus = focal_dimension_estimate(fam, -1, seed=6)
        assert (dplus, dminus) == expected[fam.label]
        n = fam.hypersurface_dim
        assert (dplus, dminus) == (n - fam.m2, n - fam.m1)


def test_focal_dimensions_asymmetric(fam_clifford_asym):
    # k = 1, n = 3: V = +1 is the unit circle factor, V = -1 the 2-sphere
    assert focal_dimension_estimate(fam_clifford_asym, 1, seed=7) == 1
    assert focal_dimension_estimate(fam_clifford_asym, -1, seed=8) == 2


def test_focal_dimension_side_validation(fam_clifford):
    # a bad side is a contract error, not the retry-budget SamplingError
    for side in (0, 1.5, "1", None):
        with pytest.raises(InputContractError, match="side"):
            focal_dimension_estimate(fam_clifford, side)


def test_focal_circle_csv(tmp_path, fam_clifford):
    from isolab.export import export_focal_circle_csv
    path = tmp_path / "circle.csv"
    export_focal_circle_csv(fam_clifford, 0.3, seed=9, path=str(path),
                            grid_size=360)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,V,side"
    assert len(rows) == 361
    ts, vs, sides = [], [], set()
    for row in rows[1:]:
        t, v, side = row.split(",")
        ts.append(float(t))
        vs.append(float(v))
        sides.add(int(side))
    assert sides <= {-1, 0, 1}
    # the emitted profile is the cosine of g times arc length
    assert np.abs(np.array(vs)
                  - np.cos(fam_clifford.g * np.array(ts))).max() < 1e-8


def test_profile_check_and_csv_read_one_profile(tmp_path, fam_cartan):
    # exp_param_check and the CSV export sample the same normal circle
    from isolab.export import export_focal_circle_csv
    path = tmp_path / "circle.csv"
    export_focal_circle_csv(fam_cartan, 0.2, seed=9, path=str(path))
    rows = [row.split(",") for row in path.read_text().splitlines()[1:]]
    ts, vs = (np.array([float(r[k]) for r in rows]) for k in (0, 1))
    base = sample_points(fam_cartan, 0.2, 1, 9)[0]
    assert exp_param_check(fam_cartan, base) == \
        float(np.abs(vs - np.cos(fam_cartan.g * ts)).max())


def test_focal_points_snap_to_the_focal_sets(fam_nomizu):
    # another level's spectrum puts every circle point off |V| = 1 by more
    # than the tagging tolerance; each is snapped to its nearest focal set
    sp = sample_points(fam_nomizu, 0.3, 1, seed=5)[0]
    other = spectrum_at(sample_points(fam_nomizu, -0.4, 1, seed=5)[0])
    pts = focal_points_along_normal(sp, other)
    assert len(pts) == 2 * fam_nomizu.g
    for f in pts:
        probe = np.cos(f.t) * sp.x.coords + np.sin(f.t) * np.asarray(sp.xi)
        assert abs(abs(float(fam_nomizu.polynomial.value(probe))) - 1) > 1e-6
        v = float(fam_nomizu.polynomial.value(f.location.coords))
        assert abs(abs(v) - 1.0) <= 1e-10 and f.side == np.sign(v)
