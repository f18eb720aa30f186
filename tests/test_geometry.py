import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvt.errors import ConfigError
from dualvt.geometry import (
    MAX_HEIGHTS,
    BevGridSpec,
    CameraRig,
    bev_cell_centers,
    make_height_samples,
    project_points,
)

K = np.array([[100.0, 0.0, 22.0], [0.0, 100.0, 8.0], [0.0, 0.0, 1.0]])
IDENTITY_RIG = CameraRig(intrinsics=K, extrinsics=np.eye(4), feat_w=44, feat_h=16)


def project_one(p3d):
    """(u, v, d) of one ego point, or None when it is behind the camera."""
    u, v, d, valid = project_points(*np.array([p3d], dtype=np.float64).T, IDENTITY_RIG)
    return (u[0], v[0], d[0]) if valid[0] else None


class TestProjectPoint:
    def test_principal_point(self):
        assert project_one((0.0, 0.0, 10.0)) == (22.0, 8.0, 10.0)

    def test_pinhole_offset(self):
        assert project_one((1.0, 0.0, 10.0)) == (32.0, 8.0, 10.0)

    def test_behind_camera(self):
        assert project_one((0.0, 0.0, -1.0)) is None

    def test_image_plane_epsilon(self):
        assert project_one((0.0, 0.0, 0.0)) is None

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-50, 50), st.floats(-50, 50), st.floats(0.1, 100),
        st.floats(1.5, 10),
    )
    def test_scale_consistency(self, x, y, z, lam):
        pu, pv, pd = project_one((x, y, z))
        qu, qv, qd = project_one((lam * x, lam * y, lam * z))
        assert qu == pytest.approx(pu, abs=1e-4)
        assert qv == pytest.approx(pv, abs=1e-4)
        assert qd == pytest.approx(lam * pd, rel=1e-9)


class TestRigValidation:
    def test_bad_intrinsics_last_row(self):
        bad = K.copy()
        bad[2, 2] = 2.0
        with pytest.raises(ConfigError):
            CameraRig(intrinsics=bad, extrinsics=np.eye(4), feat_w=4, feat_h=4)

    def test_non_orthonormal_rotation(self):
        T = np.eye(4)
        T[0, 0] = 2.0
        with pytest.raises(ConfigError):
            CameraRig(intrinsics=K, extrinsics=T, feat_w=4, feat_h=4)

    @pytest.mark.parametrize("at, value, field", [
        ((0, 0), np.nan, "intrinsics"), ((0, 0), np.inf, "intrinsics"),
        ((0, 2), np.nan, "intrinsics"), ((0, 0), 0.0, "fx"), ((0, 0), -3.0, "fx"),
        ((1, 1), 0.0, "fy"),
    ])
    def test_intrinsics_finite_with_positive_focal_lengths(self, at, value, field):
        bad = K.copy()
        bad[at] = value
        with pytest.raises(ConfigError, match=field):
            CameraRig(intrinsics=bad, extrinsics=np.eye(4), feat_w=4, feat_h=4)

    @pytest.mark.parametrize("at", [(0, 3), (2, 3), (1, 1)])
    def test_extrinsics_finite(self, at):
        T = np.eye(4)
        T[at] = np.nan
        with pytest.raises(ConfigError, match="extrinsics must be finite"):
            CameraRig(intrinsics=K, extrinsics=T, feat_w=4, feat_h=4)


class TestHeightSamples:
    def test_multires_exact_values(self):
        hs = make_height_samples("multires")
        assert hs.z_values == (
            -5.0, -4.0, -3.0, -2.0, -1.5, -1.0, -0.5,
            0.0, 0.5, 1.0, 1.5, 2.0, 3.0,
        )

    def test_multires_has_13_strictly_increasing(self):
        z = make_height_samples("multires").z_values
        assert len(z) == 13
        assert all(b > a for a, b in zip(z, z[1:]))

    def test_uniform_four(self):
        z = make_height_samples("uniform:4").z_values
        assert z == pytest.approx([-5.0, -7.0 / 3.0, 1.0 / 3.0, 3.0])

    def test_uniform_endpoints(self):
        assert make_height_samples("uniform:2").z_values == (-5.0, 3.0)

    def test_uniform_too_few(self):
        with pytest.raises(ConfigError):
            make_height_samples("uniform:1")

    def test_uniform_bound(self):
        """`MAX_HEIGHTS` heights are taken, one more is a one-line ConfigError."""
        z = make_height_samples(f"uniform:{MAX_HEIGHTS}").z_values
        assert len(z) == MAX_HEIGHTS and (z[0], z[-1]) == (-5.0, 3.0)
        with pytest.raises(ConfigError, match=f"N <= {MAX_HEIGHTS}") as e:
            make_height_samples(f"uniform:{MAX_HEIGHTS + 1}")
        assert "\n" not in str(e.value)


class TestBevGrid:
    def test_two_by_two_centers(self):
        spec = BevGridSpec(x_min=-1, x_max=1, y_min=-1, y_max=1, nx=2, ny=2)
        centers = bev_cell_centers(spec)
        assert centers[0, 0].tolist() == [-0.5, -0.5]
        assert centers[0, 1].tolist() == [0.5, -0.5]
        assert centers[1, 0].tolist() == [-0.5, 0.5]
        assert centers[1, 1].tolist() == [0.5, 0.5]

    def test_single_cell_center_is_origin(self):
        spec = BevGridSpec(nx=1, ny=1)
        assert bev_cell_centers(spec)[0, 0].tolist() == [0.0, 0.0]

    def test_default_grid_cell_size(self):
        spec = BevGridSpec()
        assert spec.cell_w == pytest.approx(0.8)
        centers = bev_cell_centers(spec)
        # origin sits at the shared corner of the four central cells
        assert centers[63, 63].tolist() == pytest.approx([-0.4, -0.4])
        assert centers[64, 64].tolist() == pytest.approx([0.4, 0.4])

    def test_invalid_extents(self):
        with pytest.raises(ConfigError):
            BevGridSpec(x_min=1.0, x_max=-1.0)

    @pytest.mark.parametrize("fields, name", [
        ({"nx": 16.5}, "nx"), ({"ny": True}, "ny"), ({"nx": "8"}, "nx"),
        ({"x_max": np.inf}, "x_max"), ({"y_min": np.nan}, "y_min"), ({"x_min": "0"}, "x_min"),
        ({"y_max": 10**400}, "y_max"), ({"x_min": -1e308, "x_max": 1e308}, "cell_w"),
        ({"y_min": -1e308, "y_max": 1e308}, "cell_h"),
    ])
    def test_meaningless_geometry_names_the_field(self, fields, name):
        with pytest.raises(ConfigError, match=name):
            BevGridSpec(**fields)

    def test_numpy_and_integer_values_pass(self):
        spec = BevGridSpec(x_min=np.float32(-2), x_max=2, nx=np.int64(4), ny=np.uint8(2))
        assert (spec.cell_w, spec.cell_h) == (1.0, 51.2)
