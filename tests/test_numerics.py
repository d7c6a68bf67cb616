import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dupin.errors import AxisOutOfRange, DegenerateCloud, GridTooSmall
from dupin.numerics import (
    AffineFlat,
    SphereFit,
    TensorGrid,
    _fd_rows,
    fd_axis,
    sphere_fit,
)


class TestFdJet:
    """Finite-difference derivatives along one grid axis (`fd_axis`)."""

    def test_linear_first_derivative(self):
        g = TensorGrid((11,), (0.1,))
        d = fd_axis(g.axis_coords(0), 0.1, 0, 1)
        assert np.allclose(d, 1.0, atol=1e-13)

    def test_quadratic_second_derivative_exact(self):
        g = TensorGrid((11,), (0.1,))
        u = g.axis_coords(0)
        d = fd_axis(u**2, 0.1, 0, 2)
        assert np.allclose(d, 2.0, atol=1e-11)

    def test_sine_against_cosine_oracle(self):
        g = TensorGrid((629,), (0.01,))
        u = g.axis_coords(0)
        d = fd_axis(np.sin(u), 0.01, 0, 1)
        err = np.abs(d[1:-1] - np.cos(u)[1:-1]).max()
        assert err < 1e-4

    def test_polynomials_exact_at_interior(self):
        g = TensorGrid((9, 9), (0.2, 0.3))
        U, V = g.meshgrid()
        p = 1.0 + 2 * U - 0.5 * V + 0.25 * U * V + U**2 - V**2
        d1 = fd_axis(p, 0.2, 0, 1)
        d2 = fd_axis(p, 0.3, 1, 2)
        assert np.abs(d1 - (2 + 0.25 * V + 2 * U)).max() < 1e-12
        assert np.abs(d2 - (-2.0)).max() < 1e-11

    def test_too_small_grid(self):
        with pytest.raises(GridTooSmall):
            fd_axis(np.zeros(4), 0.1, 0, 1)
        with pytest.raises(GridTooSmall):
            _fd_rows(np.zeros(4), 0.1, 0, 2, 0, 2)

    @pytest.mark.parametrize("axis", [2, -1])
    def test_axis_out_of_range(self, axis):
        # checked before the shape is read (axis 2 would raise IndexError
        # there), and a negative axis is refused rather than counted from
        # the end, as TensorGrid's axes are
        with pytest.raises(AxisOutOfRange):
            fd_axis(np.zeros((5, 5)), 0.1, axis, 1)
        with pytest.raises(AxisOutOfRange):
            _fd_rows(np.zeros((5, 5)), 0.1, axis, 2, 0, 5)
        with pytest.raises(AxisOutOfRange):
            TensorGrid((5, 5), (0.1, 0.1)).axis_coords(axis)

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_row_ranges_are_fd_axis(self, n):
        # every row range along every axis, including those that end at the
        # boundary stencils, returned or written to a strided view
        v = np.random.default_rng(n).normal(size=(n, 5, n, 2))
        v[n // 2, 1, 3] = np.nan
        for order in (1, 2):
            for axis in (0, 1, 2):
                whole = np.moveaxis(fd_axis(v, 0.1, axis, order), axis, 0)
                for lo, hi in itertools.combinations(range(v.shape[axis] + 1), 2):
                    got = _fd_rows(v, 0.1, axis, order, lo, hi)
                    assert np.array_equal(np.moveaxis(got, axis, 0).view(np.uint64), whole[lo:hi].view(np.uint64))
                    out = np.full(got.shape[::-1], 7.0).T
                    assert _fd_rows(v, 0.1, axis, order, lo, hi, out) is out
                    assert np.array_equal(np.moveaxis(out, axis, 0).view(np.uint64), whole[lo:hi].view(np.uint64))


# a frozen copy of the per-region stencil passes fd_axis and _fd_rows once
# made: five passes (first row, last row, second row, second-to-last row, deep
# interior), each row's terms summed in offset order, then scaled
_FROZEN_STENCILS = {
    1: (((0, 1, 2), (-1.5, 2.0, -0.5)),
        ((0, -1, -2), (1.5, -2.0, 0.5)),
        ((-1, 1), (-0.5, 0.5)),
        ((-2, -1, 1, 2), (1.0 / 12, -8.0 / 12, 8.0 / 12, -1.0 / 12))),
    2: (((0, 1, 2, 3), (2.0, -5.0, 4.0, -1.0)),
        ((0, -1, -2, -3), (2.0, -5.0, 4.0, -1.0)),
        ((-1, 0, 1), (1.0, -2.0, 1.0)),
        ((-2, -1, 0, 1, 2), (-1.0 / 12, 16.0 / 12, -30.0 / 12, 16.0 / 12, -1.0 / 12))),
}


def _frozen_fd_rows(v, h, order, lo, hi):
    """Rows lo..hi-1 along axis 0 of the derivative, region by region."""
    n = len(v)
    out = np.empty((hi - lo,) + v.shape[1:])
    first, last, central, deep = _FROZEN_STENCILS[order]
    for a, b, (offsets, coeffs) in ((0, 1, first), (n - 1, n, last), (1, 2, central),
                                    (n - 2, n - 1, central), (2, n - 2, deep)):
        a, b = max(a, lo), min(b, hi)
        if a < b:
            total = coeffs[0] * v[a + offsets[0]:b + offsets[0]]
            for off, c in zip(offsets[1:], coeffs[1:]):
                total += c * v[a + off:b + off]
            total *= 1.0 / h**order
            out[a - lo:b - lo] = total
    return out


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_stencils_match_the_frozen_per_region_passes(n):
    # the mirrored rows {0, n-1} and {1, n-2} are computed together; for
    # n = 5..7 their reads meet.  A NaN node keeps its bits through both
    rng = np.random.default_rng(n)
    v = rng.normal(size=(n, n, n, 2))
    v[1, n - 2, n // 2] = np.nan
    bits = lambda a: a.view(np.uint64)
    for order in (1, 2):
        for axis in range(3):
            want = np.moveaxis(_frozen_fd_rows(np.moveaxis(v, axis, 0), 0.1, order, 0, n), 0, axis)
            assert np.array_equal(bits(fd_axis(v, 0.1, axis, order)), bits(want)), (order, axis)
        for lo, hi in itertools.combinations(range(n + 1), 2):
            assert np.array_equal(bits(_fd_rows(v, 0.1, 0, order, lo, hi)),
                                  bits(_frozen_fd_rows(v, 0.1, order, lo, hi))), (order, lo, hi)


def _reference_fd_axis(values, h, axis, order):
    """Index-array stencils: every interior row at second order, the deep
    rows overwritten at fourth order (terms summed in offset order, then
    scaled)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    out = np.empty_like(values)
    idx_all = np.arange(n)

    def put(rowsel, offsets, coeffs, scale):
        sl = [slice(None)] * values.ndim
        sl[axis] = rowsel
        acc_val = None
        for off, c in zip(offsets, coeffs):
            take = [slice(None)] * values.ndim
            take[axis] = rowsel + off
            term = c * values[tuple(take)]
            acc_val = term if acc_val is None else acc_val + term
        out[tuple(sl)] = acc_val * scale

    interior = idx_all[(idx_all >= 1) & (idx_all <= n - 2)]
    deep = idx_all[(idx_all >= 2) & (idx_all <= n - 3)]
    if order == 1:
        put(interior, (-1, 1), (-0.5, 0.5), 1.0 / h)
        put(np.array([0]), (0, 1, 2), (-1.5, 2.0, -0.5), 1.0 / h)
        put(np.array([n - 1]), (0, -1, -2), (1.5, -2.0, 0.5), 1.0 / h)
        put(deep, (-2, -1, 1, 2), (1.0 / 12, -8.0 / 12, 8.0 / 12, -1.0 / 12), 1.0 / h)
    else:
        put(interior, (-1, 0, 1), (1.0, -2.0, 1.0), 1.0 / h**2)
        put(np.array([0]), (0, 1, 2, 3), (2.0, -5.0, 4.0, -1.0), 1.0 / h**2)
        put(np.array([n - 1]), (0, -1, -2, -3), (2.0, -5.0, 4.0, -1.0), 1.0 / h**2)
        put(deep, (-2, -1, 0, 1, 2),
            (-1.0 / 12, 16.0 / 12, -30.0 / 12, 16.0 / 12, -1.0 / 12), 1.0 / h**2)
    return out


@pytest.mark.parametrize("n", [5, 6, 21])
@pytest.mark.parametrize("order,acc", [(1, 4), (2, 4)])   # fd_axis is fourth order only
def test_fd_axis_bit_identical_to_index_stencils(n, order, acc):
    # slice stencils fill each row once, with the reference's term order
    rng = np.random.default_rng(n + 10 * order + acc)
    wide = rng.normal(size=(n + 1, n + 1, 2 * n + 4, 11))
    wide[rng.random(wide.shape) < 0.02] = np.nan
    views = {"contiguous": np.ascontiguousarray(wide[:n, :, :n + 2, :5]),
             "strided": wide[1:, ::-1, ::2, 1::2]}         # (n, n + 1, n + 2, 5) each
    for name, values in views.items():
        assert values.shape == (n, n + 1, n + 2, 5)
        for axis in range(values.ndim):
            for h in (0.1, 0.037):
                got = fd_axis(values, h, axis, order)
                ref = _reference_fd_axis(values, h, axis, order)
                assert got.view(np.uint64).tobytes() == ref.view(np.uint64).tobytes(), (name, axis, h)


class TestSphereFit:
    def test_unit_sphere_exact(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        fit = sphere_fit(pts)
        assert isinstance(fit, SphereFit)
        assert np.abs(fit.center).max() < 1e-12
        assert abs(fit.radius - 1) < 1e-12
        assert fit.residual < 1e-12

    def test_collinear_points_flat(self):
        pts = np.outer(np.arange(10.0), [1.0, 2.0, -1.0])
        fit = sphere_fit(pts)
        assert isinstance(fit, AffineFlat)
        assert fit.dim == 1

    def test_jittered_sphere_recovery(self):
        rng = np.random.default_rng(3)
        center = np.array([1.0, 2.0, 3.0])
        pts = rng.normal(size=(40, 3))
        pts = center + 0.5 * pts / np.linalg.norm(pts, axis=1, keepdims=True)
        pts += 1e-8 * rng.normal(size=pts.shape)
        fit = sphere_fit(pts)
        assert np.abs(fit.center - center).max() < 1e-6
        assert abs(fit.radius - 0.5) < 1e-6

    def test_circle_in_3space(self):
        th = np.linspace(0, 2 * np.pi, 17, endpoint=False)
        pts = np.stack([0.7 * np.cos(th) + 1, 0.7 * np.sin(th) - 2, np.full_like(th, 0.5)], axis=1)
        fit = sphere_fit(pts)
        assert isinstance(fit, SphereFit)
        assert fit.sphere_dim == 1
        assert np.abs(fit.center - [1, -2, 0.5]).max() < 1e-10
        assert abs(fit.radius - 0.7) < 1e-10

    def test_fixed_point(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(25, 3))
        pts = np.array([0.3, -1, 2]) + 1.7 * pts / np.linalg.norm(pts, axis=1, keepdims=True)
        f1 = sphere_fit(pts)
        resampled = f1.center + f1.radius * (pts - f1.center) / np.linalg.norm(
            pts - f1.center, axis=1, keepdims=True)
        f2 = sphere_fit(resampled)
        assert np.abs(f2.center - f1.center).max() < 1e-10
        assert abs(f2.radius - f1.radius) < 1e-10

    def test_degenerate_cloud(self):
        with pytest.raises(DegenerateCloud):
            sphere_fit(np.ones((6, 3)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_sphere_recovery(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(2, 5))
        center = rng.normal(size=N)
        radius = float(rng.uniform(0.2, 3.0))
        pts = rng.normal(size=(4 * N + 8, N))
        pts = center + radius * pts / np.linalg.norm(pts, axis=1, keepdims=True)
        fit = sphere_fit(pts)
        assert isinstance(fit, SphereFit)
        assert np.abs(fit.center - center).max() < 1e-8
        assert abs(fit.radius - radius) < 1e-8
