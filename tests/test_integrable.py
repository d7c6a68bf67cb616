import itertools
import tracemalloc

import numpy as np
import pytest

from dupin import integrable
from dupin.errors import DimensionMismatch, UnsupportedGrid
from dupin.integrable import (
    BLOWUP_BOUND,
    TripleAxisData,
    _apply,
    _bounded,
    _cell_propagators,
    _dense_phase,
    _frame_block,
    _GridProvider,
    _joint_coef_factory,
    _march_axis0,
    _provider_for,
    _solution_from_states,
    _stage_times,
    _sweep_tensor,
    _sweep_total,
    _tensor_columns,
    axis_data_from_triple,
    cumulative_integral,
    integrate_triple,
    reconstruct_frame,
    solve_B,
    solve_linear,
)
from dupin.net import ClassMap, Triple
from dupin.numerics import TensorGrid
from dupin.ribaucour import inversion_w
from dupin.seeds import circle_seed, cylinder_seed, torus_seed
from dupin.verify import _RNG_SEED, dupin_tensor_space


def test_cumulative_integral_exact_on_cubics():
    # four nodes have one inner interval too
    h = 0.13
    for n in (4, 5, 17):
        x = np.arange(n) * h
        y = 2 * x**3 - x**2 + 4 * x - 1
        exact = 0.5 * x**4 - x**3 / 3 + 2 * x**2 - x
        assert np.abs(cumulative_integral(y, h) - exact).max() < 1e-12


class TestIntegrateTriple:
    def test_constant_data_stays_constant(self):
        g = TensorGrid((21, 21), (0.05, 0.05))
        data = TripleAxisData(v0=np.array([1.0, 1.0]),
                              V0=np.array([[1.0], [0.0]]),
                              h_rows=(lambda t: np.zeros((2,) + np.shape(t)),
                                      lambda t: np.zeros((2,) + np.shape(t))))
        t, rep = integrate_triple(data, g, ClassMap.simple(2), substeps=4)
        assert np.abs(t.v - 1.0).max() < 1e-14
        assert np.abs(t.h).max() == 0.0
        assert rep.max_residual < 1e-12

    def test_torus_boundary_data_reproduces_chart(self):
        seed = torus_seed(R=1.0, r=0.3, shape=(41, 41))
        data = axis_data_from_triple(seed.triple)
        t, rep = integrate_triple(data, seed.triple.grid, seed.triple.class_map, substeps=16)
        assert np.abs(t.v - seed.triple.v).max() < 1e-6
        assert np.abs(t.V - seed.triple.V).max() < 1e-6
        assert np.abs(t.h - seed.triple.h).max() < 1e-6

    def test_sweep_orders_agree(self):
        seed = torus_seed(R=1.0, r=0.3, shape=(41, 41))
        data = axis_data_from_triple(seed.triple)
        t01, _ = integrate_triple(data, seed.triple.grid, seed.triple.class_map,
                                  substeps=16, sweep_order=(0, 1))
        t10, _ = integrate_triple(data, seed.triple.grid, seed.triple.class_map,
                                  substeps=16, sweep_order=(1, 0))
        scale = np.abs(t01.v).max()
        assert np.abs(t01.v - t10.v).max() / scale < 1e-8
        assert np.abs(t01.V - t10.V).max() < 1e-8
        assert np.abs(t01.h - t10.h).max() < 1e-8

    def test_three_dimensional_grid_rejected(self):
        g = TensorGrid((5, 5, 5), (0.1, 0.1, 0.1))
        data = TripleAxisData(v0=np.ones(3), V0=np.zeros((3, 1)),
                              h_rows=tuple(lambda t: np.zeros((3,) + np.shape(t)) for _ in range(3)))
        with pytest.raises(UnsupportedGrid):
            integrate_triple(data, g, ClassMap.simple(3))


class TestReconstructFrame:
    def test_circle_to_1e10(self):
        c = circle_seed(radius=1.0, n=11, u_range=(0.0, 2 * np.pi), ambient=3)
        rec = reconstruct_frame(c.triple, (c.tangents[:, 0], c.normals[:, 0]),
                                base_point=c.positions[0], substeps=100)
        assert np.abs(rec.positions - c.positions).max() < 1e-10
        assert rec.reports["gram_defect"] < 1e-12

    def test_cylinder_closed_form(self):
        c = cylinder_seed(radius=1.0, shape=(21, 21), u_range=(0.0, 1.0), z_range=(0.0, 1.0))
        rec = reconstruct_frame(c.triple, (c.tangents[:, 0, 0], c.normals[:, 0, 0]),
                                base_point=c.positions[0, 0], substeps=24)
        assert np.abs(rec.positions - c.positions).max() < 1e-10
        assert rec.reports["path_independence"] < 1e-10

    def test_rotated_initial_frame_equivariance(self):
        t = torus_seed(R=1.0, r=0.3, shape=(21, 21), u1_range=(0.1, 0.6), u2_range=(0.1, 0.6))
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 3))
        Q, _ = np.linalg.qr(A)
        X0, xi0 = t.tangents[:, 0, 0], t.normals[:, 0, 0]
        r1 = reconstruct_frame(t.triple, (X0, xi0), base_point=t.positions[0, 0], substeps=8)
        r2 = reconstruct_frame(t.triple, (X0 @ Q.T, xi0 @ Q.T),
                               base_point=t.positions[0, 0] @ Q.T, substeps=8)
        assert np.abs(r2.positions - r1.positions @ Q.T).max() < 1e-11

    def test_frame_of_the_wrong_shape_rejected(self, torus_patch):
        X0, xi0 = torus_patch.tangents[:, 0, 0], torus_patch.normals[:, 0, 0]
        with pytest.raises(DimensionMismatch, match="frame0 must be"):
            reconstruct_frame(torus_patch.triple, (X0[:1], xi0), substeps=4)

    def test_torus_roundtrip(self, torus_patch):
        t = torus_patch
        rec = reconstruct_frame(t.triple, (t.tangents[:, 0, 0], t.normals[:, 0, 0]),
                                base_point=t.positions[0, 0], substeps=12)
        assert np.abs(rec.positions - t.positions).max() < 1e-8


class TestSolveB:
    def test_h_zero_keeps_B_constant(self, cylinder_patch):
        sol = solve_B(cylinder_patch.triple, (0.3, -0.7), substeps=4)
        assert np.abs(sol.B[0] - 0.3).max() < 1e-14
        assert np.abs(sol.B[1] + 0.7).max() < 1e-14

    def test_zero_seed_zero_solution(self, torus_patch):
        sol = solve_B(torus_patch.triple, (0.0, 0.0), substeps=4)
        assert np.abs(sol.B).max() == 0.0

    def test_linearity(self, torus_fine):
        t = torus_fine.triple
        s1 = solve_B(t, (1.0, 0.0), substeps=8)
        s2 = solve_B(t, (0.0, 1.0), substeps=8)
        s3 = solve_B(t, (1.0, 1.0), substeps=8)
        assert np.abs(s3.B - s1.B - s2.B).max() < 1e-9

    def test_seed_of_the_wrong_shape_rejected(self, torus_patch):
        with pytest.raises(DimensionMismatch, match="B seed shape"):
            solve_B(torus_patch.triple, (0.1, 0.2, 0.3), substeps=4)

    def test_v_solves_the_tensor_system(self, torus_patch):
        # v itself satisfies dB_m = h_{jm} B_{j'} (it is the identity-tensor data)
        t = torus_patch.triple
        sol = solve_B(t, tuple(t.v[(slice(None),) + (0,) * 2]), substeps=16)
        assert np.abs(sol.B - t.v).max() < 1e-9


    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    @pytest.mark.parametrize("case,substeps", [("torus_patch", 4), ("recursion_step1", 4),
                                               ("torus41", 12), ("bare_torus41", 12)])
    def test_same_B_as_the_joint_system(self, case, substeps, reverse, request):
        # solve_B sweeps the B block alone from h[axis]; the joint system
        # builds the same columns from its coupled block's fields, whose
        # blocks of substeps differ (on the 41^2 torus at 12 substeps the
        # tensor columns of the second phase take three calls, the joint
        # fields twelve)
        t, _ = _column_case(case, request)
        B0 = np.linspace(0.4, -0.3, t.n_classes)
        D, R = t.grid.ndim, t.n_normals
        order = _order(t, reverse)
        joint = solve_linear(t, B0, 1.0, np.full(D, 0.1), np.full(R, 0.2), substeps=substeps,
                             order=order)
        sol = solve_B(t, B0, substeps=substeps, order=order)
        assert np.array_equal(_bits(sol.B), _bits(joint.B))


class TestSolveLinear:
    def test_constants_solve_homogeneous_flat(self, cylinder_patch):
        # gamma = 0, beta = 0, phi = 1 solves the system when B = 0
        sol = solve_linear(cylinder_patch.triple, (0.0, 0.0), 1.0, None, None, substeps=4)
        assert np.abs(sol.phi - 1.0).max() < 1e-14
        assert np.abs(sol.gamma).max() < 1e-14
        assert np.abs(sol.beta).max() < 1e-14

    def test_inversion_closed_form_solves(self, torus_patch):
        # the inversion data (phi, gamma, beta, B = v) satisfies the joint system:
        # integrating from its base values reproduces the closed form
        w = inversion_w(torus_patch, np.array([0.0, 0.0, 2.0]), 1.1)
        base = (0, 0)
        sol = solve_linear(torus_patch.triple, w.B[(slice(None),) + base],
                           w.phi[base], w.gamma[(slice(None),) + base],
                           w.beta[(slice(None),) + base], substeps=16)
        assert np.abs(sol.phi - w.phi).max() < 1e-8
        assert np.abs(sol.gamma - w.gamma).max() < 1e-8
        assert np.abs(sol.beta - w.beta).max() < 1e-8
        assert sol.reports["gnorm_fd"] < 1e-3

    def test_superposition(self, torus_fine):
        t = torus_fine.triple
        a = solve_linear(t, (0.1, 0.2), 1.0, (0.1, 0.0), (0.2,), substeps=8)
        b = solve_linear(t, (-0.3, 0.1), 0.5, (0.0, 0.2), (-0.1,), substeps=8)
        c = solve_linear(t, (-0.2, 0.3), 1.5, (0.1, 0.2), (0.1,), substeps=8)
        assert np.abs(c.phi - a.phi - b.phi).max() < 1e-10
        assert np.abs(c.gamma - a.gamma - b.gamma).max() < 1e-10
        assert np.abs(c.beta - a.beta - b.beta).max() < 1e-10

    def test_path_independence(self, torus_fine):
        sol = solve_linear(torus_fine.triple, (0.3, -0.2), 1.0, (0.1, 0.05), (0.2,), substeps=8)
        assert sol.reports["path_independence"] < 1e-8

    def test_canonical_representative(self, torus_patch):
        t = torus_patch.triple
        sol = solve_linear(t, (0.2, 0.1), 2.0, (0.1, 0.0), (0.3,), substeps=6)
        can = sol.canonical((0,), t)
        assert abs(can.phi[0, 0] - 1.0) < 1e-12
        assert abs(can.beta[0][0, 0]) < 1e-12
        # the adjusted B still solves the tensor system: re-integrate and compare
        re = solve_B(t, can.B[:, 0, 0], substeps=8)
        assert np.abs(re.B - can.B).max() < 1e-8


def test_triple_reextraction_by_fd(torus_patch):
    """Re-extracting (v, h, V) from a sample by finite differences
    reproduces the triple to truncation order."""
    from dupin.numerics import fd_axis

    t = torus_patch.triple
    s = torus_patch
    g = s.grid
    cls = t.class_map.classes
    interior = g.interior_mask(2)
    lame = t.lame()
    for i in range(2):
        dg = fd_axis(s.positions, g.spacings[i], i, 1)
        v_fd = (dg * s.tangents[i]).sum(-1)
        assert np.abs((v_fd - lame[i])[interior]).max() < 1e-6
    for j in range(2):
        for m in range(2):
            dv = fd_axis(t.v[m], g.spacings[j], j, 1)
            assert np.abs((dv / t.v[cls[j]] - t.h[j, m])[interior]).max() < 1e-6
    # V from the normal-frame evolution: d xi_r / du_i = -V_{i'}^r X_i
    for i in range(2):
        d = fd_axis(s.normals[0], g.spacings[i], i, 1)
        V_fd = -(d * s.tangents[i]).sum(-1)
        assert np.abs((V_fd - t.V[cls[i], 0])[interior]).max() < 1e-6


def test_axis_data_from_grid_triple(torus_patch):
    """Node-valued triples (no analytic callables) still provide usable
    per-axis data through interpolation."""
    from dupin.net import Triple

    t = torus_patch.triple
    bare = Triple(t.grid, t.class_map, t.v.copy(), t.h.copy(), t.V.copy())
    data = axis_data_from_triple(bare)
    out, rep = integrate_triple(data, t.grid, t.class_map, substeps=8)
    assert np.abs(out.v - t.v).max() < 1e-5
    assert np.abs(out.V - t.V).max() < 1e-5


def _cubic_fields(U0, U1):
    """v, h, V fields that are cubic polynomials in each coordinate."""
    p = (U0**3 - 2.0 * U0 + 0.5) * (1.0 + 0.3 * U1) + U1**3 - U1**2
    q = 0.7 * U0**2 * U1 - 1.1 * U1**3 + U0
    return np.stack([p, q]), np.stack([np.stack([q, p]), np.stack([p * 0.5, -q])]), np.stack([p, q])[:, None]


class TestGridInterpolation:
    GRID = TensorGrid((9, 7), (0.1, 0.2), (0.3, -0.5))

    def test_cubics_reproduced_in_the_end_cells(self):
        # the first and last cells use clipped stencils (i0 = 0 and n - 4)
        g = self.GRID
        v, h, V = _cubic_fields(*g.meshgrid())
        provider = _GridProvider(Triple(g, ClassMap.simple(2), v, h, V))
        for axis in range(2):
            T, _ = _stage_times(g.axis_coords(axis), 3)
            t = np.concatenate([T[0], T[-1]])
            other = 1 - axis
            idx = np.zeros((g.shape[other], 2), dtype=int)
            idx[:, other] = np.arange(g.shape[other])
            pts = np.empty((t.size, g.shape[other], 2))
            pts[..., axis] = t[:, None]
            pts[..., other] = g.axis_coords(other)[None, :]
            exact = dict(zip("vhV", _cubic_fields(pts[..., 0], pts[..., 1])))
            got = provider.line_eval(axis, idx)(t)
            for name in "vhV":
                assert got[name].shape == exact[name].shape
                scale = np.abs(exact[name]).max()
                assert np.abs(got[name] - exact[name]).max() <= 1e-13 * scale

    def test_fewer_than_four_nodes_rejected(self):
        g = TensorGrid((3, 5), (0.1, 0.2))
        v, h, V = _cubic_fields(*g.meshgrid())
        provider = _GridProvider(Triple(g, ClassMap.simple(2), v, h, V))
        idx = np.zeros((5, 2), dtype=int)
        idx[:, 1] = np.arange(5)
        with pytest.raises(UnsupportedGrid):
            provider.line_eval(0, idx)(np.array([0.05]))
        idx = np.zeros((3, 2), dtype=int)
        idx[:, 0] = np.arange(3)
        assert provider.line_eval(1, idx)(np.array([0.3]))["v"].shape == (2, 1, 3)


def _fancy_gather_interp(provider, fields, axis, idx, t):
    """Reference: the interpolation with four per-element fancy gathers per
    field on every call, one per stencil node, summed in node order."""
    i0, w = provider._weights(axis, t)
    take = [idx[:, d] for d in range(provider.grid.ndim)]
    out = []
    for field in fields:
        lead = (slice(None),) * (field.ndim - provider.grid.ndim)
        acc = None
        for m in range(4):
            take[axis] = (i0 + m)[:, None]
            term = w[:, m, None] * field[lead + tuple(take)]
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _random_triple(grid, classes, R, rng):
    cm = ClassMap(classes)
    k, D = cm.n_classes, grid.ndim
    v = rng.normal(size=(k,) + grid.shape)
    h = rng.normal(size=(D, k) + grid.shape)
    V = rng.normal(size=(k, R) + grid.shape)
    # NaN nodes: one at the first node (a clipped first cell) and one inside
    v[(0,) + (0,) * D] = np.nan
    h[(D - 1, k - 1) + tuple(n // 2 for n in grid.shape)] = np.nan
    V[(k - 1, R - 1) + tuple(n - 1 for n in grid.shape)] = np.nan
    return Triple(grid, cm, v, h, V)


@pytest.mark.parametrize("grid, classes, R", [
    (TensorGrid((9,), (0.1,), (0.3,)), (0,), 3),
    (TensorGrid((9, 7), (0.1, 0.2), (0.3, -0.5)), (0, 1), 1),
    (TensorGrid((6, 5, 7), (0.1, 0.05, 0.2), (0.0, 1.0, -0.3)), (0, 1, 1), 2),
])
def test_row_gathers_equal_fancy_gathers_bit_for_bit(grid, classes, R):
    # stage times over the whole axis reach the clipped first and last cells;
    # line sets: every line, the base line alone, and lines whose sweep-axis
    # entries (ignored) are not zero
    rng = np.random.default_rng(_RNG_SEED)
    tr = _random_triple(grid, classes, R, rng)
    provider = _GridProvider(tr)
    D = grid.ndim
    for axis in range(D):
        T, _ = _stage_times(grid.axis_coords(axis), 3)
        t = T.T.reshape(-1)
        every = _all_lines(grid, axis)
        shifted = every.copy()
        shifted[:, axis] = rng.integers(0, grid.shape[axis], len(every))
        for idx in (every, np.zeros((1, D), dtype=int), shifted):
            got = provider.line_eval(axis, idx)(t)
            ref = _fancy_gather_interp(provider, (tr.v, tr.h, tr.V), axis, idx, t)
            for name, want in zip("vhV", ref):
                assert got[name].shape == want.shape[:-2] + (t.size, len(idx))
                assert np.array_equal(_bits(got[name]), _bits(want)), (axis, name)
            row = provider.h_row(axis, idx)(t)
            want = _fancy_gather_interp(provider, (tr.h[axis],), axis, idx, t)[0]
            assert np.array_equal(_bits(row), _bits(want))
            assert np.isnan(got["v"]).any()


# ---------------------------------------------------------------------------
# Reference: the stage-by-stage RK4 sweep and row march that the propagator
# form replaced.  Every RK stage evaluates the rate at one scalar time on a
# batch of lines (node-valued coefficients interpolated per time), and the
# row march integrates h_{1, .} by two cumulative quadratures per stage.


def _ref_weights(g, axis, t):
    n = g.shape[axis]
    s = (t - g.origins[axis]) / g.spacings[axis]
    i0 = int(np.clip(np.floor(s) - 1, 0, n - 4))
    xs = np.arange(i0, i0 + 4, dtype=float)
    w = np.ones(4)
    for m in range(4):
        for l in range(4):
            if l != m:
                w[m] *= (s - xs[l]) / (xs[m] - xs[l])
    return i0, w


def _ref_line_eval(triple, axis, idx, t):
    g = triple.grid
    if triple.analytic is not None:
        pts = np.empty((idx.shape[0], g.ndim))
        for d in range(g.ndim):
            pts[:, d] = g.origins[d] + g.spacings[d] * idx[:, d]
        pts[:, axis] = t
        return triple.analytic(pts)
    i0, w = _ref_weights(g, axis, t)
    out = {}
    for name in ("v", "h", "V"):
        field = getattr(triple, name)
        lead = (slice(None),) * (field.ndim - g.ndim)
        acc = None
        for m in range(4):
            take = [idx[:, d] for d in range(g.ndim)]
            take[axis] = np.full(idx.shape[0], i0 + m)
            term = w[m] * field[lead + tuple(take)]
            acc = term if acc is None else acc + term
        out[name] = acc
    return out


def _ref_rk4_span(rhs, y, t0, t1, substeps):
    h = (t1 - t0) / substeps
    t = t0
    for _ in range(substeps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def _ref_sweep(grid, state0, rhs_factory, order, substeps):
    D = grid.ndim
    out = np.full(grid.shape + (state0.size,), np.nan)
    out[(0,) * D] = state0
    done = []
    for a in order:
        ranges = [range(grid.shape[d]) if d in done else (0,) for d in range(D)]
        idx = np.array(list(itertools.product(*ranges)), dtype=int)
        rhs = rhs_factory(a, idx)
        coords = grid.axis_coords(a)
        Y = out[tuple(idx.T)]
        for j in range(1, grid.shape[a]):
            Y = _ref_rk4_span(rhs, Y, coords[j - 1], coords[j], substeps)
            store = idx.copy()
            store[:, a] = j
            out[tuple(store.T)] = Y
        done.append(a)
    return out


def _ref_tensor_rhs(triple, k):
    def factory(axis, idx):
        ca = triple.class_map.classes[axis]

        def rhs(t, Y):
            h = _ref_line_eval(triple, axis, idx, t)["h"][axis]
            B = Y.reshape(Y.shape[0], k, -1)
            return (h.T[:, :, None] * B[:, ca][:, None, :]).reshape(Y.shape)

        return rhs

    return factory


def _ref_joint_rhs(triple, D, k):
    def factory(axis, idx):
        ca = triple.class_map.classes[axis]

        def rhs(t, Y):
            C = _ref_line_eval(triple, axis, idx, t)
            v, h, V = C["v"], C["h"], C["V"]
            B = Y[:, :k].T
            gam = Y[:, k + 1 : k + 1 + D].T
            bet = Y[:, k + 1 + D :].T
            dY = np.empty_like(Y)
            dY[:, :k] = h[axis].T * B[ca][:, None]
            dY[:, k] = v[ca] * gam[axis]
            for j in range(D):
                if j != axis:
                    dY[:, k + 1 + j] = h[j, ca] * gam[axis]
            diag = B[ca].copy()
            for j in range(D):
                if j != axis:
                    diag -= h[j, ca] * gam[j]
            diag += (bet * V[ca]).sum(axis=0)
            dY[:, k + 1 + axis] = diag
            dY[:, k + 1 + D :] = (-V[ca] * gam[axis]).T
            return dY

        return rhs

    return factory


def _ref_frame_rhs(triple, D, R, N):
    def factory(axis, idx):
        ca = triple.class_map.classes[axis]

        def rhs(t, Y):
            C = _ref_line_eval(triple, axis, idx, t)
            v, h, V = C["v"], C["h"], C["V"]
            Z = Y.reshape(Y.shape[0], 1 + D + R, N)
            X, xi = Z[:, 1 : 1 + D], Z[:, 1 + D :]
            dZ = np.empty_like(Z)
            Xa = X[:, axis]
            dZ[:, 0] = v[ca][:, None] * Xa
            acc = np.zeros_like(Xa)
            for j in range(D):
                if j != axis:
                    dZ[:, 1 + j] = h[j, ca][:, None] * Xa
                    acc -= h[j, ca][:, None] * X[:, j]
            for r in range(R):
                acc += V[ca, r][:, None] * xi[:, r]
                dZ[:, 1 + D + r] = -V[ca, r][:, None] * Xa
            dZ[:, 1 + axis] = acc
            return dZ.reshape(Y.shape)

        return rhs

    return factory


def _ref_march_axis0(data, grid, class_map, substeps):
    k = class_map.n_classes
    R = data.V0.shape[1]
    ca = class_map.classes[0]
    hrow = data.h_rows[0]

    def rhs(t, Y):
        hv = np.atleast_1d(hrow(np.asarray(t)))
        V = Y[:, k:].reshape(-1, k, R)
        dY = np.empty_like(Y)
        dY[:, :k] = hv[None, :] * Y[:, ca][:, None]
        dY[:, k:] = (hv[None, :, None] * V[:, ca][:, None, :]).reshape(-1, k * R)
        return dY

    coords = grid.axis_coords(0)
    n = grid.shape[0]
    v, V = np.empty((k, n)), np.empty((k, R, n))
    v[:, 0], V[:, :, 0] = data.v0, data.V0
    Y = np.concatenate([data.v0, data.V0.reshape(-1)])[None]
    for j in range(1, n):
        Y = _ref_rk4_span(rhs, Y, coords[j - 1], coords[j], substeps)
        v[:, j] = Y[0, :k]
        V[:, :, j] = Y[0, k:].reshape(k, R)
    return v, V, np.reshape(hrow(coords), (k, n))


def _ref_integrate_triple_2d(data, grid, class_map, substeps):
    k = class_map.n_classes
    R = data.V0.shape[1]
    ca, cb = class_map.classes
    na, nb = grid.shape
    ub = grid.axis_coords(1)
    hstep = grid.spacings[0]
    row_v, row_V, row_ha = _ref_march_axis0(data, grid, class_map, substeps)

    def reconstruct_hb(ha, t):
        hb0 = data.h_rows[1](np.asarray(t))
        hb = np.empty((k, na))
        hb[ca] = hb0[ca] * np.exp(cumulative_integral(ha[ca], hstep))
        for m in range(k):
            if m != ca:
                hb[m] = hb0[m] + cumulative_integral(hb[ca] * ha[m], hstep)
        return hb

    def unpack(Y):
        return (Y[0, : k * na].reshape(k, na), Y[0, k * na : -k * na].reshape(k, R, na),
                Y[0, -k * na :].reshape(k, na))

    def rhs(t, Y):
        v_, V_, ha = unpack(Y)
        hb = reconstruct_hb(ha, t)
        return np.concatenate([(hb * v_[cb]).ravel(), (hb[:, None] * V_[cb][None]).ravel(),
                               (ha[cb] * hb).ravel()])[None]

    v, V, h = np.empty((k, na, nb)), np.empty((k, R, na, nb)), np.empty((2, k, na, nb))
    Y = np.concatenate([row_v.ravel(), row_V.ravel(), row_ha.ravel()])[None]
    for j in range(nb):
        if j:
            Y = _ref_rk4_span(rhs, Y, ub[j - 1], ub[j], substeps)
        v[:, :, j], V[:, :, :, j], h[0, :, :, j] = unpack(Y)
        h[1, :, :, j] = reconstruct_hb(h[0, :, :, j], ub[j])
    return v, h, V


def _ref_integrate_triple(data, grid, class_map, substeps, order, march_2d=None):
    """(v, h, V) of the reference march; march_2d, if given, replaces the
    2-d row march."""
    march_2d = march_2d or _ref_integrate_triple_2d
    if grid.ndim == 1:
        v, V, h = _ref_march_axis0(data, grid, class_map, substeps)
        return v, h[None], V
    if order == (0, 1):
        return march_2d(data, grid, class_map, substeps)
    flip = TensorGrid(grid.shape[::-1], grid.spacings[::-1], grid.origins[::-1])
    v, h, V = march_2d(
        TripleAxisData(v0=data.v0, V0=data.V0, h_rows=data.h_rows[::-1]), flip,
        ClassMap(class_map.classes[::-1]), substeps)
    return (np.swapaxes(v, 1, 2), np.stack([np.swapaxes(h[1], 1, 2), np.swapaxes(h[0], 1, 2)]),
            np.swapaxes(V, 2, 3))


def _bare(t):
    """A node-valued copy of a triple (no analytic callables)."""
    return Triple(t.grid, t.class_map, t.v.copy(), t.h.copy(), t.V.copy())


REFERENCE_CASES = ["torus_fine", "cylinder_patch", "recursion_step1", "bare_torus_patch", "circle4"]


def _case_triple(name, request):
    """The triple of a reference case; recursion_step1 and bare_torus_patch
    are node-valued (interpolated coefficients, interpolated axis data)."""
    if name == "bare_torus_patch":
        return _bare(request.getfixturevalue("torus_patch").triple)
    return request.getfixturevalue(name).triple


def _order(t, reverse):
    order = tuple(range(t.grid.ndim))
    return order[::-1] if reverse else order


def _assert_close(new, ref, tol=1e-13):
    assert new.shape == ref.shape
    assert np.array_equal(np.isnan(new), np.isnan(ref))
    assert np.nanmax(np.abs(new - ref)) <= tol * np.nanmax(np.abs(ref))


def _assert_same_mask(new, ref):
    assert (new is None and ref is None) or np.array_equal(new, ref)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize("case", REFERENCE_CASES)
class TestPropagatorsMatchStagewiseReference:
    """The propagator form of RK4 reproduces the stage-by-stage sweep to
    roundoff: fields to 1e-13 relative, masks equal."""

    def test_solve_linear(self, case, reverse, request):
        t = _case_triple(case, request)
        D, k, R = t.grid.ndim, t.n_classes, t.n_normals
        B0, gamma0, beta0 = np.linspace(0.3, -0.2, k), np.full(D, 0.1), np.full(R, 0.2)
        order = _order(t, reverse)
        sol = solve_linear(t, B0, 1.0, gamma0, beta0, substeps=4, order=order,
                           check_alternate=False)
        states = _ref_sweep(t.grid, np.concatenate([B0, [1.0], gamma0, beta0]),
                            _ref_joint_rhs(t, D, k), order, 4)
        ref = _solution_from_states(t, states, {})
        for name in ("phi", "gamma", "beta", "B"):
            _assert_close(getattr(sol, name), getattr(ref, name))
        _assert_same_mask(sol.mask, ref.mask)

    def test_solve_B(self, case, reverse, request):
        t = _case_triple(case, request)
        k = t.n_classes
        B0 = np.linspace(0.5, 1.0, k)
        order = _order(t, reverse)
        sol = solve_B(t, B0, substeps=4, order=order, check_alternate=False)
        ref = np.moveaxis(_ref_sweep(t.grid, B0, _ref_tensor_rhs(t, k), order, 4), -1, 0)
        _assert_close(sol.B, ref)
        good = _bounded(ref, axis=0)
        _assert_same_mask(sol.mask, None if good.all() else good)

    def test_reconstruct_frame(self, case, reverse, request):
        t = _case_triple(case, request)
        D, R = t.grid.ndim, t.n_normals
        N = D + R
        order = _order(t, reverse)
        rec = reconstruct_frame(t, substeps=4, order=order, check_alternate=False)
        state0 = np.concatenate([np.zeros((1, N)), np.eye(N)]).ravel()  # the default frame
        Z = _ref_sweep(t.grid, state0, _ref_frame_rhs(t, D, R, N), order, 4)
        Z = Z.reshape(t.grid.shape + (1 + D + R, N))
        _assert_close(rec.positions, Z[..., 0, :])
        _assert_close(rec.tangents, np.moveaxis(Z[..., 1 : 1 + D, :], -2, 0))
        _assert_close(rec.normals, np.moveaxis(Z[..., 1 + D :, :], -2, 0))

    def test_integrate_triple(self, case, reverse, request):
        t = _case_triple(case, request)
        order = _order(t, reverse)
        data = axis_data_from_triple(t)
        out, _ = integrate_triple(data, t.grid, t.class_map, substeps=4,
                                  sweep_order=order if t.grid.ndim == 2 else (0, 1))
        v, h, V = _ref_integrate_triple(data, t.grid, t.class_map, 4, order)
        _assert_close(out.v, v)
        _assert_close(out.h, h)
        _assert_close(out.V, V)
        bad = ~np.isfinite(v).all(axis=0) | (np.abs(v) > BLOWUP_BOUND).any(axis=0)
        _assert_same_mask(out.mask, ~bad if bad.any() else None)


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_tensor_space_matches_stagewise_reference(case, request):
    t = _case_triple(case, request)
    k = t.n_classes
    space = dupin_tensor_space(t, substeps=4)
    seeds = np.concatenate([np.eye(k), np.random.default_rng(_RNG_SEED + 1).normal(size=(2, k))])
    B = _ref_sweep(t.grid, seeds.T.ravel(), _ref_tensor_rhs(t, k), _order(t, False), 4)
    A = np.moveaxis(B.reshape(t.grid.shape + (k, len(seeds))), (-1, -2), (0, 1))
    A = A.reshape(len(seeds), -1)
    _assert_close(space["basis"], A[:k])
    _assert_close(space["singular_values"], np.linalg.svd(A, compute_uv=False))


# ---------------------------------------------------------------------------
# Reference: the dense tensor-system propagators that the rank-one columns
# replaced.  The coefficient matrix is A = h[axis] e_ca^T, built in full.


def _dense_tensor_coef_factory(provider, classes):
    def factory(axis, idx):
        evaluate = provider.h_row(axis, idx)

        def assemble(C):
            h_axis = C["h"]
            A = np.zeros(h_axis.shape[1:] + (h_axis.shape[0],) * 2)
            A[..., :, classes[axis]] = np.moveaxis(h_axis, 0, -1)
            return A

        return (lambda t: {"h": evaluate(t)}), assemble

    return factory


# Reference: the joint system's whole coefficient matrices, state (B, phi,
# gamma, beta) of size k + 1 + D + R, that the coupled block replaced: the
# tensor block for B, and (phi, gamma, beta) move like the frame's
# (position, X, xi) with B_ca added to dgamma_axis.


def _full_joint_coef_factory(provider, class_map, D, k, R):
    cls = class_map.classes
    S = k + 1 + D + R

    def factory(axis, idx):
        ca = cls[axis]

        def assemble(C):
            A = np.zeros(C["v"].shape[1:] + (S, S))
            A[..., :k, ca] = np.moveaxis(C["h"][axis], 0, -1)    # dB_m = h[axis, m] B_ca
            _frame_block(A, k, C, axis, ca)
            A[..., k + 1 + axis, ca] = 1.0
            return A

        return provider.line_eval(axis, idx), assemble

    return factory


def _unfused_cell_propagators(coef, coords, substeps):
    """`_cell_propagators` with every matrix product summed in index order by
    `_apply`, so that no multiply-add is fused (BLAS promises neither), and
    the coefficient fields evaluated one substep at a time."""
    fields, assemble = coef

    def coef(t):
        return assemble(fields(t))

    T, h = _stage_times(coords, substeps)
    h = h[:, None, None, None]
    A0 = coef(T[:, 0])
    eye = np.eye(A0.shape[-1])
    prop = None
    for s in range(substeps):
        Amid, A1 = np.split(coef(T[:, 2 * s + 1 : 2 * s + 3].T.reshape(-1)), 2)
        K2 = _apply(Amid, eye + 0.5 * h * A0)
        K3 = _apply(Amid, eye + 0.5 * h * K2)
        K4 = _apply(A1, eye + h * K3)
        step = eye + (h / 6.0) * (A0 + 2.0 * K2 + 2.0 * K3 + K4)
        prop = step if prop is None else _apply(step, prop)
        A0 = A1
    return prop


def _dense_tensor_sweep(t, B0, substeps, order):
    phase = _dense_phase(_dense_tensor_coef_factory(_provider_for(t), t.class_map.classes),
                         substeps)
    return np.moveaxis(_sweep_total(t.grid, B0, phase, order), (-1, -2), (0, 1))


def _all_lines(grid, axis):
    """The index of every grid line along `axis` (its sweep-axis entry 0)."""
    ranges = [(0,) if d == axis else range(grid.shape[d]) for d in range(grid.ndim)]
    return np.array(list(itertools.product(*ranges)), dtype=int)


@pytest.fixture(scope="module")
def torus41():
    return torus_seed(R=1.0, r=0.3, shape=(41, 41))


@pytest.fixture(scope="module")
def cylinder41():
    return cylinder_seed(radius=1.0, shape=(41, 41))


def _column_case(name, request):
    """(triple, substeps) of a column test case; a "bare_" prefix strips the
    analytic callables (interpolated coefficients)."""
    t = request.getfixturevalue(name.removeprefix("bare_")).triple
    return (_bare(t) if name.startswith("bare_") else t), (4 if t.grid.ndim == 3 else 12)


def _dense_propagators(coef, coords, substeps):
    return _cell_propagators(coef, coords, substeps)[0]


def _columns_and_dense(t, substeps, propagators=_dense_propagators):
    provider = _provider_for(t)
    factory = _dense_tensor_coef_factory(provider, t.class_map.classes)
    for axis in range(t.grid.ndim):
        idx = _all_lines(t.grid, axis)
        ca = t.class_map.classes[axis]
        coords = t.grid.axis_coords(axis)
        cols = _tensor_columns(provider.h_row(axis, idx), coords, ca, substeps)
        dense = propagators(factory(axis, idx), coords, substeps)
        yield cols, dense, ca


class TestRankOneTensorPropagators:
    """The tensor system's propagators are I + (c - e_ca) e_ca^T; their
    columns repeat the dense matrix products term for term."""

    @pytest.mark.parametrize("case", ["torus41", "cylinder41", "bare_torus41", "bare_cylinder41"])
    def test_columns_equal_dense_propagators_for_k2(self, case, request):
        t, substeps = _column_case(case, request)
        for cols, dense, ca in _columns_and_dense(t, substeps):
            assert np.array_equal(dense[..., ca], cols)
            rest = dense.copy()
            rest[..., ca] = np.eye(cols.shape[-1])[ca]
            assert np.array_equal(rest, np.broadcast_to(np.eye(cols.shape[-1]), rest.shape))

    @pytest.mark.parametrize("case", ["recursion_step2", "recursion_step1"])
    def test_columns_match_dense_propagators_to_roundoff(self, case, request):
        # BLAS may fuse the product-sum c_m + s_m c_ca of the dense matrix
        # product into one rounding; the column form rounds twice
        t, substeps = _column_case(case, request)
        for cols, dense, ca in _columns_and_dense(t, substeps):
            assert np.abs(dense[..., ca] - cols).max() <= 1e-15 * np.abs(cols).max()

    @pytest.mark.parametrize("case", ["recursion_step1", "recursion_step2", "bare_torus41"])
    def test_columns_equal_unfused_dense_products(self, case, request):
        # summed in index order, the dense products' other terms are exact
        # zeros, so the columns repeat their arithmetic exactly for any k
        t, substeps = _column_case(case, request)
        for cols, dense, ca in _columns_and_dense(t, substeps, _unfused_cell_propagators):
            assert np.array_equal(dense[..., ca], cols)

    @pytest.mark.parametrize("row", ["off_class", "class"])
    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_non_finite_coefficients_mask_the_same_nodes(self, row, order):
        # the dense products spread 0 * nan over a whole propagator, the
        # column form keeps it in one row: the node masks must still agree
        g = TensorGrid((9, 9), (0.1, 0.1), (0.2, 0.3))
        v, h, V = _cubic_fields(*g.meshgrid())
        h = h.copy()
        for axis, ca in enumerate((0, 1)):
            h[axis, 1 - ca if row == "off_class" else ca, 4, 4] = np.nan
        t = Triple(g, ClassMap.simple(2), v, h, V)
        B0 = np.array([0.4, -0.3])
        sol = solve_B(t, B0, substeps=4, order=order, check_alternate=False)
        ref = _dense_tensor_sweep(t, B0[:, None], 4, order)[0]
        good = _bounded(ref, axis=0)
        assert not good.all()
        assert np.array_equal(sol.mask, good)
        assert np.abs(sol.B[:, good] - ref[:, good]).max() <= 1e-15 * np.abs(ref[:, good]).max()
        joint = solve_linear(t, B0, 1.0, (0.1, 0.2), (0.3,), substeps=4, order=order,
                             check_alternate=False)
        dense = _dense_phase(_full_joint_coef_factory(_provider_for(t), t.class_map, 2, 2, 1), 4)
        states = _sweep_total(g, np.array([0.4, -0.3, 1.0, 0.1, 0.2, 0.3])[:, None], dense, order)
        assert np.array_equal(joint.mask, _bounded(states[..., 0], axis=-1))

    @pytest.mark.parametrize("case", ["recursion_step1", "recursion_step2", "bare_torus41"])
    def test_coupled_block_rows_equal_full_joint_rows(self, case, request):
        # rows k: of the whole joint propagator read B through B_ca alone:
        # summed in index order, they are the coupled block's rows 1: in
        # column ca and columns k:, and exact zeros in the other B columns
        t, substeps = _column_case(case, request)
        D, k, R = t.grid.ndim, t.n_classes, t.n_normals
        provider = _provider_for(t)
        full = _full_joint_coef_factory(provider, t.class_map, D, k, R)
        coupled = _joint_coef_factory(provider, t.class_map, D, R)
        for axis in range(D):
            idx, coords = _all_lines(t.grid, axis), t.grid.axis_coords(axis)
            ca = t.class_map.classes[axis]
            whole = _unfused_cell_propagators(full(axis, idx), coords, substeps)[..., k:, :]
            block = _unfused_cell_propagators(coupled(axis, idx), coords, substeps)[..., 1:, :]
            assert block.shape[-1] == 2 + D + R
            rows = np.zeros_like(whole)
            rows[..., ca] = block[..., 0]
            rows[..., k:] = block[..., 1:]
            assert np.array_equal(whole, rows)
            cols = [ca] + list(range(k, whole.shape[-1]))
            assert np.array_equal(_bits(whole[..., cols]), _bits(rows[..., cols]))

    @pytest.mark.parametrize("case", ["torus41", "bare_torus41", "recursion_step2"])
    def test_a_batched_column_equals_its_own_sweep(self, case, request):
        t, substeps = _column_case(case, request)
        k = t.n_classes
        seeds = np.concatenate([np.eye(k), np.random.default_rng(3).normal(size=(2, k))])
        batch, _ = _sweep_tensor(t, seeds.T, substeps)
        for i, seed in enumerate(seeds):
            alone, _ = _sweep_tensor(t, seed[:, None], substeps)
            assert np.array_equal(batch[i], alone[0])


# ---------------------------------------------------------------------------
# Reference: the Goursat row march as it stood before its stages wrote into
# preallocated buffers, frozen.  The row state is (2k + kR, na), m-major, and
# every stage allocates its rate by gathering hb[scale] * Y[src].


def _frozen_rk4_span(rhs, y, h, substeps):
    for i in range(0, 2 * substeps, 2):
        k1 = rhs(i, y)
        k2 = rhs(i + 1, y + 0.5 * h * k1)
        k3 = rhs(i + 1, y + 0.5 * h * k2)
        k4 = rhs(i + 2, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _frozen_integrate_triple_2d(data, grid, class_map, substeps):
    k = class_map.n_classes
    R = data.V0.shape[1]
    ca, cb = class_map.classes
    na, nb = grid.shape
    ub = grid.axis_coords(1)
    row_v, row_V, row_ha = _march_axis0(data, grid, class_map, substeps)
    T, hs = _stage_times(ub, substeps)
    hb_stages = np.reshape(data.h_rows[1](T.reshape(-1)), (k,) + T.shape)
    hb_nodes = np.reshape(data.h_rows[1](ub), (k, nb))
    Q = cumulative_integral(np.eye(na), grid.spacings[0], axis=0)
    v, V, h = np.empty((k, na, nb)), np.empty((k, R, na, nb)), np.empty((2, k, na, nb))

    def reconstruct_hb(ha_row, hb0):
        hb_ca = hb0[ca] * np.exp(Q @ ha_row[ca])
        hb = hb0[:, None] + (hb_ca * ha_row) @ Q.T
        hb[ca] = hb_ca
        return hb

    fam = np.arange(k)
    scale = np.concatenate([fam, np.repeat(fam, R), fam])
    src = np.concatenate([np.full(k, cb), k + cb * R + np.arange(k * R) % R,
                          np.full(k, k + k * R + cb)])

    def rhs_b(hb0, Y):
        return reconstruct_hb(Y[k + k * R :], hb0)[scale] * Y[src]

    def store(j, Y):
        v[:, :, j] = Y[:k]
        V[:, :, :, j] = Y[k : k + k * R].reshape(k, R, na)
        h[0, :, :, j] = Y[k + k * R :]
        h[1, :, :, j] = reconstruct_hb(Y[k + k * R :], hb_nodes[:, j])

    Yb = np.concatenate([row_v, row_V.reshape(k * R, na), row_ha])
    store(0, Yb)
    for j in range(1, nb):
        cell = hb_stages[:, j - 1]
        Yb = _frozen_rk4_span(lambda i, Y, cell=cell: rhs_b(cell[:, i], Y), Yb, hs[j - 1], substeps)
        store(j, Yb)
    return v, h, V


@pytest.fixture(scope="module")
def torus41x21():
    return torus_seed(R=1.0, r=0.3, shape=(41, 21))


@pytest.fixture(scope="module")
def torus21x41():
    return torus_seed(R=1.0, r=0.3, shape=(21, 41))


def _row_marches(case, order, substeps, request):
    """The row march's (v, h, V) and the frozen march's on a case."""
    t = (_bare(request.getfixturevalue("torus_patch").triple) if case == "bare_torus_patch"
         else request.getfixturevalue(case).triple)
    data = axis_data_from_triple(t)
    out, _ = integrate_triple(data, t.grid, t.class_map, substeps=substeps, sweep_order=order)
    ref = _ref_integrate_triple(data, t.grid, t.class_map, substeps, order,
                                _frozen_integrate_triple_2d)
    return (out.v, out.h, out.V), ref


@pytest.mark.parametrize("substeps", [4, 16])
@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["forward", "reversed"])
@pytest.mark.parametrize("case", ["torus41", "cylinder41", "bare_torus_patch"])
def test_row_march_equals_frozen_march_bit_for_bit(case, order, substeps, request):
    # on these surfaces of revolution hb[ca] or ha[cb] is 0 in each order, so
    # the folded quadrature row adds the datum to exact zeros, and the march
    # repeats every other IEEE operation of the frozen one in the same order:
    # an RK4 sum formed any other way (a BLAS product, say) fails here
    for got, want in zip(*_row_marches(case, order, substeps, request), strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("substeps", [4, 16])
@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["forward", "reversed"])
@pytest.mark.parametrize("case", ["torus41", "cylinder41", "bare_torus_patch", "recursion_step1",
                                  "torus41x21", "torus21x41"])
def test_row_march_matches_frozen_march_to_rounding(case, order, substeps, request):
    # the fold sums the axis-1 datum with the quadrature terms in one BLAS
    # product, so hb[cb] may round differently from the frozen product plus
    # add; v, h and V stay within 4 eps of each field's largest value.  The
    # 41 x 21 and 21 x 41 grids shape the march's buffers both ways round
    for got, want in zip(*_row_marches(case, order, substeps, request), strict=True):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()


def test_folded_quadrature_row_is_the_cumulative_integral_plus_its_constant():
    # [w, c] @ [Q^T; 1] = c + cumulative_integral(w, h) to 4 ulp of the size
    # of the summed terms, |c| + h sum |w| (the two sum them in different
    # orders, and a cancelling sum can end far below its terms), on four
    # nodes (one inner interval) and more
    rng = np.random.default_rng(20)
    for n in (4, 5, 9, 21, 41):
        h = rng.uniform(0.005, 0.5)
        _, QT1 = integrable._quadrature_matrices(n, h)
        for _ in range(20):
            w, c = rng.normal(size=n), rng.normal()
            want = c + cumulative_integral(w, h)
            got = np.dot(np.append(w, c), QT1)
            assert np.abs(got - want).max() <= 4 * np.spacing(abs(c) + h * np.abs(w).sum())


def _sweep_outputs(t, substeps):
    D, k, R = t.grid.ndim, t.n_classes, t.n_normals
    lin = solve_linear(t, np.linspace(0.3, -0.2, k), 1.0, np.full(D, 0.1), np.full(R, 0.2),
                       substeps=substeps)
    sB = solve_B(t, np.linspace(0.5, 1.0, k), substeps=substeps)
    space = dupin_tensor_space(t, substeps=4)
    out = [lin.phi, lin.gamma, lin.beta, lin.B, sB.B, space["basis"], space["singular_values"],
           np.array([lin.reports["path_independence"], lin.reports["gnorm_fd"],
                     sB.reports["path_independence"]])]
    if t.grid.ndim == 2:
        rec = reconstruct_frame(t, substeps=substeps)
        out += [rec.positions, rec.tangents, rec.normals]
    return out


@pytest.mark.parametrize("case", ["torus41", "bare_torus41", "recursion_step2"])
def test_one_substep_per_provider_call_changes_no_bit(case, request, monkeypatch):
    # the coefficient fields are evaluated per element, so how many
    # substeps share a provider call moves no output bit
    t, substeps = _column_case(case, request)
    default = _sweep_outputs(t, substeps)
    monkeypatch.setattr(integrable, "_FIELD_VALUES", 1)
    for got, want in zip(_sweep_outputs(t, substeps), default, strict=True):
        assert np.array_equal(_bits(got), _bits(want))


def _per_order_sweep(grid, state0, phase, order, check_alternate, reads=None):
    """`integrable._sweep` with one propagator build per sweep order, as it
    stood before the orders shared one: the alternate order builds its own
    phases over its own lines."""
    assert reads is None
    order = tuple(range(grid.ndim)) if order is None else tuple(order)
    states = _sweep_total(grid, state0, phase, order)
    if not (check_alternate and grid.ndim > 1):
        return states, {}, None
    alt = _sweep_total(grid, state0, phase, tuple(reversed(order)))
    return states, {"path_independence": integrable._field_rel_diff(states, alt)}, None


@pytest.mark.parametrize("case", ["torus41", "bare_torus41", "recursion_step2"])
def test_shared_propagator_build_changes_no_bit(case, request, monkeypatch):
    # a line's propagators do not depend on the lines built with them, so
    # both sweep orders reading one build per axis (D = 2 and D = 3) give
    # every field and report of the per-order builds, bit for bit
    t, substeps = _column_case(case, request)
    builds = []
    monkeypatch.setattr(integrable, "_cell_propagators",
                        lambda *args, **kw: builds.append(1) or _cell_propagators(*args, **kw))
    shared = _sweep_outputs(t, substeps)
    shared_builds, builds[:] = len(builds), []
    monkeypatch.setattr(integrable, "_sweep", _per_order_sweep)
    for got, want in zip(shared, _sweep_outputs(t, substeps), strict=True):
        assert np.array_equal(_bits(got), _bits(want))
    # solve_linear and reconstruct_frame (D = 2) build each axis once, not once per order
    D = t.grid.ndim
    assert (shared_builds, len(builds)) == ((2 * D, 4 * D) if D == 2 else (D, 2 * D))


def _masked_torus(torus_patch):
    """The 21^2 torus as node arrays, and a copy masked at (15, 14) whose v,
    h and V hold 0.7 there."""
    t = _bare(torus_patch.triple)
    v, h, V = t.v.copy(), t.h.copy(), t.V.copy()
    v[:, 15, 14] = h[:, :, 15, 14] = V[:, :, 15, 14] = 0.7
    mask = np.ones(t.grid.shape, dtype=bool)
    mask[15, 14] = False
    return t, Triple(t.grid, t.class_map, v, h, V, mask=mask)


def _masked_solves(t, order, check_alternate=False):
    return (solve_linear(t, (0.1, 0.2), 1.0, (0.1, 0.2), (0.3,), substeps=8, order=order,
                         check_alternate=check_alternate),
            solve_B(t, (0.1, 0.2), substeps=8, order=order, check_alternate=check_alternate))


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_masked_node_values_mask_the_nodes_they_reach(torus_patch, order):
    # the cubic stencils of the cells around (15, 14) read it into the nodes
    # that follow on the main order's line through it: the returned mask
    # drops exactly those nodes, and every kept node holds the unmasked
    # triple's values bit for bit
    bare, masked = _masked_torus(torus_patch)
    assert _GridProvider(bare).reads(8) is None              # unmasked triples skip this work
    dropped = np.zeros(masked.grid.shape, dtype=bool)
    if order == (0, 1):
        dropped[15, 13:] = True
    else:
        dropped[14:, 14] = True
    assert (dropped & masked.valid()).sum() == (7 if order == (0, 1) else 6)
    for clean, got in zip(_masked_solves(bare, order), _masked_solves(masked, order), strict=True):
        assert clean.mask is None and np.array_equal(got.mask, ~dropped)
        differ = np.zeros_like(dropped)
        for name in ("phi", "gamma", "beta", "B"):
            a, b = getattr(got, name), getattr(clean, name)
            assert np.array_equal(_bits(a[..., got.mask]), _bits(b[..., got.mask]))
            differ |= (a != b).reshape((-1,) + dropped.shape).any(axis=0)
        assert np.array_equal(differ | ~masked.valid(), dropped)


def test_masked_node_values_mask_the_frame_nodes_they_reach(torus_patch):
    # as for the solves: the 7 valid nodes (15, 13) and (15, 15..20) read
    # (15, 14) through the cubic stencils of their line's cells, and the
    # reconstruction at every other node, its Gram defect and its path
    # independence are the unmasked triple's bit for bit
    bare, masked = _masked_torus(torus_patch)
    clean, got = reconstruct_frame(bare), reconstruct_frame(masked)
    dropped = np.zeros(masked.grid.shape, dtype=bool)
    dropped[15, 13:] = True
    assert clean.mask is None and np.array_equal(got.mask, ~dropped)
    keep = got.mask
    assert np.array_equal(_bits(got.positions[keep]), _bits(clean.positions[keep]))
    for name in ("tangents", "normals"):
        assert np.array_equal(_bits(getattr(got, name)[:, keep]), _bits(getattr(clean, name)[:, keep]))
    assert got.reports == clean.reports


def test_path_independence_compares_the_nodes_both_orders_keep(torus_patch):
    # there the states are the unmasked triple's; over every node the masked
    # triple's orders would differ by 3.7e-2 (solve_linear), not 8.1e-9
    bare, masked = _masked_torus(torus_patch)
    (lin, sB), (lin_alt, sB_alt) = _masked_solves(masked, (0, 1)), _masked_solves(masked, (1, 0))
    both = lin.mask & lin_alt.mask
    assert np.array_equal(both, sB.mask & sB_alt.mask) and (~both).sum() == 14

    def states(sol):
        return np.concatenate([sol.B, sol.phi[None], sol.gamma, sol.beta])[:, both]

    (main, main_B), (alt, alt_B) = _masked_solves(bare, (0, 1)), _masked_solves(bare, (1, 0))
    lin, sB = _masked_solves(masked, (0, 1), check_alternate=True)
    assert lin.reports["path_independence"] == integrable._field_rel_diff(states(main), states(alt))
    assert sB.reports["path_independence"] == integrable._field_rel_diff(main_B.B[:, both], alt_B.B[:, both])


def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_tensor_sweeps_hold_no_stage_table(recursion_step2, torus41):
    # the coefficient columns come in blocks of at most _FIELD_VALUES values
    # (one substep here): the 21^3 tensor space's last phase no longer holds
    # h[axis] at all nine stage times of its 20 x 441 lines (1.9 MB, with as
    # much again for each gathered stencil term).  With whole-phase tables
    # the two calls peak at 6.9 and 4.1 MB
    assert _traced_peak_mb(lambda: dupin_tensor_space(recursion_step2.triple, substeps=4)) <= 4.5
    assert _traced_peak_mb(lambda: solve_B(torus41.triple, (0.5, 1.0), substeps=12)) <= 2.5


def test_row_march_is_fourth_order(torus41):
    t = torus41.triple
    data = axis_data_from_triple(t)

    def march(substeps):
        return integrate_triple(data, t.grid, t.class_map, substeps=substeps)[0]

    def rel_error(a, b):
        return max(np.abs(x - y).max() / np.abs(y).max() for x, y in ((a.v, b.v), (a.h, b.h), (a.V, b.V)))

    fine = march(64)
    marches = {s: march(s) for s in (2, 4, 8, 16)}
    errors = [rel_error(marches[s], fine) for s in (2, 4, 8, 16)]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((orders >= 3.8) & (orders <= 4.2)), (errors, orders)
    assert rel_error(marches[16], t) <= 2e-11


def test_linear_solves_are_fourth_order(torus41):
    # the open convergence family of the sweeps: solve_linear and solve_B on
    # the analytic torus against substeps 48, at substeps 2, 4 and 8
    t = torus41.triple

    def solves(substeps):
        lin = solve_linear(t, (0.3, -0.2), 1.0, (0.1, 0.05), (0.2,) * t.n_normals, substeps=substeps,
                           check_alternate=False)
        sB = solve_B(t, (0.5, 1.0), substeps=substeps, check_alternate=False)
        return {"solve_linear": (lin.phi, lin.gamma, lin.beta, lin.B), "solve_B": (sB.B,)}

    fine = solves(48)
    runs = {s: solves(s) for s in (2, 4, 8)}
    for name, ref in fine.items():
        errors = np.array([max(np.abs(x - y).max() / np.abs(y).max() for x, y in zip(runs[s][name], ref))
                           for s in (2, 4, 8)])
        orders = np.log2(errors[:-1] / errors[1:])
        assert np.all(np.abs(orders - 4.0) <= 0.2), (name, errors, orders)
