import numpy as np
import pytest

from dupin.errors import UnsupportedGrid
from dupin.integrable import (
    TripleAxisData,
    axis_data_from_triple,
    cumulative_integral,
    integrate_triple,
    reconstruct_frame,
    solve_B,
    solve_linear,
)
from dupin.net import ClassMap
from dupin.numerics import TensorGrid
from dupin.ribaucour import inversion_w
from dupin.seeds import circle_seed, cylinder_seed, torus_seed


def test_cumulative_integral_exact_on_cubics():
    h = 0.13
    x = np.arange(17) * h
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

    def test_v_solves_the_tensor_system(self, torus_patch):
        # v itself satisfies dB_m = h_{jm} B_{j'} (it is the identity-tensor data)
        t = torus_patch.triple
        sol = solve_B(t, tuple(t.v[(slice(None),) + (0,) * 2]), substeps=16)
        assert np.abs(sol.B - t.v).max() < 1e-9


    @pytest.mark.parametrize("fixture", ["torus_patch", "recursion_step1"])
    def test_same_B_as_the_joint_system(self, fixture, request):
        # solve_B sweeps the B block alone with the joint system's tensor rate
        t = request.getfixturevalue(fixture).triple
        B0 = np.linspace(0.4, -0.3, t.n_classes)
        D, R = t.grid.ndim, t.n_normals
        joint = solve_linear(t, B0, 1.0, np.full(D, 0.1), np.full(R, 0.2), substeps=4)
        sol = solve_B(t, B0, substeps=4)
        assert np.array_equal(sol.B, joint.B)


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
        dg = fd_axis(s.positions, g.spacings[i], i, 1, acc=4)
        v_fd = (dg * s.tangents[i]).sum(-1)
        assert np.abs((v_fd - lame[i])[interior]).max() < 1e-6
    for j in range(2):
        for m in range(2):
            dv = fd_axis(t.v[m], g.spacings[j], j, 1, acc=4)
            assert np.abs((dv / t.v[cls[j]] - t.h[j, m])[interior]).max() < 1e-6
    # V from the normal-frame evolution: d xi_r / du_i = -V_{i'}^r X_i
    for i in range(2):
        d = fd_axis(s.normals[0], g.spacings[i], i, 1, acc=4)
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
