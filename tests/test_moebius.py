import numpy as np
import pytest

from dupin.errors import DimensionMismatch, FocalDegeneracy, NotOnQuadric, ThroughOrigin
from dupin.moebius import (
    Homothety,
    Inversion,
    LTrivialSpec,
    Orthogonal,
    ParallelTranslate,
    Translate,
    apply_ltransform,
    apply_points,
    detect_ltrivial,
    epsilon_of,
    generalized_cylinder,
    generalized_rotation,
    generalized_tube,
    pushforward_ltrivial,
    pushforward_w,
    random_catalog_transform,
    stereographic_points,
    StereographicMap,
    umbilic_normal_form,
)
from dupin.net import ImmersionSample, ParallelNormalSubbundle, validate_triple
from dupin.numerics import TensorGrid, sphere_fit
from dupin.ribaucour import inversion_w, parallel_w, ribaucour_transform
from dupin.seeds import circle_seed, sphere_patch, torus_seed


@pytest.fixture(scope="module")
def torus_off():
    from dupin.moebius import Translate as T

    t = torus_seed(R=1.0, r=0.3, shape=(21, 21), u1_range=(0.1, 1.1), u2_range=(0.2, 1.2))
    return apply_ltransform(t, T([0.2, 0.1, 1.7]))


class TestCatalog:
    def test_translate_roundtrip(self, torus_off):
        u = np.array([0.4, -1.2, 0.7])
        s = apply_ltransform(apply_ltransform(torus_off, Translate(u)), Translate(-u))
        assert np.abs(s.positions - torus_off.positions).max() < 1e-14

    @pytest.mark.parametrize("make_T", [
        lambda: Translate([1.0]),
        lambda: Translate([0.1, 0.2, 0.3, 0.4]),
        lambda: Orthogonal(np.eye(4)),
        lambda: Orthogonal(np.eye(3)[:2]),
    ], ids=["u_short", "u_long", "O_4x4", "O_2x3"])
    def test_size_mismatch_raises(self, torus_off, make_T):
        # the torus lives in R^3; numpy would broadcast or raise its own error
        T = make_T()
        with pytest.raises(DimensionMismatch, match=r"in R\^3$"):
            apply_ltransform(torus_off, T)
        with pytest.raises(DimensionMismatch, match=r"in R\^3$"):
            apply_points(T, torus_off.positions)

    def test_parallel_translate_needs_a_sample(self, torus_off):
        with pytest.raises(ValueError, match="normal frame"):
            apply_points(ParallelTranslate([0.1]), torus_off.positions)

    def test_inversion_involution(self, torus_off):
        s = apply_ltransform(apply_ltransform(torus_off, Inversion()), Inversion())
        assert np.abs(s.positions - torus_off.positions).max() < 1e-10
        assert np.abs(s.normals - torus_off.normals).max() < 1e-10

    def test_parallel_translate_sphere_offset(self):
        sp = sphere_patch(radius=1.0, shape=(21, 21))
        # attach a triple-like structure is absent; offset by hand and sphere-fit
        out_pos = sp.positions + 0.5 * sp.normals[0]
        fit = sphere_fit(out_pos.reshape(-1, 3))
        assert abs(fit.radius - 1.5) < 1e-9
        assert fit.residual < 1e-9

    def test_inverted_sample_keeps_valid_triple(self, torus_off):
        si = apply_ltransform(torus_off, Inversion())
        assert validate_triple(si.triple, tol=2e-4).passed
        res = si.frame_residuals()
        assert res["gram"] < 1e-12 and res["dg_vs_vX"] < 1e-5

    def test_inversion_without_a_triple_maps_sff(self, torus_off):
        # lame and sff map as the triple branch's v and V/v do
        bare = ImmersionSample(torus_off.grid, torus_off.positions, tangents=torus_off.tangents,
                               normals=torus_off.normals, lame=torus_off.lame, sff=torus_off.sff)
        got, want = apply_ltransform(bare, Inversion()), apply_ltransform(torus_off, Inversion())
        assert got.triple is None
        for f in ("lame", "sff"):
            a, b = getattr(got, f), getattr(want, f)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        with pytest.raises(DimensionMismatch, match="one normal per sff column"):
            apply_ltransform(ImmersionSample(bare.grid, bare.positions, sff=bare.sff), Inversion())

    def test_inversion_through_origin_raises(self):
        t = torus_seed(R=1.0, r=0.3, shape=(9, 9))
        t = apply_ltransform(t, Translate(-t.positions[0, 0]))
        with pytest.raises(ThroughOrigin):
            apply_ltransform(t, Inversion())


class TestPushforward:
    def test_homothety_scales_phi_only(self, torus_off):
        w = inversion_w(torus_off, np.zeros(3), 1.0)
        wk = pushforward_w(w, Homothety(2.5), torus_off)
        assert np.abs(wk.phi - 2.5 * w.phi).max() < 1e-14
        assert np.abs(wk.gamma - w.gamma).max() == 0.0
        assert np.abs(wk.B - w.B).max() == 0.0

    def test_translate_ltrivial_update(self):
        spec = LTrivialSpec(0.7, np.array([0.1, -0.2, 0.3]), np.array([0.4]), 1.3)
        u = np.array([0.5, 0.6, -0.1])
        out = pushforward_ltrivial(spec, Translate(u))
        assert abs(out.a - 0.7) < 1e-15
        assert np.abs(out.v0 - (spec.v0 - 0.7 * u)).max() < 1e-15
        assert abs(out.c - (1.3 - 2 * float(u @ spec.v0) + 0.7 * float(u @ u))) < 1e-14

    @pytest.mark.parametrize("make_T", [
        lambda: Translate([0.3, -0.2, 0.5]),
        lambda: Homothety(-1.4),
        lambda: Inversion(),
        lambda: ParallelTranslate([0.12]),
    ])
    def test_commuting_square(self, torus_off, make_T):
        T = make_T()
        w = inversion_w(torus_off, np.array([0.0, 0.0, 4.0]), 1.1)
        f1, jet = ribaucour_transform(torus_off, w)
        f2, _ = ribaucour_transform(apply_ltransform(torus_off, T), pushforward_w(w, T, torus_off))
        if isinstance(T, ParallelTranslate):
            xi = np.einsum("r,r...k->...k", T.coeffs, torus_off.normals)
            lhs = f1.positions + jet.P_apply(xi)
        else:
            lhs = apply_points(T, f1.positions)
        assert np.abs(lhs - f2.positions).max() < 1e-8

    def test_commuting_square_nondupin(self, torus_off):
        from tests.test_ribaucour import nondupin_torus_w

        w = nondupin_torus_w(torus_off)
        T = Homothety(1.9)
        f1, _ = ribaucour_transform(torus_off, w)
        f2, _ = ribaucour_transform(apply_ltransform(torus_off, T), pushforward_w(w, T, torus_off))
        assert np.abs(apply_points(T, f1.positions) - f2.positions).max() < 1e-9


class TestDetectLTrivial:
    def test_inversion_detected(self, torus_off):
        w = inversion_w(torus_off, np.array([0.3, -0.2, 0.4]), 1.2)
        spec, rep = detect_ltrivial(torus_off, w)
        assert spec is not None
        assert abs(spec.a - 1.0) < 1e-9
        assert np.abs(spec.v0 - (-np.array([0.3, -0.2, 0.4]))).max() < 1e-8
        assert np.abs(spec.delta).max() < 1e-8

    def test_parallel_translation_detected(self, torus_off):
        w = parallel_w(torus_off, [0.25])
        spec, rep = detect_ltrivial(torus_off, w)
        assert spec is not None
        assert abs(spec.a) < 1e-10
        assert np.abs(spec.delta - (-0.25)).max() < 1e-9

    def test_every_dupin_tensor_on_the_torus_is_ltrivial(self, torus_off):
        from dupin.integrable import solve_linear

        # on the torus the net-adapted Dupin tensors (dimension k = 2) all lie
        # in the L-trivial span (dimension c + 1 = 2): the B-seed (1, 0)
        # solution is detected as trivial
        sol = solve_linear(torus_off.triple, (1.0, 0.0), 1.0, (0.0, 0.0), (0.0,), substeps=8)
        spec, rep = detect_ltrivial(torus_off, sol)
        assert spec is not None
        assert rep["fit_residual"] < 1e-7

    def test_nondupin_w_rejected(self, torus_off):
        # a non-Dupin-type solution cannot be L-trivial (those have
        # Phi = a I - A_delta, eigenvalues constant along their own class)
        from tests.test_ribaucour import nondupin_torus_w

        w = nondupin_torus_w(torus_off)
        spec, rep = detect_ltrivial(torus_off, w)
        assert spec is None
        assert rep["fit_residual"] > 1e-4

    def test_torus_in_r3_is_substantial(self, torus_off):
        # c = dim S_f = 1 = N - D
        _, rep = detect_ltrivial(torus_off, parallel_w(torus_off, [0.25]))
        assert rep["substantial"] is True
        assert "note" not in rep

    def test_nan_position_at_masked_node(self, torus_off):
        # a non-finite position where the sample is masked stays out of the fit
        # and out of the conformal-codimension estimate
        import dataclasses

        pos = torus_off.positions.copy()
        pos[10, 10] = np.nan
        mask = np.ones(torus_off.grid.shape, dtype=bool)
        mask[10, 10] = False
        holed = dataclasses.replace(torus_off, positions=pos, mask=mask)
        spec, rep = detect_ltrivial(holed, parallel_w(holed, [0.25]))
        assert spec is not None and rep["substantial"] is True
        assert np.abs(spec.delta - (-0.25)).max() < 1e-9

    def test_torus_in_r4_is_not_substantial(self):
        # the same torus in R^4: c = 1 < N - D = 2, so the decomposition is not unique
        t = _torus4()
        _, rep = detect_ltrivial(t, parallel_w(t, [0.25, 0.0]))
        assert rep["substantial"] is False
        assert rep["note"] == "patch not conformally substantial: decomposition not unique"

    def test_small_patch_is_decided(self):
        # 4 x 4 nodes are too few for the oracle's stencils, not for the fit's rank
        t3 = torus_seed(R=1.0, r=0.3, shape=(4, 4))
        t4 = torus_seed(R=1.0, r=0.3, shape=(4, 4), ambient=4)
        assert detect_ltrivial(t3, parallel_w(t3, [0.25]))[1]["substantial"] is True
        assert detect_ltrivial(t4, parallel_w(t4, [0.25, 0.0]))[1]["substantial"] is False

    def test_one_valid_node_is_not_unique(self):
        # N equations for 1 + N + R unknowns: the fit has a null vector
        import dataclasses

        t = torus_seed(R=1.0, r=0.3, shape=(4, 4))
        mask = np.zeros(t.grid.shape, dtype=bool)
        mask[1, 2] = True
        t = dataclasses.replace(t, mask=mask)
        assert detect_ltrivial(t, parallel_w(t, [0.25]))[1]["substantial"] is False

    @pytest.mark.parametrize("ambient", [3, 4])
    @pytest.mark.parametrize("k", [1e-3, 1e3])
    def test_uniqueness_is_scale_free(self, torus_off, ambient, k):
        s = torus_off if ambient == 3 else _torus4()
        w = parallel_w(s, [0.25] + [0.0] * (ambient - 3))
        _, rep = detect_ltrivial(apply_ltransform(s, Homothety(k)), pushforward_w(w, Homothety(k), s))
        assert rep["substantial"] is (ambient == 3)

    @pytest.mark.parametrize("ambient", [3, 4])
    def test_uniqueness_along_catalog_transforms(self, torus_off, ambient):
        s = torus_off if ambient == 3 else _torus4()
        w = inversion_w(s, np.array([0.3, -0.2, 0.4, 0.1][:ambient]), 1.2)
        rng = np.random.default_rng(47)
        for _ in range(10):
            T = random_catalog_transform(rng, ambient)
            s, w = apply_ltransform(s, T), pushforward_w(w, T, s)
            spec, rep = detect_ltrivial(s, w)
            assert spec is not None and rep["substantial"] is (ambient == 3)

    def test_r4_torus_stays_non_unique_when_moved(self):
        t = _torus4()
        O = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))[0]
        for T in (Translate([0.3, -2.0, 0.5, 1.0]), Orthogonal(O)):
            _, rep = detect_ltrivial(apply_ltransform(t, T), pushforward_w(parallel_w(t, [0.25, 0.0]), T, t))
            assert rep["substantial"] is False


def _torus4():
    return torus_seed(R=1.0, r=0.3, shape=(21, 21), u1_range=(0.1, 1.1), u2_range=(0.2, 1.2), ambient=4)


class TestEpsilon:
    def test_basic_values(self):
        mk = lambda a, v, d, c: LTrivialSpec(a, np.asarray(v, float), np.asarray(d, float), c, exact=True)
        assert epsilon_of(mk(1, [0, 0, 0], [0], 1)).value == 1
        assert epsilon_of(mk(1, [0, 0, 0], [0], -1)).value == -1
        assert epsilon_of(mk(0, [1, 0, 0], [0], 5)).value == -1

    def test_exact_zero(self):
        spec = LTrivialSpec(1.0, np.array([1.0, 0, 0]), np.zeros(1), 1.0, exact=True)
        r = epsilon_of(spec)
        assert r.value == 0 and not r.ambiguous

    def test_ambiguous_band(self):
        spec = LTrivialSpec(1.0, np.array([1.0, 0, 0]), np.zeros(1), 1.0 + 1e-12, exact=False)
        r = epsilon_of(spec)
        assert r.value is None and r.ambiguous

    def test_invariance_under_catalog(self, torus_off):
        # class-sign invariance at the data level
        rng = np.random.default_rng(8)
        spec = LTrivialSpec(0.8, np.array([0.1, 0.4, -0.2]), np.array([0.3]), -0.7)
        e0 = epsilon_of(spec)
        sample = torus_off
        for _ in range(10):
            T = random_catalog_transform(rng, 3)
            spec = pushforward_ltrivial(spec, T)
            sample = apply_ltransform(sample, T) if not isinstance(T, Inversion) else apply_ltransform(
                apply_ltransform(sample, Translate([0, 0, 3.0])), T)
            e = epsilon_of(spec)
            assert e.value == e0.value


class TestConstructors:
    def test_cylinder_eps0_over_circle(self):
        c = circle_seed(radius=1.0, n=21, u_range=(0.0, 2 * np.pi), ambient=3)
        cyl = generalized_cylinder(c, ParallelNormalSubbundle((1,)), 0,
                                   TensorGrid((9,), (0.25,), (0.0,)))
        # round cylinder: distance from the axis is 1
        d = np.linalg.norm(cyl.positions[..., :2], axis=-1)
        assert np.abs(d - 1.0).max() < 1e-12
        assert validate_triple(cyl.triple, tol=1e-9).passed

    def test_cylinder_eps1_needs_quadric(self):
        c = circle_seed(radius=0.7, n=11, ambient=3)
        with pytest.raises(NotOnQuadric):
            generalized_cylinder(c, ParallelNormalSubbundle((1,)), 1, TensorGrid((5,), (0.3,)))

    def test_cylinder_eps1_cone_like(self):
        # great circle in S^2 subset R^3: cylinder over it in the sphere model
        c = circle_seed(radius=1.0, n=21, u_range=(0.0, 1.5), ambient=3)
        cyl = generalized_cylinder(c, ParallelNormalSubbundle((1,)), 1,
                                   TensorGrid((9,), (0.2,), (-0.8,)))
        assert np.abs((cyl.positions**2).sum(-1) - 1.0).max() < 1e-12

    def test_tube_over_circle_is_torus(self):
        c = circle_seed(radius=1.0, n=21, u_range=(0.1, 1.1))
        tube = generalized_tube(c, ParallelNormalSubbundle((0, 1)), 0.3,
                                n_angle=21, angle_range=(0.2, 1.2))
        tor = torus_seed(R=1.0, r=0.3, shape=(21, 21), u1_range=(0.1, 1.1), u2_range=(0.2, 1.2))
        assert np.abs(tube.positions - tor.positions).max() < 1e-12
        assert np.abs(np.abs(tube.sff) - np.abs(tor.sff)).max() < 1e-12

    def test_tube_focal_degeneracy_masks_inner_equator(self):
        c = circle_seed(radius=1.0, n=21, u_range=(0.1, 1.1))
        tube = generalized_tube(c, ParallelNormalSubbundle((0, 1)), 1.0, n_angle=21)
        # radius = focal distance: the theta = pi fiber nodes degenerate
        assert tube.mask is not None
        assert not tube.mask[:, 10].any()
        assert tube.mask[:, 0].all()

    def test_rotation_of_plane_curve_is_revolution_surface(self):
        # curve (R + r cos u) e1 + r sin u e3 rotated about the e3 axis: torus.
        # the generalized rotation with e = e1 reproduces a Moebius-inverted
        # revolution; check the gamma = 0 slice reflection formula instead
        c = circle_seed(radius=0.4, n=15, u_range=(0.0, 1.0), ambient=3, center=[2.0, 0.0, 0.0])
        rot = generalized_rotation(c, ParallelNormalSubbundle((1,)), np.array([1.0, 0, 0]),
                                   [np.array([0.0, 0.4, 0.8])])
        g = c.positions
        refl = g - 2 * (g[..., :1]) * np.array([1.0, 0, 0])
        assert np.abs(rot.positions[:, 0, :] - refl).max() < 1e-12

    def test_rotation_preserves_dupin(self):
        from dupin.verify import extract_principal_normals, dupin_residual, numeric_jet

        c = circle_seed(radius=0.4, n=41, u_range=(0.0, 0.4), ambient=3, center=[2.0, 0.0, 0.0])
        rot = generalized_rotation(c, ParallelNormalSubbundle((1,)), np.array([1.0, 0, 0]),
                                   [np.linspace(0.3, 0.7, 41)])
        jet = numeric_jet(rot)
        pd = extract_principal_normals(rot, jet=jet)
        assert pd.k == 2
        res = dupin_residual(rot, pd, jet=jet)
        assert res.max() < 1e-5


class TestStereographic:
    def test_sphere_membership(self, torus_off):
        img = stereographic_points(torus_off.positions, StereographicMap(1))
        assert np.abs((img**2).sum(-1) - 1).max() < 1e-9

    def test_hyperbolic_membership(self, torus_off):
        img = stereographic_points(torus_off.positions, StereographicMap(-1))
        Q = (img**2).sum(-1) - 2 * img[..., 0] ** 2
        assert np.abs(Q + 1).max() < 1e-9

    @pytest.mark.parametrize("eps", [1, -1, 0])
    def test_roundtrip(self, torus_off, eps):
        m = StereographicMap(eps)
        img = stereographic_points(torus_off.positions, m, "fwd")
        back = stereographic_points(img, m, "inv")
        assert np.abs(back - torus_off.positions).max() < 1e-10


class TestUmbNormalForms:
    def test_product_with_circle_is_cylinder(self):
        from dupin.verify import extract_principal_normals, numeric_jet

        c = circle_seed(radius=1.0, n=21, u_range=(0.1, 1.1), ambient=3)
        f = umbilic_normal_form("a", c, TensorGrid((21,), (0.05,)))
        assert f.ambient_dim == 4
        jet = numeric_jet(f)
        pd = extract_principal_normals(f, jet=jet)
        assert pd.k == 2
        # ruling class has vanishing principal normal (totally umbilical with 0)
        norms = sorted(np.linalg.norm(pd.eta, axis=-1).max(axis=(1, 2)))
        assert norms[0] < 1e-8

    def test_cone_over_spherical_circle(self):
        from dupin.verify import extract_principal_normals, dupin_residual, numeric_jet

        c = circle_seed(radius=1.0, n=41, u_range=(0.1, 0.5), ambient=3)
        cone = umbilic_normal_form("b", c, TensorGrid((41,), (0.01,), (0.7,)))
        assert cone.ambient_dim == 3
        jet = numeric_jet(cone)
        pd = extract_principal_normals(cone, jet=jet)
        res = dupin_residual(cone, pd, jet=jet)
        assert res.max() < 1e-5

    def test_warped_constant_rho_point_base_is_sphere(self):
        # rho = 1 and a pointlike base: the fiber factor is a round circle
        c = circle_seed(radius=1.0, n=5, u_range=(0.0, 1e-6), ambient=3)
        f = umbilic_normal_form("c", c, TensorGrid((21,), (0.1,)), rho=np.ones(5))
        fiber = f.positions[0, :, 3:]
        assert np.abs(np.linalg.norm(fiber, axis=-1) - 1.0).max() < 1e-12


def test_conformal_codim_invariance(torus_off):
    # c(f) estimate is invariant under 10 random catalog transforms
    from dupin.verify import sf_report

    rng = np.random.default_rng(17)
    c0 = sf_report(torus_off).conformal_codim
    sample = torus_off
    for _ in range(10):
        T = random_catalog_transform(rng, 3)
        if isinstance(T, Inversion):
            sample = apply_ltransform(sample, Translate([0.0, 0.0, 3.0]))
        sample = apply_ltransform(sample, T)
        assert sf_report(sample).conformal_codim == c0


def test_eps1_cylinder_over_spherical_curve_is_dupin():
    # curve on the unit sphere, cylinder in the sphere model: the projected
    # object passes the Dupin suite (positions-only, fd oracle)
    from dupin.verify import dupin_residual, extract_principal_normals, numeric_jet

    c = circle_seed(radius=1.0, n=41, u_range=(0.1, 0.5), ambient=3)
    cyl = generalized_cylinder(c, ParallelNormalSubbundle((1,)), 1,
                               TensorGrid((41,), (0.01,), (0.4,)))
    jet = numeric_jet(cyl)
    pd = extract_principal_normals(cyl, jet=jet)
    assert dupin_residual(cyl, pd, jet=jet).max() < 1e-5


def test_cylinder_leaves_congruent_by_translation():
    # all conullity-leaf samples of a flat generalized cylinder differ by
    # recorded translations
    c = circle_seed(radius=1.0, n=21, u_range=(0.1, 1.1), ambient=3)
    cyl = generalized_cylinder(c, ParallelNormalSubbundle((1,)), 0,
                               TensorGrid((7,), (0.3,), (0.0,)))
    base = cyl.positions[:, 0, :]
    for j in range(1, 7):
        leaf = cyl.positions[:, j, :]
        offsets = leaf - base
        assert np.abs(offsets - offsets[0]).max() < 1e-12


@pytest.mark.parametrize("fiber", [TensorGrid((3, 4), (0.1, 0.1), (0.5, 0.5)), [np.linspace(0.5, 1.0, 3)] * 2],
                         ids=["grid", "list"])
@pytest.mark.parametrize("build", ["cylinder", "rotation"])
def test_fiber_of_the_wrong_rank_is_a_dimension_mismatch(circle4, build, fiber):
    sub = ParallelNormalSubbundle((1,))
    with pytest.raises(DimensionMismatch, match="fiber rank must match subbundle rank"):
        if build == "cylinder":
            generalized_cylinder(circle4, sub, 0, fiber)
        else:
            generalized_rotation(circle4, sub, np.array([1.0, 0.0, 0.0, 0.0]), fiber)


def test_cylinder_eps_minus_one_stays_on_the_hyperbolic_quadric():
    # the hyperbola (cosh u, sinh u, 0) on Q = -|x_0|^2 + |x_1|^2 + |x_2|^2 = -1,
    # with its parallel section along e3
    u = np.linspace(-0.8, 1.0, 17)
    base = ImmersionSample(TensorGrid((17,), (u[1] - u[0],), (u[0],)),
                           np.stack([np.cosh(u), np.sinh(u), np.zeros_like(u)], -1),
                           normals=np.broadcast_to([0.0, 0.0, 1.0], (1, 17, 3)).copy())
    cyl = generalized_cylinder(base, ParallelNormalSubbundle((0,)), -1, TensorGrid((9,), (0.25,), (-1.0,)))
    assert cyl.grid.shape == (17, 9)
    # |gamma|^2 = 1 at the coefficients -1 and 1: those two fibers are masked
    assert cyl.mask is not None and not cyl.mask[:, [0, 8]].any() and cyl.mask[:, 1:8].all()
    p = cyl.positions[cyl.valid()]
    assert np.abs(-p[:, 0] ** 2 + p[:, 1] ** 2 + p[:, 2] ** 2 + 1.0).max() < 1e-12


# -- the per-index loops the product-grid constructions replaced, frozen ------


def _frozen_cylinder(h, sub, fiber):
    """generalized_cylinder(h, sub, 0, fiber) on a sample with a triple, one
    class, normal and fiber axis at a time."""
    if isinstance(fiber, TensorGrid):
        axes = [fiber.axis_coords(l) for l in range(fiber.ndim)]
    else:
        axes = [np.asarray(c, dtype=float) for c in fiber]
        fiber = TensorGrid(tuple(len(c) for c in axes), (1.0,) * len(axes))
    grid = h.grid.product(fiber)
    s_rank, Db, N, shape = sub.rank, h.grid.ndim, h.ambient_dim, grid.shape
    lift = h.grid.shape + (1,) * s_rank + (N,)
    gam = np.zeros(shape + (N,))
    coeffs = []
    for l, r in enumerate(sub.indices):
        cshape = [1] * grid.ndim
        cshape[Db + l] = len(axes[l])
        coeffs.append(axes[l].reshape(cshape))
        gam = gam + coeffs[l][..., None] * h.normals[r].reshape(lift)
    positions = np.broadcast_to(h.positions.reshape(lift), shape + (N,)) + gam
    t = h.triple
    k, cls = t.n_classes, t.class_map.classes
    out_r = [r for r in range(t.n_normals) if r not in sub.indices]

    def lb(a):
        return a.reshape(h.grid.shape + (1,) * s_rank)

    def lf(a):
        return np.broadcast_to(a.reshape(lift), shape + (N,)).copy()

    v = np.empty((k + 1,) + shape)
    for m in range(k):
        acc = lb(t.v[m]) + np.zeros(shape)
        for l, r in enumerate(sub.indices):
            acc = acc - coeffs[l] * lb(t.V[m, r])
        v[m] = acc
    v[k] = 1.0
    hh = np.zeros((grid.ndim, k + 1) + shape)
    for j in range(Db):
        for m in range(k):
            dv = lb(t.h[j, m]) * lb(t.v[cls[j]])
            for l, r in enumerate(sub.indices):
                dv = dv - coeffs[l] * lb(t.h[j, m] * t.V[cls[j], r])
            hh[j, m] = dv / v[cls[j]]
    for l, r in enumerate(sub.indices):
        for m in range(k):
            hh[Db + l, m] = -lb(t.V[m, r])
    Vn = np.zeros((k + 1, len(out_r)) + shape)
    for m in range(k):
        for jr, r in enumerate(out_r):
            Vn[m, jr] = lb(t.V[m, r]) + np.zeros(shape)
    tangents = np.stack([lf(x) for x in h.tangents] + [lf(h.normals[r]) for r in sub.indices])
    normals = np.stack([lf(h.normals[r]) for r in out_r]) if out_r else np.zeros((0,) + shape + (N,))
    return positions, tangents, normals, v, hh, Vn


def _frozen_tube(g, sub, a, n_angle):
    """generalized_tube(g, sub, a, n_angle) one class and normal at a time."""
    t = g.triple
    r1, r2 = sub.indices
    th = TensorGrid((n_angle,), (2.0 * np.pi / (n_angle - 1),), (0.0,)).axis_coords(0)
    Db, N, k, cls = g.grid.ndim, g.ambient_dim, t.n_classes, t.class_map.classes
    shape = g.grid.shape + (n_angle,)

    def lb(arr):
        return arr.reshape(arr.shape + (1,))

    def lbv(arr):
        return arr.reshape(arr.shape[:-1] + (1, N))

    sth = np.sin(th).reshape((1,) * Db + (-1,))
    cth = np.cos(th).reshape((1,) * Db + (-1,))
    nu_dir = cth[..., None] * lbv(g.normals[r1]) + sth[..., None] * lbv(g.normals[r2])
    tdir = -sth[..., None] * lbv(g.normals[r1]) + cth[..., None] * lbv(g.normals[r2])
    positions = lbv(g.positions) + a * nu_dir
    W = np.empty((k,) + shape)
    for m in range(k):
        W[m] = cth * lb(t.V[m, r1]) + sth * lb(t.V[m, r2])
    v = np.empty((k + 1,) + shape)
    for m in range(k):
        v[m] = lb(t.v[m]) - a * W[m]
    v[k] = a
    out_r = [r for r in range(t.n_normals) if r not in sub.indices]
    Vn = np.zeros((k + 1, 1 + len(out_r)) + shape)
    for m in range(k):
        Vn[m, 0] = W[m]
        for jr, r in enumerate(out_r):
            Vn[m, 1 + jr] = lb(t.V[m, r]) + np.zeros(shape)
    Vn[k, 0] = -1.0
    hh = np.zeros((Db + 1, k + 1) + shape)
    for j in range(Db):
        for m in range(k):
            dv = lb(t.h[j, m] * t.v[cls[j]]) - a * (cth * lb(t.h[j, m] * t.V[cls[j], r1])
                                                    + sth * lb(t.h[j, m] * t.V[cls[j], r2]))
            hh[j, m] = dv / v[cls[j]]
    for m in range(k):
        hh[Db, m] = (a * (sth * lb(t.V[m, r1]) - cth * lb(t.V[m, r2]))) / v[k]
    tangents = np.concatenate([
        np.broadcast_to(g.tangents.reshape((Db,) + g.grid.shape + (1, N)), (Db,) + shape + (N,)).copy(),
        tdir[None]])
    normals = np.concatenate([
        nu_dir[None],
        np.stack([np.broadcast_to(lbv(g.normals[r]), shape + (N,)).copy() for r in out_r])
        if out_r else np.zeros((0,) + shape + (N,))])
    return positions, tangents, normals, v, hh, Vn


def _frozen_inversion(s):
    """apply_ltransform(s, Inversion()) one frame vector, class and normal at a time."""
    pos, t = s.positions, s.triple
    Q = (pos**2).sum(-1)

    def p_inv(Z):
        return Z - 2.0 * ((pos * Z).sum(-1) / Q)[..., None] * pos

    tangents = np.stack([p_inv(s.tangents[i]) for i in range(s.grid.ndim)])
    normals = np.stack([p_inv(s.normals[r]) for r in range(s.n_normals)])
    h, V = np.empty_like(t.h), np.empty_like(t.V)
    for m in range(t.n_classes):
        for r in range(t.n_normals):
            V[m, r] = t.V[m, r] + 2.0 * t.v[m] * (pos * s.normals[r]).sum(-1) / Q
        for j in range(s.grid.ndim):
            h[j, m] = t.h[j, m] - 2.0 * t.v[m] * (pos * s.tangents[j]).sum(-1) / Q
    return pos / Q[..., None], tangents, normals, t.v / Q, h, V


def _same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _bases():
    # moved off the origin and inverted, so that no h, v or V is constant
    c4 = circle_seed(radius=1.0, n=15, u_range=(0.0, 0.4), ambient=4)
    t5 = torus_seed(R=1.0, r=0.3, shape=(9, 11), u1_range=(0.1, 1.1), u2_range=(0.2, 1.2), ambient=5)
    return {"circle4": apply_ltransform(apply_ltransform(c4, Translate([0.3, 0.1, 0.2, 0.5])), Inversion()),
            "torus5": apply_ltransform(apply_ltransform(t5, Translate([0.2, 0.1, 1.7, -0.3, 0.4])),
                                       Inversion())}


@pytest.mark.parametrize("indices", [(1,), (2, 0), (0, 1, 2)])
@pytest.mark.parametrize("list_fiber", [False, True], ids=["grid", "list"])
@pytest.mark.parametrize("base", ["circle4", "torus5"])
def test_cylinder_triple_is_the_per_index_assembly(base, list_fiber, indices):
    h = _bases()[base]
    sub = ParallelNormalSubbundle(indices)
    fiber = ([np.linspace(-0.5, 0.7, 4 + l) ** (l + 1) for l in range(sub.rank)] if list_fiber
             else TensorGrid((5,) * sub.rank, (0.3,) * sub.rank, (-0.4,) * sub.rank))
    cyl = generalized_cylinder(h, sub, 0, fiber)
    t = cyl.triple
    _same_bits((cyl.positions, cyl.tangents, cyl.normals, t.v, t.h, t.V), _frozen_cylinder(h, sub, fiber))


@pytest.mark.parametrize("indices,a", [((1, 2), 0.2), ((2, 0), -0.4), ((0, 1), 1.5)])
@pytest.mark.parametrize("base", ["circle4", "torus5"])
def test_tube_triple_is_the_per_index_assembly(base, indices, a):
    g = _bases()[base]
    sub = ParallelNormalSubbundle(indices)
    try:
        tube = generalized_tube(g, sub, a, n_angle=9)
    except FocalDegeneracy:
        pytest.skip("radius reaches the focal set on most of the patch")
    t = tube.triple
    _same_bits((tube.positions, tube.tangents, tube.normals, t.v, t.h, t.V), _frozen_tube(g, sub, a, 9))


@pytest.mark.parametrize("base", ["circle4", "torus5"])
def test_inversion_is_the_per_index_closed_form(base):
    s = _bases()[base]
    out = apply_ltransform(s, Inversion())
    t = out.triple
    _same_bits((out.positions, out.tangents, out.normals, t.v, t.h, t.V), _frozen_inversion(s))
