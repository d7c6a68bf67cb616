import dataclasses

import numpy as np
import pytest

from dupin.errors import NotCanonical, RankZero
from dupin.integrable import solve_linear
from dupin.net import ParallelNormalSubbundle, principal_normals_from_triple, validate_triple
from dupin.numerics import TensorGrid, fd_axis, sphere_fit, AffineFlat
from dupin.ribaucour import (
    GeneralW,
    HolonomicJets,
    _make_jet,
    combescure_check,
    dupin_step,
    inversion_w,
    n_ribaucour_transform,
    parallel_w,
    regularity_predicates,
    ribaucour_transform,
    transform_principal_data,
    verify_mutual_ribaucour,
)
from dupin.seeds import circle_seed, torus_seed
from dupin.serialize import dump_json, sample_to_dict


P0 = np.array([0.0, 0.0, 2.0])


@pytest.fixture(scope="module")
def torus():
    return torus_seed(R=1.0, r=0.3, shape=(21, 21), u1_range=(0.1, 1.1), u2_range=(0.2, 1.2))


@pytest.fixture(scope="module")
def torus_h01():
    # h = 1e-2: fd-based residuals sit at the 1e-8 truncation level
    return torus_seed(R=1.0, r=0.3, shape=(41, 41), u1_range=(0.1, 0.5), u2_range=(0.2, 0.6))


@pytest.fixture(scope="module")
def w_inv(torus):
    return inversion_w(torus, P0, 1.3)


def nondupin_torus_w(sample, R=1.0, r=0.3, beta0=1.0, G=3.0):
    """Closed-form non-Dupin solution on the torus chart: phi = F(u1) E(u2) + G
    with F = sin(2 u1), E = (R + r cos u2)/(R + r); beta and the tensor
    eigenvalues follow in closed form (rho_1 varies along its own class)."""
    U1, U2 = sample.grid.meshgrid()
    w = R + r * np.cos(U2)
    F, dF, d3F = np.sin(2 * U1), 2 * np.cos(2 * U1), -8 * np.cos(2 * U1)
    E = w / (R + r)
    phi = F * E + G
    gamma1 = dF / (R + r)
    gamma2 = -F * np.sin(U2) / (R + r)
    beta = F * np.cos(U2) / (R + r) + beta0
    rho1 = (-4 * F + F + beta0 * (R + r) * np.cos(U2)) / ((R + r) * w)
    rho2 = np.full(sample.grid.shape, beta0 / r)
    return GeneralW(phi=phi, gamma=np.stack([gamma1, gamma2]),
                    beta=beta[None], rho=np.stack([rho1, rho2]))


class TestClosedForms:
    def test_inversion_positions(self, torus, w_inv):
        out, jet = ribaucour_transform(torus, w_inv)
        diff = torus.positions - P0
        closed = P0 + 1.3**2 * diff / (diff**2).sum(-1)[..., None]
        assert np.abs(out.positions - closed).max() < 1e-9

    def test_plane_point_maps_to_0_0_2(self):
        # inversion about the sphere of radius sqrt(2) at the origin sends
        # (0, 0, 1) on the plane z = 1 to (0, 0, 2)
        from dupin.seeds import flat_seed
        from dupin.moebius import Translate, apply_ltransform

        s = apply_ltransform(flat_seed(shape=(11, 11), extent=(1.0, 1.0)), Translate([-0.5, -0.5, 1.0]))
        w = inversion_w(s, np.zeros(3), np.sqrt(2.0))
        out, _ = ribaucour_transform(s, w)
        mid = (5, 5)
        assert np.abs(s.positions[mid] - [0, 0, 1]).max() < 1e-12
        assert np.abs(out.positions[mid] - [0, 0, 2]).max() < 1e-12

    def test_parallel_translation_offset_torus(self, torus):
        w = parallel_w(torus, [0.15])
        out, _ = ribaucour_transform(torus, w)
        assert np.abs(out.positions - (torus.positions + 0.15 * torus.normals[0])).max() < 1e-12

    def test_projective_invariance(self, torus, w_inv):
        out1, _ = ribaucour_transform(torus, w_inv)
        out2, _ = ribaucour_transform(torus, w_inv.scaled(-3.7))
        assert np.abs(out1.positions - out2.positions).max() < 1e-12


class TestCombescure:
    def test_inversion_phi_is_identity(self, torus_h01):
        w = inversion_w(torus_h01, P0, 1.3)
        rep = combescure_check(torus_h01, w)
        assert rep["combescure"] < 1e-7
        assert rep["gnorm"] < 1e-7
        assert rep["phi_offdiag"] < 1e-6
        # rho = B/v = 1 for the inversion
        assert np.abs(w.B / torus_h01.triple.v - 1.0).max() < 1e-14
        assert rep["phi_diag_vs_rho"] < 1e-6

    def test_parallel_translation_phi_is_shape_operator(self, torus_h01):
        w = parallel_w(torus_h01, [0.15])
        rep = combescure_check(torus_h01, w)
        assert rep["combescure"] < 1e-7
        assert rep["phi_diag_vs_rho"] < 1e-6

    def test_nondupin_w_satisfies_the_constraint(self, torus_h01):
        w = nondupin_torus_w(torus_h01)
        rep = combescure_check(torus_h01, w)
        assert rep["combescure"] < 1e-6
        assert rep["gnorm"] < 1e-7
        assert rep["phi_diag_vs_rho"] < 1e-5
        # genuinely non-Dupin: rho_1 varies along its own class
        d = fd_axis(w.rho[0], torus_h01.grid.spacings[0], 0, 1)
        assert np.abs(d).max() > 0.1

    def test_degenerate_w_masked(self):
        from dupin.seeds import flat_seed
        from dupin.moebius import Translate, apply_ltransform

        s = apply_ltransform(flat_seed(shape=(9, 9)), Translate([0.0, 0.0, 1.0]))
        t = s.triple
        w = solve_linear(t, (0.0, 0.0), 1.0, None, None, substeps=2)
        # phi = 1, gamma = beta = 0: F = 0 everywhere -> no valid node
        out, jet = ribaucour_transform(s, w)
        assert out.mask is not None and not out.mask.any()


class TestTransformIdentities:
    def test_p_isometry_and_condition_a(self, torus, w_inv):
        out, jet = ribaucour_transform(torus, w_inv)
        rng = np.random.default_rng(11)
        Z = rng.normal(size=torus.positions.shape)
        PZ = jet.P_apply(Z)
        assert np.abs((PZ**2).sum(-1) - (Z**2).sum(-1)).max() < 1e-10
        rhs = (jet.delta * Z).sum(-1)[..., None] * (torus.positions - out.positions)
        assert np.abs(PZ - Z - rhs).max() < 1e-9

    def test_d_symmetry_diagonal(self, torus):
        w = nondupin_torus_w(torus)
        out, jet = ribaucour_transform(torus, w)
        # D is diagonal on the orthonormal coordinate frame, hence symmetric;
        # its eigenvalues are lam_coord
        assert jet.lam_coord.shape[0] == 2
        assert np.isfinite(jet.lam_coord).all()

    def test_p_parallel_exact_jets(self, torus, w_inv):
        # the P-image of a parallel normal frame is parallel for the transform;
        # computed with exact jets the residual is algebraic roundoff
        jets = ribaucour_transform(torus, w_inv)[1].jets
        Xn, Xin = jets.new_frames()
        worst = 0.0
        for r, xr in enumerate(Xin):
            for s_, xs in enumerate(Xin):
                if r == s_:
                    continue
                for ax in range(jets.Dp):
                    dxr = xr.part(ax)
                    comp = (np.broadcast_to(dxr, xs.val.shape) * xs.val).sum(-1)
                    worst = max(worst, np.abs(comp).max())
        assert worst < 1e-10

    def test_p_parallel_fd(self, torus, w_inv):
        out, jet = ribaucour_transform(torus, w_inv)
        g = out.grid
        interior = g.interior_mask(2)
        worst = 0.0
        for r in range(out.n_normals):
            for i in range(g.ndim):
                d = fd_axis(out.normals[r], g.spacings[i], i, 1)
                for s_ in range(out.n_normals):
                    if s_ == r:
                        continue
                    comp = (d * out.normals[s_]).sum(-1)
                    worst = max(worst, np.abs(comp[interior]).max())
        assert worst < 1e-4

    def test_shape_law_against_fd(self, torus, w_inv, jet_alpha):
        # A~_{P xi} = D^{-1}(A_xi + 2 nu <beta, xi> Phi) against the oracle
        from dupin.verify import numeric_jet

        out, jet = ribaucour_transform(torus, w_inv)
        oj = numeric_jet(out)
        alpha = jet_alpha(oj)
        # predicted eigenvalue of A~ on class m against P xi_r: from the new triple
        pred = out.sff  # (D, R, grid) = V~/v~ per coordinate
        # fd shape operator in the coordinate frame: S = G^{-1} H; on principal
        # samples it is diagonal with the same eigenvalues
        interior = out.grid.interior_mask(2)
        for i in range(2):
            Hii = (alpha[i, i] * out.normals[0]).sum(-1)
            gii = oj.metric[..., i, i]
            kap_fd = Hii / gii
            assert np.abs((kap_fd - pred[i, 0])[interior]).max() < 1e-4


class TestSpecialShapeLaws:
    def test_sff_inversion_law(self, torus):
        # r^2 A~_{P mu} = |f - P0|^2 A_mu + 2 <f - P0, mu> I, pointwise
        r0 = 1.3
        w = inversion_w(torus, P0, r0)
        out, _ = ribaucour_transform(torus, w)
        Q = ((torus.positions - P0) ** 2).sum(-1)
        inner = ((torus.positions - P0) * torus.normals[0]).sum(-1)
        for i in range(2):
            lhs = r0**2 * out.sff[i, 0]
            rhs = Q * torus.sff[i, 0] + 2 * inner
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_sff2_parallel_law(self, torus):
        # A~_mu = (I - A_xi)^{-1} A_mu for the parallel translation by xi.
        # The transform's P flips the translated direction (P xi = -xi), so
        # the output frame is -xi and its coefficients carry the flip.
        w = parallel_w(torus, [0.15])
        out, _ = ribaucour_transform(torus, w)
        assert np.abs(out.normals[0] + torus.normals[0]).max() < 1e-12
        for i in range(2):
            axi = 0.15 * torus.sff[i, 0]
            pred_wrt_xi = torus.sff[i, 0] / (1.0 - axi)
            assert np.abs(-out.sff[i, 0] - pred_wrt_xi).max() < 1e-10


@pytest.fixture(scope="module")
def circle_result():
    c = circle_seed(radius=1.0, n=21, u_range=(0.0, 0.4), ambient=4)
    return dupin_step(c, n_indices=(1,), y_grid=TensorGrid((21,), (0.01,), (0.8,)),
                      B0=(0.1,), phi0=1.0, gamma0=(0.2,), beta0=(0.3, 0.0, 0.9), substeps=16)


class TestNRibaucour:
    def test_requires_subbundle(self, circle_result):
        c = circle_seed(radius=1.0, n=21, u_range=(0.0, 0.4), ambient=4)
        w = circle_result.w
        with pytest.raises(RankZero):
            n_ribaucour_transform(c, ParallelNormalSubbundle(()), w, TensorGrid((5,), (0.1,)))

    def test_requires_canonical(self):
        c = circle_seed(radius=1.0, n=21, u_range=(0.0, 0.4), ambient=4)
        sol = solve_linear(c.triple, (0.1,), 2.0, (0.2,), (0.3, 0.2, 0.9), substeps=8)
        with pytest.raises(NotCanonical):
            n_ribaucour_transform(c, ParallelNormalSubbundle((1,)), sol, TensorGrid((5,), (0.1,)))

    def test_generic_leaves_are_spheres(self, circle_result):
        for iu in (0, 7, 15, 20):
            fit = sphere_fit(circle_result.leaf_positions((iu,)))
            assert not isinstance(fit, AffineFlat)
            assert fit.residual < 1e-10

    def test_inversion_type_w_gives_affine_leaves(self):
        # when F lies in the subbundle the leaves are affine lines
        c = circle_seed(radius=1.0, n=21, u_range=(0.0, 0.4), ambient=4)
        # beta supported on the subbundle only: gamma0 = 0, beta = (0, b, 0)
        sol = solve_linear(c.triple, (0.0,), 1.0, (0.0,), (0.0, 0.4, 0.0), substeps=8)
        sol = sol.canonical((1,), c.triple)
        # the canonical representative absorbs the N-component; shift fibers
        res = n_ribaucour_transform(c, ParallelNormalSubbundle((1,)), sol,
                                    TensorGrid((11,), (0.05,), (0.3,)))
        for iu in (0, 10, 20):
            fit = sphere_fit(res.leaf_positions((iu,)))
            assert isinstance(fit, AffineFlat)
            assert fit.dim == 1

    def test_far_leaf_recovers_base(self):
        c = circle_seed(radius=1.0, n=21, u_range=(0.0, 0.4), ambient=4)
        sol = solve_linear(c.triple, (0.1,), 1.0, (0.2,), (0.3, 0.0, 0.9), substeps=16)
        sol = sol.canonical((1,), c.triple)
        res = n_ribaucour_transform(c, ParallelNormalSubbundle((1,)), sol,
                                    TensorGrid((1,), (1.0,), (1e6,)))
        assert np.abs(res.sample.positions[:, 0, :] - c.positions).max() < 1e-5

    def test_new_triple_validates(self, circle_result):
        rep = validate_triple(circle_result.triple, tol=1e-6)
        assert rep.passed, rep

    def test_jet_partials_match_fd_of_positions(self, circle_result):
        s = circle_result.sample
        jets = circle_result.jet.jets
        interior = s.grid.interior_mask(2)
        for ax in range(2):
            d = fd_axis(s.positions, s.grid.spacings[ax], ax, 1)
            jp = np.broadcast_to(jets.f.part(ax), s.positions.shape)
            assert np.abs((d - jp)[interior]).max() < 1e-6


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _assert_frames_are_jet_values(sample, jets):
    Xn, Xin = jets.new_frames()
    for got, want in ((sample.tangents, Xn), (sample.normals, Xin)):
        assert got.shape == (len(want),) + jets.grid.shape + (jets.N,)
        for g, x in zip(got, want):
            assert np.array_equal(_bits(g), _bits(jets.full(x.val)))


class TestValueOnlyFrames:
    """new_sample and slice_sample apply P to values alone; their frames
    equal the values of the jet frames bit for bit."""

    @pytest.mark.parametrize("name", ["recursion_step1", "recursion_step2"])
    def test_recursion_steps(self, name, request):
        res = request.getfixturevalue(name)
        _assert_frames_are_jet_values(res.sample, res.jet.jets)

    def test_rank_two_subbundle(self):
        c = circle_seed(radius=1.0, n=21, u_range=(0.0, 0.4), ambient=5)
        nsub = ParallelNormalSubbundle((1, 2))
        sol = solve_linear(c.triple, (0.1,), 1.0, (0.2,), (0.3, 0.0, 0.0, 0.9), substeps=12)
        sol = sol.canonical(nsub.indices, c.triple)
        res = n_ribaucour_transform(c, nsub, sol, TensorGrid((5, 6), (0.01, 0.01), (0.8, 0.6)))
        _assert_frames_are_jet_values(res.sample, res.jet.jets)

    @pytest.mark.parametrize("case", ["circle_inversion", "torus_inversion", "torus_nondupin"])
    def test_transform_without_subbundle(self, case, circle4, torus, w_inv):
        if case == "circle_inversion":
            s, w = circle4, inversion_w(circle4, (0.2, 0.1, -0.3, 2.0), 1.1)
        else:
            s, w = torus, (w_inv if case == "torus_inversion" else nondupin_torus_w(torus))
        out, jet = ribaucour_transform(s, w)
        _assert_frames_are_jet_values(out, jet.jets)

    def test_slice_sample(self, recursion_step2):
        jets = recursion_step2.jet.jets
        for y in ((0,), (7,), (20,)):
            got = recursion_step2.slice_sample(y).normals
            slv = (slice(None),) * jets.D + y + (slice(None),)
            assert got.shape[0] == jets.R
            for r in range(jets.R):
                assert np.array_equal(_bits(got[r]), _bits(jets.full(jets.P(jets.xi[r]).val)[slv]))


class TestRegularity:
    def test_generic_circle_solution_regular(self, circle_result):
        preds = circle_result.predicates
        assert preds["Ew_zero"] and preds["regular"] and "generic" not in preds
        assert preds["min_gap"] > 0.5

    def test_forced_coincidence_not_regular(self):
        c = circle_seed(radius=1.0, n=21, u_range=(0.0, 0.4), ambient=4)
        # beta_bar = eta forced at the base node: -beta_1/phi = -1 = <eta, xi_1>
        sol = solve_linear(c.triple, (0.0,), 1.0, (0.0,), (1.0, 0.0, 0.0), substeps=8)
        preds = regularity_predicates(c, ParallelNormalSubbundle((1,)), sol)
        assert not preds["regular"]

    def test_degenerate_complement_flagged(self):
        c = circle_seed(radius=1.0, n=21, u_range=(0.0, 0.4), ambient=3)
        sol = solve_linear(c.triple, (0.1,), 1.0, (0.0,), (0.3, 0.0), substeps=4)
        preds = regularity_predicates(c, ParallelNormalSubbundle((0, 1)), sol)
        assert preds["degenerate_complement"]


class TestPrincipalTransport:
    def test_zero_rho_class_untouched(self, torus):
        # parallel translation along a frame direction with V = 0 leaves both
        # rho and the principal normals' transport trivial on that class:
        # use the flat seed where all curvatures vanish
        from dupin.seeds import flat_seed
        from dupin.moebius import Translate, apply_ltransform

        s = apply_ltransform(flat_seed(shape=(11, 11)), Translate([0.2, 0.1, 1.0]))
        w = inversion_w(s, np.array([0.0, 0.0, -1.0]), 1.0)
        out, jet = ribaucour_transform(s, w)
        pd = principal_normals_from_triple(s.triple, s)
        moved = transform_principal_data(pd, jet)
        # rho = B/v = 1 for inversions, so lam = 1 - 2 phi nu everywhere;
        # transported normals must match the new triple's principal normals
        pd_new = principal_normals_from_triple(out.triple, out)
        assert np.abs(moved.eta - pd_new.eta).max() < 1e-10

    def test_inverted_torus_against_fd_oracle(self, torus_h01):
        from dupin.verify import extract_principal_normals, numeric_jet

        w = inversion_w(torus_h01, P0, 1.3)
        out, jet = ribaucour_transform(torus_h01, w)
        pd = principal_normals_from_triple(torus_h01.triple, torus_h01)
        moved = transform_principal_data(pd, jet)
        oj = numeric_jet(out)
        pd_fd = extract_principal_normals(out, jet=oj)
        valid = oj.interior & pd_fd.mask
        # match classes by nearest field
        for j in range(2):
            errs = [np.abs((moved.eta[j] - pd_fd.eta[m])[valid]).max() for m in range(2)]
            assert min(errs) < 1e-6

    def test_far_leaf_limit_of_transported_normals(self):
        c = circle_seed(radius=1.0, n=21, u_range=(0.0, 0.4), ambient=4)
        sol = solve_linear(c.triple, (0.1,), 1.0, (0.2,), (0.3, 0.0, 0.9), substeps=16)
        sol = sol.canonical((1,), c.triple)
        nsub = ParallelNormalSubbundle((1,))
        res = n_ribaucour_transform(c, nsub, sol, TensorGrid((1,), (1.0,), (1e6,)))
        pd = principal_normals_from_triple(c.triple, c)
        moved = transform_principal_data(pd, res.jet)
        # eta~_j -> (eta_j)_perp as t -> infinity
        eta_perp = pd.eta[0] - (pd.eta[0] * c.normals[1]).sum(-1)[..., None] * c.normals[1]
        assert np.abs(moved.eta[0][:, 0, :] - eta_perp).max() < 1e-5

    @pytest.mark.parametrize("case", ["inverted_torus", "recursion_step1", "recursion_step2"])
    def test_transport_is_the_per_class_loop(self, case, request):
        if case == "inverted_torus":
            base = request.getfixturevalue("torus_h01")
            _, jet = ribaucour_transform(base, inversion_w(base, P0, 1.3))
        else:
            res = request.getfixturevalue(case)
            base, jet = res.base, res.jet
        pd = principal_normals_from_triple(base.triple, base)
        moved = transform_principal_data(pd, jet)
        # the transport one class at a time, as it was written before the
        # whole-array form; the two must agree bit for bit
        jets, shape, N = jet.jets, jet.F.shape[:-1], jet.F.shape[-1]
        etas, mask = [], np.ones(shape, dtype=bool)
        for m in range(pd.k):
            lifted = pd.eta[m].reshape(jets.L.shape + (1,) * (jets.Dp - jets.D) + (N,))
            eta = np.broadcast_to(lifted, shape + (N,)).copy()
            for l in jets.n_indices:
                xi = jets.full(jets.xi[l].val)
                eta -= (eta * xi).sum(-1)[..., None] * xi
            if jet.beta_bar is not None:
                eta = eta - (2.0 * jet.phi * jet.nu * jet.rho[m])[..., None] * jet.beta_bar
            mask &= np.abs(jet.lam[m]) > 1e-10
            with np.errstate(divide="ignore", invalid="ignore"):
                etas.append(jet.P_apply(eta) / jet.lam[m][..., None])
        if jets.n_indices and jet.beta_bar is not None:
            etas.append(jet.P_apply(jet.beta_bar))
        assert moved.eta.tobytes() == np.stack(etas).tobytes()
        assert moved.eta.shape == np.stack(etas).shape
        assert (moved.mask is None) == mask.all()


class TestMutualRibaucour:
    def test_two_slices_are_ribaucour_transforms(self, circle_result):
        a = circle_result.slice_sample((2,))
        b = circle_result.slice_sample((17,))
        rep = verify_mutual_ribaucour(a, b)
        assert rep["tangency"] < 1e-9
        assert rep["d_symmetry"] < 1e-9

    @pytest.mark.parametrize("holed", [2, 17])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero"])
    def test_a_masked_node_of_one_slice_is_not_read(self, circle_result, value, holed):
        # slices 2 and 17, one of them masked at node 7, where its fields hold
        # `value`: the maxima are taken over the nodes valid in both slices
        def slices(value):
            out = [circle_result.slice_sample((y,)) for y in (2, 17)]
            s = out[(2, 17).index(holed)]
            s.mask = np.ones(s.grid.shape, dtype=bool)
            s.mask[7] = False
            s.positions, s.tangents, s.lame = s.positions.copy(), s.tangents.copy(), s.lame.copy()
            s.positions[7] = s.tangents[:, 7] = s.lame[:, 7] = value
            return out

        rep = verify_mutual_ribaucour(*slices(value))
        assert rep == verify_mutual_ribaucour(*slices(0.7))
        assert rep["tangency"] < 1e-9 and rep["d_symmetry"] < 1e-9

    def test_center_invariant_constant_on_leaves(self, circle_result):
        # f + eta/|eta|^2 is constant along each nullity leaf
        eta = circle_result.principal.eta[-1]
        nrm2 = (eta**2).sum(-1)
        C = circle_result.sample.positions + eta / nrm2[..., None]
        dev = np.linalg.norm(C - C.mean(axis=1, keepdims=True), axis=-1)
        assert dev.max() < 1e-7


# the y-grids the fixtures' last recursion steps were built over
_Y_GRIDS = {"recursion_step1": TensorGrid((21,), (0.01,), (0.8,)),
            "recursion_step2": TensorGrid((21,), (0.01,), (0.828,)),
            "recursion_k4": TensorGrid((11,), (0.01,), (0.6,))}


def _assert_same_bits(got, want):
    if want is None:
        assert got is None
        return
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


def _assert_same_jv(got, want):
    _assert_same_bits(got.val, want.val)
    assert set(got.d) == set(want.d)
    for ax in want.d:
        _assert_same_bits(np.asarray(got.d[ax]), np.asarray(want.d[ax]))


class TestLazyResult:
    """An N-Ribaucour result builds its transform jet and principal data on
    first read; both equal the eager build bit for bit."""

    def test_dupin_step_holds_neither(self, circle4):
        res = dupin_step(circle4, n_indices=(1,), y_grid=_Y_GRIDS["recursion_step1"], B0=(0.1,),
                         phi0=1.0, gamma0=(0.2,), beta0=(0.3, 0.0, 0.9), substeps=16)
        assert "jet" not in vars(res) and "principal" not in vars(res)
        assert res.jet is res.jet and "jet" in vars(res)

    @pytest.mark.parametrize("name", sorted(_Y_GRIDS))
    def test_lazy_equals_eager(self, name, request):
        res = request.getfixturevalue(name)
        want = _make_jet(HolonomicJets(res.base, res.w, res.n_indices, _Y_GRIDS[name]))
        got = res.jet
        for f in dataclasses.fields(want):
            if f.name != "jets":
                _assert_same_bits(getattr(got, f.name), getattr(want, f.name))
        _assert_same_jv(got.jets.f, want.jets.f)
        assert len(got.jets.xi) == len(want.jets.xi)
        for x, y in zip(got.jets.xi, want.jets.xi):
            _assert_same_jv(x, y)
        pd = principal_normals_from_triple(res.triple, res.sample)
        assert res.principal.multiplicities == pd.multiplicities
        for f in ("eta", "eigenframe", "order", "mask"):
            _assert_same_bits(getattr(res.principal, f), getattr(pd, f))

    @pytest.mark.parametrize("name", ["recursion_step1", "recursion_step2"])
    def test_eager_vector_jets_are_values_only(self, name, request):
        res = request.getfixturevalue(name)
        jets = HolonomicJets(res.base, res.w, res.n_indices, _Y_GRIDS[name], partials=False)
        full = HolonomicJets(res.base, res.w, res.n_indices, _Y_GRIDS[name])
        for x in jets.X + jets.xi + [jets.g, jets.F, jets.f]:
            assert x.d == {}
        for got, want in zip(jets.X + jets.xi + [jets.g, jets.F, jets.f] + jets.lam,
                             full.X + full.xi + [full.g, full.F, full.f] + full.lam):
            _assert_same_bits(got.val, want.val)
        for got, want in zip(jets.v_new, full.v_new):
            _assert_same_jv(got, want)

    @pytest.mark.parametrize("name", ["recursion_step1", "recursion_step2"])
    def test_eager_outputs_equal_a_full_jet_build(self, name, request):
        # the fixture's sample, triple and mask come from the values-only build
        res = request.getfixturevalue(name)
        full = HolonomicJets(res.base, res.w, res.n_indices, _Y_GRIDS[name])
        with np.errstate(invalid="ignore", divide="ignore"):
            triple = full.new_triple()
            sample = full.new_sample(triple)
            _assert_same_bits(res.regular, full.regular_mask())
        for f in ("v", "h", "V"):
            _assert_same_bits(getattr(res.triple, f), getattr(triple, f))
        for f in ("positions", "tangents", "normals", "lame", "sff"):
            _assert_same_bits(getattr(res.sample, f), getattr(sample, f))

    @pytest.mark.parametrize("name", ["recursion_step1", "recursion_step2"])
    def test_documents_match_an_eager_jet(self, name, request, tmp_path):
        res = request.getfixturevalue(name)
        eager = dataclasses.replace(res)
        eager.__dict__["jet"] = _make_jet(HolonomicJets(res.base, res.w, res.n_indices,
                                                        _Y_GRIDS[name]))
        for r, tag in ((res, "lazy"), (eager, "eager")):
            dump_json(sample_to_dict(r.sample), tmp_path / f"{tag}_sample.json")
            dump_json(sample_to_dict(r.slice_sample((7,))), tmp_path / f"{tag}_slice.json")
        for doc in ("sample", "slice"):
            assert ((tmp_path / f"lazy_{doc}.json").read_bytes()
                    == (tmp_path / f"eager_{doc}.json").read_bytes())


class TestNewSampleWithoutATriple:
    @pytest.mark.parametrize("name", ["recursion_step1", "recursion_step2"])
    def test_dupin_jets_take_the_new_triple(self, name, request):
        # the y-grid coordinates' lame and sff come from the new triple
        jets = request.getfixturevalue(name).jet.jets
        with np.errstate(invalid="ignore", divide="ignore"):
            got, want = jets.new_sample(), jets.new_sample(jets.new_triple())
        for f in ("positions", "tangents", "normals", "lame", "sff"):
            _assert_same_bits(getattr(got, f), getattr(want, f))

    def test_generalw_over_a_y_grid_is_rejected(self, torus):
        jets = HolonomicJets(torus, nondupin_torus_w(torus), n_indices=(0,),
                             y_grid=TensorGrid((3,), (0.01,), (0.5,)))
        with pytest.raises(ValueError, match="y-grid"):
            jets.new_sample()


def test_dupin_type_rho_constant_along_own_class(circle_result):
    # for Dupin-type data the Phi eigenvalue of each class is constant along
    # that class: X_j(rho_j) vanishes identically in the exact jets
    jets = circle_result.jet.jets
    for m, rho in enumerate(jets.rho_class):
        for i, ci in enumerate(jets.cls):
            if ci != m:
                continue
            part = rho.part(i)
            if isinstance(part, float):
                continue
            assert np.abs(part).max() < 1e-12


class TestRankTwoSubbundle:
    """Circle in R^3 with the full rank-2 normal bundle: the family fills an
    open set of space (the classical cyclic-system picture, codimension 0)."""

    def setup_method(self):
        self.c = circle_seed(radius=1.0, n=11, u_range=(0.0, 0.5), ambient=3)
        self.nsub = ParallelNormalSubbundle((0, 1))
        self.ygrid = TensorGrid((7, 7), (0.15, 0.15), (0.2, 0.2))

    def test_subbundle_valued_F_gives_flat_leaf(self):
        from dupin.integrable import solve_linear

        sol = solve_linear(self.c.triple, (0.0,), 1.0, (0.0,), (0.3, 0.2), substeps=8)
        sol = sol.canonical(self.nsub.indices, self.c.triple)
        res = n_ribaucour_transform(self.c, self.nsub, sol, self.ygrid)
        # gamma vanishes at the base point, so F(u0) lies in the subbundle
        # there and exactly that leaf is an affine plane
        fit0 = sphere_fit(res.leaf_positions((0,)).reshape(-1, 3))
        assert isinstance(fit0, AffineFlat) and fit0.dim == 2
        fit5 = sphere_fit(res.leaf_positions((5,)).reshape(-1, 3))
        assert not isinstance(fit5, AffineFlat)

    def test_generic_w_gives_sphere_leaves(self):
        from dupin.integrable import solve_linear

        sol = solve_linear(self.c.triple, (0.1,), 1.0, (0.3,), (0.2, 0.1), substeps=8)
        sol = sol.canonical(self.nsub.indices, self.c.triple)
        res = n_ribaucour_transform(self.c, self.nsub, sol, self.ygrid)
        for iu in (0, 5, 10):
            fit = sphere_fit(res.leaf_positions((iu,)).reshape(-1, 3))
            assert fit.residual < 1e-7


def test_multiplicity_two_class_transform():
    """A rank-2 subbundle over a circle in R^5 produces a net with class
    multiplicities (1, 2); the full system holds including the Gauss-type
    equation with its same-class sum terms."""
    from dupin.integrable import solve_B, solve_linear
    from dupin.net import validate_triple

    c = circle_seed(radius=1.0, n=21, u_range=(0.0, 0.4), ambient=5)
    nsub = ParallelNormalSubbundle((1, 2))
    sol = solve_linear(c.triple, (0.1,), 1.0, (0.2,), (0.3, 0.0, 0.0, 0.9), substeps=12)
    sol = sol.canonical(nsub.indices, c.triple)
    res = n_ribaucour_transform(c, nsub, sol, TensorGrid((9, 9), (0.01, 0.01), (0.8, 0.6)))
    t = res.triple
    assert t.class_map.multiplicities == (1, 2)
    rep = validate_triple(t, tol=1e-6)
    assert rep.passed, rep
    assert res.sample.frame_residuals()["dg_vs_vX"] < 1e-6
    sB = solve_B(t, (0.3, -0.2), substeps=6)
    assert sB.reports["path_independence"] < 1e-8
