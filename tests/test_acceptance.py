"""Acceptance suite: every structural claim at its pinned tolerance.

Each test prints one [PASS]/[FAIL] line; run with `pytest -s
tests/test_acceptance.py` to see them.  Tolerances are fixed here, nothing is
calibrated at runtime.
"""

import time

import numpy as np
import pytest

from dupin.chains import (
    LTrivialFamily,
    euclidean_cylinder_match,
    euclidean_rotation_match,
    euclidean_tube_match,
    normalize_to_form,
    quadric_cylinder_residual,
)
from dupin.integrable import axis_data_from_triple, integrate_triple, solve_B, solve_linear
from dupin.moebius import (
    Inversion,
    LTrivialSpec,
    Translate,
    apply_ltransform,
    detect_ltrivial,
    epsilon_of,
    pushforward_w,
    random_catalog_transform,
)
from dupin.net import ParallelNormalSubbundle, Triple, validate_triple
from dupin.numerics import TensorGrid
from dupin.ribaucour import (
    inversion_w,
    ltrivial_w,
    n_ribaucour_transform,
    dupin_step,
    parallel_w,
    ribaucour_transform,
)
from dupin.seeds import circle_seed, cylinder_seed, ellipsoid_patch, torus_seed
from dupin.verify import (
    dupin_residual,
    dupin_tensor_space,
    extract_principal_normals,
    numeric_jet,
    sf_report,
    sphere_leaf_check,
)


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


P0 = np.array([0.0, 0.0, 2.0])


# ---------------------------------------------------------------------------
def test_criterion_1_closed_form_transforms(jet_alpha):
    """Inversion / parallel-translation transforms match the closed forms to
    1e-9 on a 21x21 torus patch; the special shape laws match fd shape
    operators to 1e-4 at h = 1e-2.  Runtime < 5 s."""
    t0 = time.time()
    # pointwise closed forms on a 21x21 patch
    tor = torus_seed(R=1.0, r=0.3, shape=(21, 21), u1_range=(0.1, 1.1), u2_range=(0.2, 1.2))
    r0 = 1.3
    w = inversion_w(tor, P0, r0)
    inv, _ = ribaucour_transform(tor, w)
    diff = tor.positions - P0
    closed = P0 + r0**2 * diff / (diff**2).sum(-1)[..., None]
    e_inv = np.abs(inv.positions - closed).max()

    wp = parallel_w(tor, [0.15])
    par, _ = ribaucour_transform(tor, wp)
    e_par = np.abs(par.positions - (tor.positions + 0.15 * tor.normals[0])).max()

    # shape laws vs the fd oracle at h = 1e-2
    fine = torus_seed(R=1.0, r=0.3, shape=(21, 21), u1_range=(0.1, 0.3), u2_range=(0.2, 0.4))
    w2 = inversion_w(fine, P0, r0)
    inv2, _ = ribaucour_transform(fine, w2)
    jet = numeric_jet(inv2)
    alpha = jet_alpha(jet)
    Q = ((fine.positions - P0) ** 2).sum(-1)
    ip = ((fine.positions - P0) * fine.normals[0]).sum(-1)
    e_law_inv = 0.0
    for i in range(2):
        pred = (Q * fine.sff[i, 0] + 2 * ip) / r0**2       # kappa of A~ against P xi
        kap_fd = (alpha[i, i] * inv2.normals[0]).sum(-1) / jet.metric[..., i, i]
        e_law_inv = max(e_law_inv, np.abs((kap_fd - pred)[jet.interior]).max())

    wp2 = parallel_w(fine, [0.15])
    par2, _ = ribaucour_transform(fine, wp2)
    jet2 = numeric_jet(par2)
    alpha2 = jet_alpha(jet2)
    e_law_par = 0.0
    for i in range(2):
        pred = -fine.sff[i, 0] / (1.0 - 0.15 * fine.sff[i, 0])  # frame P xi = -xi
        kap_fd = (alpha2[i, i] * par2.normals[0]).sum(-1) / jet2.metric[..., i, i]
        e_law_par = max(e_law_par, np.abs((kap_fd - pred)[jet2.interior]).max())
    dt = time.time() - t0
    report("criterion 1: closed-form transforms",
           e_inv < 1e-9 and e_par < 1e-9 and e_law_inv < 1e-4 and e_law_par < 1e-4 and dt < 5.0,
           f"inv {e_inv:.1e}, par {e_par:.1e}, inversion law {e_law_inv:.1e}, offset law {e_law_par:.1e}, {dt:.1f}s")


# ---------------------------------------------------------------------------
def test_criterion_2_integrability_oracle():
    """Both sweep orders of integrate_triple, solve_B and solve_linear agree
    to 1e-8 relative on 41x41 torus and cylinder grids.  Runtime < 10 s."""
    t0 = time.time()
    worst = 0.0
    for seed in (torus_seed(R=1.0, r=0.3, shape=(41, 41)),
                 cylinder_seed(radius=1.0, shape=(41, 41))):
        tr = seed.triple
        data = axis_data_from_triple(tr)
        t01, _ = integrate_triple(data, tr.grid, tr.class_map, substeps=16, sweep_order=(0, 1))
        t10, _ = integrate_triple(data, tr.grid, tr.class_map, substeps=16, sweep_order=(1, 0))
        for a, b in ((t01.v, t10.v), (t01.h, t10.h), (t01.V, t10.V)):
            worst = max(worst, np.abs(a - b).max() / max(np.abs(a).max(), 1e-30))
        sB = solve_B(tr, tuple(np.linspace(0.5, 1.0, tr.n_classes)), substeps=12)
        worst = max(worst, sB.reports["path_independence"])
        sL = solve_linear(tr, (0.3, -0.2), 1.0, (0.1, 0.05), (0.2,) * tr.n_normals, substeps=12)
        worst = max(worst, sL.reports["path_independence"])
    dt = time.time() - t0
    report("criterion 2: integrability oracle (sweep orders)",
           worst < 1e-8 and dt < 10.0, f"max rel disagreement {worst:.2e}, {dt:.1f}s")


# ---------------------------------------------------------------------------
def test_criterion_3_transform_identity_suite():
    """P-isometry, condition (a), D symmetry and parallelism of the P-image
    of parallel normals, each < 1e-8 over >= 6 (sample, w) pairs."""
    rng = np.random.default_rng(31)
    tor = torus_seed(R=1.0, r=0.3, shape=(21, 21), u1_range=(0.1, 1.1), u2_range=(0.2, 1.2))
    cyl = cylinder_seed(radius=1.0, shape=(21, 21), u_range=(0.1, 1.1))
    cir = circle_seed(radius=1.0, n=21, u_range=(0.0, 1.0), ambient=4)
    pairs = [
        (tor, inversion_w(tor, P0, 1.3)),
        (tor, parallel_w(tor, [0.15])),
        (tor, ltrivial_w(tor, 0.6, np.array([0.1, -0.2, 2.0]), [0.1], 1.5)),
        (cyl, inversion_w(cyl, np.array([0.0, 0.0, -1.0]), 1.0)),
        (cyl, parallel_w(cyl, [-0.2])),
        (cir, inversion_w(cir, np.array([0.0, 0.0, 0.5, 0.5]), 1.0)),
    ]
    worst = {"iso": 0.0, "cond_a": 0.0, "dsym": 0.0, "parallel": 0.0}
    for s, w in pairs:
        out, jet = ribaucour_transform(s, w)
        Z = rng.normal(size=s.positions.shape)
        PZ = jet.P_apply(Z)
        worst["iso"] = max(worst["iso"], np.abs((PZ**2).sum(-1) - (Z**2).sum(-1)).max())
        rhs = (jet.delta * Z).sum(-1)[..., None] * (s.positions - out.positions)
        worst["cond_a"] = max(worst["cond_a"], np.abs(PZ - Z - rhs).max())
        # D symmetry in the chart basis: (G D)_ij = g_ij lambda_j must be symmetric
        D = s.grid.ndim
        E = np.stack([s.lame[i][..., None] * s.tangents[i] for i in range(D)])
        G = np.einsum("i...k,j...k->...ij", E, E)
        lam = np.moveaxis(jet.lam_coord, 0, -1)
        GD = G * lam[..., None, :]
        worst["dsym"] = max(worst["dsym"], np.abs(GD - np.swapaxes(GD, -1, -2)).max())
        # the bundle isometry maps parallel normal frames to parallel frames
        jets = jet.jets
        _, Xin = jets.new_frames()
        for r, xr in enumerate(Xin):
            for q, xq in enumerate(Xin):
                if q == r:
                    continue
                for ax in range(jets.Dp):
                    dxr = xr.part(ax)
                    if isinstance(dxr, float):
                        continue
                    comp = (np.broadcast_to(dxr, xq.val.shape) * xq.val).sum(-1)
                    worst["parallel"] = max(worst["parallel"], np.abs(comp).max())
    ok = all(v < 1e-8 for v in worst.values())
    report("criterion 3: transform identity suite (6 pairs)", ok,
           ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


# ---------------------------------------------------------------------------
def test_criterion_4_leaf_family_suite(jet_alpha):
    """Normal-space identity and second-fundamental-form formulas of the leaf
    family vs the fd oracle < 1e-4; sphere-leaf residual < 1e-7; the far
    leaf at |y| = 1e6 recovers the base to 1e-5."""
    c = circle_seed(radius=1.0, n=21, u_range=(0.0, 0.4), ambient=4)
    nsub = ParallelNormalSubbundle((1,))
    sol = solve_linear(c.triple, (0.1,), 1.0, (0.2,), (0.3, 0.0, 0.9), substeps=16)
    sol = sol.canonical(nsub.indices, c.triple)
    res = n_ribaucour_transform(c, nsub, sol, TensorGrid((21,), (0.01,), (0.8,)))
    s = res.sample
    jet = numeric_jet(s)
    alpha = jet_alpha(jet)
    jets = res.jet.jets

    # (ii): the fd normal space equals the P-image of the complement span:
    # each xi_r is its projection sum_q <xi_r, nu_q> nu_q onto it
    e_ns = 0.0
    for r in range(s.n_normals):
        xi = s.normals[r]
        proj = np.einsum("q...k,q...l,...l->...k", jet.normal_basis, jet.normal_basis, xi)
        e_ns = max(e_ns, np.abs((proj - xi)[jet.interior]).max())

    # leaf-direction second fundamental form: alpha(S, Z) = <S, Z> P beta_bar
    Pbb = res.jet.P_apply(res.jet.beta_bar)
    Du = c.grid.ndim
    e_una = 0.0
    for a in range(Du, s.grid.ndim):
        for b in range(Du, s.grid.ndim):
            pred = jet.metric[..., a, b][..., None] * Pbb
            e_una = max(e_una, np.abs((alpha[a, b] - pred)[jet.interior]).max())
        for i in range(Du):
            e_una = max(e_una, np.abs(alpha[a, i][jet.interior]).max())

    # base-direction second fundamental form:
    # alpha(X, Y) = P((alpha_h(D X, Y) + 2 nu <D X, Phi Y> beta)_perp)
    e_dos = 0.0
    lam = res.jet.lam
    rho = res.jet.rho
    nu = res.jet.nu
    phiv = res.jet.phi
    cls = c.triple.class_map.classes
    out_r = [r for r in range(c.n_normals) if r not in nsub.indices]
    for i in range(Du):
        m = cls[i]
        vi = c.triple.v[m].reshape(c.grid.shape + (1,) * 1)
        base_vec = np.zeros(s.grid.shape + (s.ambient_dim,))
        for jr, r in enumerate(out_r):
            coeff = (lam[m] * vi**2 * (c.triple.V[m, r] / c.triple.v[m]).reshape(vi.shape)
                     + 2.0 * nu * lam[m] * rho[m] * vi**2 * sol.beta[r].reshape(vi.shape))
            base_vec += coeff[..., None] * jets.full(jets.xi[r].val)
        pred = res.jet.P_apply(base_vec)
        e_dos = max(e_dos, np.abs((alpha[i, i] - pred)[jet.interior]).max())

    leaves = sphere_leaf_check(res)
    far = n_ribaucour_transform(c, nsub, sol, TensorGrid((1,), (1.0,), (1e6,)))
    e_far = np.abs(far.sample.positions[:, 0, :] - c.positions).max()

    ok = (e_ns < 1e-4 and e_una < 1e-4 and e_dos < 1e-4
          and leaves["max_fit_residual"] < 1e-7 and e_far < 1e-5)
    report("criterion 4: leaf-family suite", ok,
           f"normal-space {e_ns:.1e}, una {e_una:.1e}, dos {e_dos:.1e}, "
           f"leaves {leaves['max_fit_residual']:.1e}, far {e_far:.1e}")


# ---------------------------------------------------------------------------
def test_criterion_5_recursion_chain(recursion_step1, recursion_step2):
    """Circle -> 2-Dupin surface -> 3-Dupin hypersurface patch in R^4 by two
    recursion steps; k = 2 then k = 3, Dupin residuals < 1e-5, every
    conullity class integrable (holonomic), c <= k-1.  Runtime < 60 s."""
    t0 = time.time()
    rep1 = sf_report(recursion_step1.sample)
    rep2 = sf_report(recursion_step2.sample)
    dt = time.time() - t0
    ok = (rep1.k == 2 and rep2.k == 3
          and recursion_step2.sample.ambient_dim == 4
          and recursion_step2.sample.grid.shape == (21, 21, 21)
          and max(rep1.dupin_residuals) < 1e-5 and max(rep2.dupin_residuals) < 1e-5
          and rep1.holonomic and rep2.holonomic
          and rep1.conformal_codim <= rep1.k - 1 and rep2.conformal_codim <= rep2.k - 1
          and dt < 60.0)
    report("criterion 5: recursion chain circle -> 2-Dupin -> 3-Dupin", ok,
           f"k {rep1.k}->{rep2.k}, dupin {max(rep2.dupin_residuals):.1e}, "
           f"holonomic {rep2.holonomic}, c {rep2.conformal_codim}, verify {dt:.1f}s")


# ---------------------------------------------------------------------------
def test_criterion_6_tensor_space_dimension(recursion_step2):
    """The net-adapted Dupin tensor space has numerical rank exactly k
    (singular-value gap > 1e6) for a k = 2 and a k = 3 net."""
    tor = torus_seed(R=1.0, r=0.3, shape=(21, 21), u1_range=(0.1, 1.1), u2_range=(0.2, 1.2))
    r2 = dupin_tensor_space(tor.triple)
    r3 = dupin_tensor_space(recursion_step2.triple, substeps=4)
    ok = (r2["dimension"] == 2 and r2["rank_equals_k"] and r2["gap"] > 1e6
          and r3["dimension"] == 3 and r3["rank_equals_k"] and r3["gap"] > 1e6
          and r2["probe_span_residual"] < 1e-9 and r3["probe_span_residual"] < 1e-9)
    report("criterion 6: Dupin-tensor space dimension", ok,
           f"k=2 gap {r2['gap']:.1e}, k=3 gap {r3['gap']:.1e}, "
           f"span residuals {r2['probe_span_residual']:.1e}/{r3['probe_span_residual']:.1e}")


# ---------------------------------------------------------------------------
def test_criterion_7_cylinder_equivalence_chains():
    """L-trivial data of every class on the circle seed, driven through the
    logged normalization chain and stereographic map, matches the directly
    constructed tube / rotation / cylinder to 1e-6 after fiber alignment."""
    c = circle_seed(radius=1.0, n=21, u_range=(0.2, 1.2), ambient=4)
    nsub = ParallelNormalSubbundle((1,))
    fiber = (np.linspace(0.5, 1.5, 11),)
    results = {}
    for name, v0, want_eps in (("tube", np.zeros(4), 1),
                               ("rotation", np.array([1.5, 0, 0, 0]), -1),
                               ("cylinder", np.array([1.0, 0, 0, 0]), 0)):
        spec = LTrivialSpec(1.0, v0, np.zeros(c.n_normals), 1.0, exact=True)
        fam = LTrivialFamily(c, spec, nsub, fiber)
        norm, eps, log = normalize_to_form(fam)
        assert eps == want_eps
        commuting = max(s["commuting_residual"] for s in log)
        quad = quadric_cylinder_residual(norm, eps)
        if eps == 1:
            m = euclidean_tube_match(norm, xi_index=2)
        elif eps == -1:
            m = euclidean_rotation_match(norm, e=np.array([1.0, 0, 0, 0]))
        else:
            m = euclidean_cylinder_match(norm)
        results[name] = max(commuting, quad, m["residual"])
    ok = all(v < 1e-6 for v in results.values())
    report("criterion 7: cylinder-equivalence chains (eps = +1, -1, 0)", ok,
           ", ".join(f"{k} {v:.1e}" for k, v in results.items()))


# ---------------------------------------------------------------------------
def test_criterion_8_negative_controls():
    """An ellipsoid patch fails the Dupin residual (> 1e-2); a regular
    non-Dupin-type transform of the torus fails the k-Dupin suite; a
    perturbed triple fails validation."""
    from tests.test_ribaucour import nondupin_torus_w

    el = ellipsoid_patch(shape=(41, 41))
    pd = extract_principal_normals(el)
    r_el = dupin_residual(el, pd).max()

    tor = torus_seed(R=1.0, r=0.3, shape=(41, 41), u1_range=(0.1, 0.9), u2_range=(0.2, 1.0))
    w = nondupin_torus_w(tor)
    out, jet = ribaucour_transform(tor, w)
    # regularity of the transform: lam^{-1}(eta_j - beta_bar) nonzero, distinct
    kap = np.stack([tor.sff[i, 0] for i in range(2)])
    bbar = -w.beta[0] / w.phi
    vecs = (kap - bbar) / jet.lam_coord
    gap = np.abs(vecs[0] - vecs[1]).min()
    assert gap > 1e-3 and np.abs(vecs).min() > 1e-3, "transform is not regular"
    jet_o = numeric_jet(out)
    pd_o = extract_principal_normals(out, jet=jet_o)
    r_nd = dupin_residual(out, pd_o, jet=jet_o).max()

    t = tor.triple
    rng = np.random.default_rng(0)
    v = t.v.copy()
    v[0] += 1e-3 * rng.normal(size=v[0].shape)
    bad = validate_triple(Triple(t.grid, t.class_map, v, t.h, t.V), tol=1e-6)

    ok = r_el > 1e-2 and r_nd > 1e-2 and not bad.passed
    report("criterion 8: negative controls", ok,
           f"ellipsoid {r_el:.1e}, non-Dupin transform {r_nd:.1e}, "
           f"perturbed triple max residual {bad.max_residual:.1e}")


# ---------------------------------------------------------------------------
def test_criterion_9_invariance(recursion_step1):
    """Conformal-codimension estimate and the class sign eps(w) are unchanged
    under 10 random catalog transforms per example."""
    rng = np.random.default_rng(47)
    ok = True
    details = []
    # example 1: torus in R^3 with a detected inversion w
    tor = apply_ltransform(torus_seed(R=1.0, r=0.3, shape=(21, 21), u1_range=(0.1, 1.1),
                                      u2_range=(0.2, 1.2)), Translate([0.0, 0.0, 1.7]))
    w = inversion_w(tor, np.array([0.4, -0.3, 4.0]), 1.1)
    spec0, _ = detect_ltrivial(tor, w)
    eps0 = epsilon_of(spec0).value
    c0 = sf_report(tor).conformal_codim
    sample, wcur = tor, w
    for _ in range(10):
        T = random_catalog_transform(rng, 3)
        if isinstance(T, Inversion):
            shift = Translate(np.array([0.0, 0.0, 3.0]))
            wcur = pushforward_w(wcur, shift, sample)
            sample = apply_ltransform(sample, shift)
        wcur = pushforward_w(wcur, T, sample)
        sample = apply_ltransform(sample, T)
        spec, _ = detect_ltrivial(sample, wcur)
        eps = epsilon_of(spec).value if spec is not None else None
        c = sf_report(sample).conformal_codim
        ok = ok and (eps == eps0) and (c == c0)
    details.append(f"torus: eps {eps0} c {c0} stable")
    # example 2: the 2-Dupin recursion surface in R^4 (rank level only)
    s1 = recursion_step1.sample
    c1 = sf_report(s1).conformal_codim
    sample = s1
    for _ in range(10):
        T = random_catalog_transform(rng, 4, kinds=("T", "O", "H"))
        sample = apply_ltransform(sample, T)
        ok = ok and sf_report(sample).conformal_codim == c1
    details.append(f"2-Dupin surface: c {c1} stable")
    report("criterion 9: invariance under catalog transforms", ok, "; ".join(details))


# ---------------------------------------------------------------------------
def test_criterion_10_k4_recursion():
    """Circle in R^5 -> 2-Dupin -> 3-Dupin -> 4-Dupin on 11^4 by three
    recursion steps: validate_triple < 1e-6, oracle k = 4, holonomic,
    c <= k-1, Dupin residuals < 1e-5, leaf sphere fits < 1e-7.  Runtime < 20 s."""
    t0 = time.time()
    c = circle_seed(radius=1.0, n=11, u_range=(0.0, 0.4), ambient=5)
    s1 = dupin_step(c, n_indices=(1,), y_grid=TensorGrid((11,), (0.01,), (0.8,)),
                    B0=(0.1,), phi0=1.0, gamma0=(0.2,), beta0=(0.3, 0.0, 0.0, 0.9),
                    substeps=16)
    s2 = dupin_step(s1.sample, n_indices=(1,), y_grid=TensorGrid((11,), (0.01,), (0.828,)),
                    B0=(-0.204, 0.141), phi0=1.0, gamma0=(0.010, -0.042),
                    beta0=(-0.618, 0.0, -0.174), substeps=10)
    s3 = dupin_step(s2.sample, n_indices=(1,), y_grid=TensorGrid((11,), (0.01,), (0.6,)),
                    B0=(0.15, -0.1, 0.12), phi0=1.0, gamma0=(0.02, 0.01, -0.03),
                    beta0=(0.4, -0.5), substeps=8)
    val = validate_triple(s3.triple).max_residual
    rep = sf_report(s3.sample)
    leaves = sphere_leaf_check(s3)
    dt = time.time() - t0
    ok = (s3.sample.grid.shape == (11, 11, 11, 11) and s3.sample.ambient_dim == 5
          and val < 1e-6 and rep.k == 4 and rep.holonomic
          and rep.conformal_codim <= rep.k - 1 and max(rep.dupin_residuals) < 1e-5
          and leaves["max_fit_residual"] < 1e-7 and dt < 20.0)
    report("criterion 10: recursion chain circle -> 4-Dupin in R^5", ok,
           f"validate {val:.1e}, k {rep.k}, holonomic {rep.holonomic}, c {rep.conformal_codim}, "
           f"dupin {max(rep.dupin_residuals):.1e}, leaves {leaves['max_fit_residual']:.1e}, {dt:.1f}s")
