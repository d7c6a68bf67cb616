"""Independent finite-difference differential-geometry oracle.

Everything here works from raw position grids: metric and second fundamental
form by stencils on the chart, shape operators in an orthonormal tangent
frame, principal normals by simultaneous diagonalization, Dupin and
integrability residuals by contracted derivatives and Lie brackets.  Cached
frames or triples on a sample are deliberately ignored so these checks stay
independent of the construction path.

Diagnostics ignore the two outermost node layers (one-sided stencils are
noisier), and where a grid has nodes four layers in, the checks that
differentiate derived fields run there; extraction classifies only the
nodes those checks read (`_read_region`), and on a grid with at least 13
nodes a side `numeric_jet` forms only those nodes (`_form_box`).  Rank
decisions use singular-value gaps and always report the full spectrum so
borderline calls can be audited.

The per-node algebra is batched: stacked small-matrix products over all nodes
(or over the valid nodes only, in the derived checks) and one batched sphere
fit over all leaves.  That fit's two stacked `np.linalg.svd` calls
(`numerics._sphere_fits`) are the only LAPACK calls left, one per leaf
each.  Elementwise kernels over the node axis give the metric's Cholesky
factors, whose inverse transpose is the orthonormal tangent frame
(`_cholesky_frame`), one simultaneous Jacobi diagonalization of the shape
operators in that frame (`numerics._joint_eigh`), a pivoted Gram-Schmidt
normal basis (`_normal_frame`), one-sided Jacobi singular values in the
rank decisions (`numerics._singular_values`), class tracking by pointer
doubling (`_track`) and one deep-stencil derivative pass over the read
region for every class's fields (`_slopes`), whose valid nodes one
selector per slab (`_picker`) takes from each field.  No output depends on the
normal basis, so none depends on where the sample sits in space; the
tangent frame moves outputs only by rounding, except where a class of
multiplicity > 1 is sampled along its frame columns (`_along`).  The
flat-normal-bundle check (`normal_curvature_residual`) is computed once per
jet: extraction and `sf_report` on the same jet share it.  Each field has
one way to be formed, and every derivative is taken by `numerics._fd_rows`,
the row-range kernel behind `numerics.fd_axis`.

Memory stays close to the oracle's degrees of freedom: the jet keeps the
metric, the tangent frame, the shape operators and the normal basis, and the
extraction the principal normals, one eigenframe and the class order per
node.  Every other field (the normal projector, H, the class projectors) is
formed where it is read and for the nodes read there.  `numeric_jet`
builds every per-node field in slabs of axis-0 rows of its form box, and
the extraction's cost and distance tables and the derived checks'
derivative passes run over bounded blocks of nodes.  Every value is the one a
whole-grid evaluation gives, bit for bit, whatever the block sizes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import NotProper, RankDeficient, TooFewNodes
from .integrable import _bounded, _sweep_tensor
from .net import ImmersionSample, PrincipalData, Triple
from .numerics import TensorGrid, _erode_mask, _fd_rows, _joint_eigh, _singular_values, _sphere_fits, _sum_last
from .ribaucour import NRibaucourResult

__all__ = [
    "NumericJet",
    "numeric_jet",
    "extract_principal_normals",
    "dupin_residual",
    "conullity_integrability",
    "sphere_leaf_check",
    "sf_report",
    "focal_constancy",
    "dupin_tensor_space",
    "DiagnosticsReport",
]

_RNG_SEED = 20260810       # dupin_tensor_space's random probes use _RNG_SEED + 1
_RANK_GAP = 1e-6           # relative singular-value gap of rank decisions
_BRACKET_TOL = 1e-4        # relative bracket residual of an integrable conullity
_FLAT_GATE = 1e-4          # largest shape-operator commutator norm of a flat normal bundle
_ETA_TOL = 1e-5            # candidate-normal tolerance, relative to the shape scale
_STENCIL_WIDTH = 3         # masked-node margin along each axis of the derived checks
_ETA_FLOOR = 1e-8          # |eta_j| below this counts as a vanishing normal
_PROBE_SEEDS = 2           # random seeds swept beside the k unit seeds
_GAP_REQUIRED = 1e6        # sigma_k / sigma_{k+1} of a rank-k solution stack
_PASS_VALUES = 2**17       # derived checks: box values differentiated in one pass
_JET_VALUES = 2**16        # numeric_jet: second-derivative values per slab
_BLOCK_VALUES = 2**17      # extraction: values of a per-node temporary built in one block
_SCALE_OUTLIER = 100.0     # numeric_jet drops nodes whose |S| exceeds this multiple of the interior median
_WILD_REACH = 4            # ... and of the median over the node's window, this many nodes each way


@dataclass
class NumericJet:
    """Finite-difference fundamental forms of a position grid, kept at their
    degrees of freedom: the metric, an orthonormal tangent frame, the shape
    operators in it, an orthonormal normal basis and the interior nodes.
    The frame E = L^{-T} comes from the metric's Cholesky factors g = L L^T:
    its columns are the chart components of g-orthonormal vectors
    (E^T g E = I).  The shape operators E^T H E are symmetric; in any other
    orthonormal frame they are orthogonally similar, so no output depends on
    the choice beyond rounding, except the frame columns along which `_along`
    samples a class of multiplicity > 1.

    Every field has the whole grid's shape, but `numeric_jet` forms the
    metric, the frame, the normal basis and the shape operators only on its
    form box (`_form_box`): the nodes two layers in on a grid whose every
    axis has at least 13 nodes, else the whole grid.  Outside it they are
    NaN; nothing reads them there, since the interior and every node the
    checks read lie inside it.  The normal projector sum_r nu_r nu_r^T and
    the second fundamental form H_r = E^{-T} S_r E^{-1} follow from these
    fields; `numeric_jet` forms both in node slabs on its way to them and
    keeps neither."""

    grid: TensorGrid
    metric: np.ndarray         # (*grid, D, D)
    frame: np.ndarray          # (*grid, D, D) E = L^{-T}, columns g-orthonormal
    shape_sym: np.ndarray      # (p, *grid, D, D) symmetrized shape operators; NaN at dropped nodes
    normal_basis: np.ndarray   # (p, *grid, N) orthonormal normal basis, `_normal_frame` (not smooth)
    interior: np.ndarray       # bool (*grid): valid nodes two layers in with finite forms
    # normal_curvature_residual, computed on its first call
    _normal_curvature: float | None = dc_field(default=None, init=False, repr=False, compare=False)


def _finite(pos: np.ndarray) -> np.ndarray:
    """Positions with every non-finite value (allowed at masked nodes) made NaN."""
    return np.where(np.isfinite(pos), pos, np.nan)


def _gradient(g: TensorGrid, pos: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """First derivatives (D, rows, *grid[1:], N) of positions pos on the
    axis-0 rows given (all by default), bit for bit `fd_axis` along each
    axis: along axis 0 by the rows' own stencils (`numerics._fd_rows`)."""
    lo, hi, _ = rows.indices(len(pos))
    first = np.empty((g.ndim, hi - lo) + pos.shape[1:])
    _fd_rows(pos, g.spacings[0], 0, 1, lo, hi, first[0])
    for i in range(1, g.ndim):
        _fd_rows(pos[lo:hi], g.spacings[i], i, 1, 0, g.shape[i], first[i])
    return first


@functools.lru_cache(maxsize=None)
def _triu(D: int, offset: int) -> tuple:
    """`np.triu_indices(D, offset)`, read-only, built once per size."""
    rows, cols = np.triu_indices(D, offset)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@functools.lru_cache(maxsize=None)
def _perms(k: int) -> tuple:
    """The permutations of range(k) in `itertools` order (k!, k) and their
    composition table comp (k!, k!), perms[comp[x, y]] = perms[x][perms[y]];
    read-only, built once per size."""
    perms = np.array(list(itertools.permutations(range(k))))
    index = {p: x for x, p in enumerate(map(tuple, perms.tolist()))}
    comp = np.array([[index[tuple(px[py])] for py in perms] for px in perms])
    perms.flags.writeable = comp.flags.writeable = False
    return perms, comp


def _second(g: TensorGrid, pos: np.ndarray, first: np.ndarray, box: tuple) -> np.ndarray:
    """Second derivatives (D, D, *box, N) on the nodes of box (one slice per
    axis, start and stop given) of positions pos (*grid, N), given their
    first derivatives on the box's axis-0 rows (D, rows, *grid[1:], N), bit
    for bit those of whole-grid `fd_axis` calls: d_ii of the positions and
    d_j first_i (i < j), each along axis d by the box's rows of its own
    stencils (`numerics._fd_rows`) on its field cut to the box along the
    other axes, so at most three nodes beyond the box along d are read."""
    D = g.ndim
    sec = np.empty((D, D) + tuple(sl.stop - sl.start for sl in box) + pos.shape[D:])
    rows = (slice(None),) + box[1:]            # first holds the box's rows only

    def along(out, v, d, order, cut):
        _fd_rows(v[cut[:d] + (slice(None),) + cut[d + 1:]], g.spacings[d], d, order, box[d].start, box[d].stop, out)

    for i in range(D):
        along(sec[i, i], pos, i, 2, box)
        for j in range(i + 1, D):
            along(sec[i, j], first[i], j, 1, rows)
            sec[j, i] = sec[i, j]
    return sec


def _second_form(g: TensorGrid, pos: np.ndarray, first: np.ndarray, basis: np.ndarray, box: tuple) -> np.ndarray:
    """H (p, *box, D, D) on the nodes of box: their second derivatives
    contracted with their normal basis (p, *box, N).  The basis lies in the
    normal space, so this is the normal part's."""
    return np.einsum("ij...k,r...k->r...ij", _second(g, pos, first, box), basis)


def _full_box(shape: tuple) -> tuple:
    """The box (one slice per axis) of every node of a grid of this shape."""
    return tuple(slice(0, n) for n in shape)


def _normal_proj(first: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """The projector I - T^T T (*nodes, N, N) onto the normal space at nodes
    with first derivatives first (D, *nodes, N) and tangent frame E (*nodes,
    D, D): the rows of T = E^T (f_1, ..., f_D) are an orthonormal tangent
    frame.  T^T is copied: that strided stack takes numpy's slow loop."""
    D, N = first.shape[0], first.shape[-1]
    T = frame.swapaxes(-1, -2) @ first.transpose(tuple(range(1, D + 1)) + (0, D + 1))   # (*nodes, D, N)
    proj = T.swapaxes(-1, -2).copy() @ T
    return np.subtract(np.eye(N), proj, out=proj)


def _cholesky_frame(metric: np.ndarray) -> tuple:
    """The frame E = L^{-T} (*grid, D, D), whose columns are g-orthonormal
    (E^T g E = I), and its inverse, the coframe L^T, of the Cholesky factors
    g = L L^T of a stack of metrics (*grid, D, D), D <= 4 (Golub & Van Loan,
    *Matrix Computations*, 4.2).  Closed form, one array over the node axis
    per entry, written into the two outputs; every intermediate goes through
    two scratch arrays (fresh temporaries per entry fragmented the heap: the
    k = 4 chain at 21^4 held 6.6 MB more RSS).  A non-positive pivot (a
    degenerate metric) gives NaN, as a NaN entry does."""
    D = metric.shape[-1]
    frame, coframe = np.zeros(metric.shape), np.zeros(metric.shape)
    L, M = [[None] * D for _ in range(D)], [[None] * D for _ in range(D)]   # L and M = L^{-1}
    acc, term = np.empty(metric.shape[:-2]), np.empty(metric.shape[:-2])
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for i in range(D):
            for j in range(i):
                np.copyto(acc, metric[..., i, j])
                for k in range(j):
                    acc -= np.multiply(L[i][k], L[j][k], out=term)
                L[i][j] = np.multiply(acc, M[j][j], out=coframe[..., j, i])
            np.copyto(acc, metric[..., i, i])
            for k in range(i):
                acc -= np.multiply(L[i][k], L[i][k], out=term)
            acc[~(acc > 0)] = np.nan
            L[i][i] = np.sqrt(acc, out=coframe[..., i, i])
            M[i][i] = np.divide(1.0, L[i][i], out=frame[..., i, i])
            for j in range(i - 1, -1, -1):
                np.multiply(L[i][j], M[j][j], out=acc)
                for k in range(j + 1, i):
                    acc += np.multiply(L[i][k], M[k][j], out=term)
                np.negative(acc, out=acc)
                M[i][j] = np.multiply(acc, M[i][i], out=frame[..., j, i])
    return frame, coframe


def numeric_jet(s: ImmersionSample) -> NumericJet:
    """Fundamental forms from raw positions, independent of cached data.

    The per-node fields are formed on the form box (`_form_box`) only: the
    nodes two layers in, which hold every node the checks read, when every
    axis has at least 2 (2 + _WILD_REACH) + 1 = 13 nodes, else the whole
    grid.  Outside it the metric, the frame, the normal basis and the shape
    operators are NaN.  They are built in slabs of the box's axis-0 rows,
    about _JET_VALUES second-derivative values each (`_form_slab`): per
    slab the first derivatives on its rows, whole along the other axes
    (the mixed second derivatives at box nodes read them out to the edge
    there), the metric, its Cholesky frame (`_cholesky_frame`; its coframe
    is scratch), the normal projector's pivoted Gram-Schmidt basis
    (`_normal_frame`), and the slab's H (`_second_form`, the box's rows of
    each stencil) turned into its shape operators at once, each a
    contiguous array copied into the whole-grid field.  Every value at a
    box node equals the whole-grid evaluation's, bit for bit.

    A node whose shape operator (the largest norm of an entry of
    sum_r S_r nu_r) is more than _SCALE_OUTLIER times both the interior
    median and the median over its window is dropped: its shape operators
    become NaN, so it leaves the interior and extraction masks it.  One
    wild position then cannot set the shape scale of the whole sample.
    The window is the node's (2 _WILD_REACH + 1)^D = 9^D box, moved inside
    the form box where it would leave it, and the median is over its nodes
    with finite forms.  The 5^D nodes whose fourth-order stencils reach one
    wild position away from the edges are under half of it, so its median
    is a clean one; curvature that grows smoothly, even by orders of magnitude
    across the patch (a cone's |S| ~ 1/r), stays within the window's
    median, and nodes at rounding level in a curved sample stay below the
    interior median."""
    g = s.grid
    D, N = g.ndim, s.positions.shape[-1]
    if min(g.shape) < 5:
        raise TooFewNodes("need at least 5 nodes per axis for the oracle")
    # non-finite positions (allowed at masked nodes) become NaN, which reaches
    # the forms of their stencil neighbours quietly; those nodes are not interior
    pos = _finite(s.positions)

    box = _form_box(g)
    field = np.empty if box == _full_box(g.shape) else functools.partial(np.full, fill_value=np.nan)
    metric, frame, size = field(g.shape + (D, D)), field(g.shape + (D, D)), field(g.shape)
    normal_basis, shape_sym = field((N - D,) + g.shape + (N,)), field((N - D,) + g.shape + (D, D))
    rows = max(1, _JET_VALUES // (D * D * N * math.prod(sl.stop - sl.start for sl in box[1:])))
    for lo in range(box[0].start, box[0].stop, rows):
        at = (slice(lo, min(lo + rows, box[0].stop)),) + box[1:]
        _form_slab(g, pos, at, metric, frame, normal_basis, shape_sym, size)
    del pos

    finite = np.isfinite(metric).all(axis=(-2, -1)) & np.isfinite(size)
    if s.mask is not None:
        finite &= s.mask
    interior = g.interior_mask(2) & finite
    if not interior.any():
        raise TooFewNodes("no interior nodes left after masking")
    median = _upper_median(size[interior])
    wild = size > _SCALE_OUTLIER * max(median, 1e-30)
    width = 2 * _WILD_REACH + 1
    for idx in zip(*np.nonzero(wild)):
        starts = [max(min(i - _WILD_REACH, sl.stop - width), sl.start) for i, sl in zip(idx, box)]
        near = tuple(slice(a, a + width) for a in starts)
        if size[idx] <= _SCALE_OUTLIER * _upper_median(size[near][finite[near]], median):
            wild[idx] = False
    if wild.any():
        shape_sym[:, wild] = np.nan
        interior &= ~wild
    return NumericJet(grid=g, metric=metric, frame=frame, shape_sym=shape_sym, normal_basis=normal_basis,
                      interior=interior)


def _form_slab(g: TensorGrid, pos: np.ndarray, at: tuple, metric: np.ndarray, frame: np.ndarray,
               normal_basis: np.ndarray, shape_sym: np.ndarray, size: np.ndarray) -> None:
    """`numeric_jet`'s fields on the nodes of box at, written into the
    whole-grid fields: each formed as a contiguous array and copied in
    (products on the whole-grid arrays' strided views take numpy's slow
    loops), and each released once copied, so one slab's arrays at most
    are held at a time.  size (*grid) takes |S|, the largest norm of an
    entry of sum_r S_r nu_r: NaN where a shape operator is, inf where its
    square overflows."""
    D, p = g.ndim, normal_basis.shape[0]
    first = _gradient(g, pos, at[0])
    f = first[(slice(None), slice(None)) + at[1:]]
    metric[at] = G = np.einsum("i...k,j...k->...ij", f, f)
    frame[at] = E = _cholesky_frame(G)[0]
    del G
    normal_basis[(slice(None),) + at] = nu = _normal_frame(f, E, p)
    shape_sym[(slice(None),) + at] = S = E.swapaxes(-1, -2) @ _second_form(g, pos, first, nu, at) @ E
    del E, nu
    with np.errstate(over="ignore"):
        sq = (S * S).sum(0)
    del S
    top = sq[..., 0, 0].copy()
    for a, b in zip(*_triu(D, 0)):
        np.maximum(top, sq[..., a, b], out=top)
    size[at] = np.sqrt(top, out=top)


def _form_box(g: TensorGrid) -> tuple:
    """The box (one slice per axis) on which `numeric_jet` forms its
    per-node fields: the read region (`_read_region`, the nodes two layers
    in) when every axis has at least 2 (2 + _WILD_REACH) + 1 = 13 nodes, so
    that it holds a whole wild-node window, else the whole grid."""
    return _read_region(g) if min(g.shape) >= 2 * (2 + _WILD_REACH) + 1 else _full_box(g.shape)


def _upper_median(values: np.ndarray, empty: float = 0.0) -> float:
    """The upper median of a 1-d array (`np.partition`, not `np.median`,
    which imports `numpy.ma` on its first call), or empty for no values."""
    if not values.size:
        return empty
    return float(np.partition(values, len(values) // 2)[len(values) // 2])


def _normal_frame(first: np.ndarray, frame: np.ndarray, p: int) -> np.ndarray:
    """An orthonormal basis (p, *nodes, N) of the normal spaces at nodes with
    first derivatives first (D, *nodes, N) and tangent frame (*nodes, D, D),
    by pivoted Gram-Schmidt on the rows of the normal projector
    (`_normal_proj`, a temporary): each step normalizes the first row whose
    squared norm is at least half the largest and projects it out of every
    row.  Any orthonormal normal basis gives the oracle the same outputs;
    this one is cheap."""
    proj = _normal_proj(first, frame)
    N = proj.shape[-1]
    W, rows = proj.reshape(-1, N, N), N * np.arange(proj[..., 0, 0].size)
    basis, top = np.empty((p,) + W.shape[:-1]), np.empty(len(W))
    for r, nu in enumerate(basis):
        sq = np.einsum("nkl,nkl->nk", W, W)
        np.copyto(top, sq[:, 0])                       # the rows' largest squared norm, one column at a time
        for c in range(1, N):
            np.maximum(top, sq[:, c], out=top)
        at = rows + (sq >= 0.5 * top[:, None]).argmax(axis=-1)
        nu[:] = W.reshape(-1, N)[at] / np.sqrt(sq.reshape(-1)[at])[:, None]
        W = W - (W @ nu[:, :, None]) * nu[:, None, :] if r + 1 < p else W
    return basis.reshape((p,) + proj.shape[:-1])


def normal_curvature_residual(jet: NumericJet) -> float:
    """Flat-normal-bundle estimate (Ricci equation: R-perp = 0 iff all shape
    operators commute): the largest over interior nodes of
    sqrt(1/2 sum_{r,q} |[S_r, S_q]|_F^2), the same in any orthonormal normal
    basis.  Computed once per jet: later calls return the first value."""
    if jet._normal_curvature is None:
        S = jet.shape_sym[:, jet.interior]             # (p, n, D, D)
        r, q = _triu(len(S), 1)
        X = S[r] @ S[q]                                # [S_r, S_q] = X - X^T
        jet._normal_curvature = float(np.sqrt(((X - X.swapaxes(-1, -2)) ** 2).sum(axis=(0, -2, -1))).max())
    return jet._normal_curvature


def extract_principal_normals(s: ImmersionSample,
                              jet: NumericJet | None = None) -> PrincipalData:
    """Simultaneous diagonalization of the shape operators into k classes.

    The normal bundle must be flat: NotProper is raised when
    normal_curvature_residual exceeds _FLAT_GATE * max(scale, 1), where
    scale is the largest norm of an entry of the normal-valued shape
    operator sum_r S_r nu_r.  A simultaneous Jacobi diagonalization of the
    shape operators (`numerics._joint_eigh`) gives per node D eigendirections
    e_a and candidate normals eta_a = sum_r <S_r e_a, e_a> nu_r, ordered by
    ascending |eta_a| and on ties by the sweeps, which the chart alone sets.

    Only the nodes the checks read are classified (`_read_region`): on a
    grid whose every axis has at least 9 nodes the nodes two layers in, on
    a smaller grid the whole grid.  Every step below (the diagonalization,
    the candidates, the linkage, the vote, the half rule, the references
    and the eigenframe) runs on that region's nodes alone.  At every valid
    node of it the candidates are grouped by single linkage at distance
    10 * _ETA_TOL * scale.  The dominant grouping (most nodes; on a tie
    the one met first in lexicographic node order) fixes k and the
    multiplicities.  Borderline nodes (another grouping) and nodes whose
    forms are not finite are masked rather than guessed, and a NotProper error
    is raised only when no grouping covers half of the region's valid nodes.

    Classes are tracked across nodes so the eta fields are smooth.  A masked
    node's reference is its predecessor idx - e_d along the first axis d whose
    predecessor is masked; a node without one refers to the first masked node
    in lexicographic order (the root), which keeps the grouping's own class
    order.  Each node matches its groups to its reference's groups by the
    permutation sigma that minimizes sum_b |eta(group sigma_b) - ref eta(group b)|,
    the first such in itertools order on a tie, and takes the class order
    sigma composed with its reference's (a node whose distances are all NaN
    keeps its reference's order).  A reference always lies earlier in
    lexicographic order and inside the region, so every chain of references
    ends at the root; the matchings are composed up the chains by pointer
    doubling, in ceil(log2 depth) rounds.

    The result keeps, besides eta and the mask, the eigenframe E Q at every
    masked node with its columns in class order, and the class order itself
    (`PrincipalData`); the derived checks form the class projectors from
    them and the metric (`_class_projectors`).
    Every field has the whole grid's shape; outside the region the mask is
    False and the other fields are zero.
    """
    jet = numeric_jet(s) if jet is None else jet
    return _principal_normals(s, jet, normal_curvature_residual(jet))


def _read_region(g: TensorGrid) -> tuple:
    """The box (one slice per axis) of nodes whose principal data the
    oracle's checks read.  On a grid whose every axis has at least 9 nodes
    the derived checks run at the nodes four layers in (`_stencil_valid`),
    whose deep stencils reach two nodes each way, and sf_report's S_f and
    N_1 spans at the interior two layers in: the box is the nodes two layers
    in.  On a smaller grid the checks fall back to the interior itself, and
    the box is the whole grid."""
    lay = 2 if min(g.shape) >= 9 else 0
    return tuple(slice(lay, n - lay) for n in g.shape)


def _principal_normals(s: ImmersionSample, jet: NumericJet, flat_res: float) -> PrincipalData:
    """`extract_principal_normals` given the jet's normal_curvature_residual."""
    g = jet.grid
    D = g.ndim
    N = s.ambient_dim
    shape_scale = max(np.sqrt((jet.shape_sym[:, jet.interior] ** 2).sum(0)).max(), 1e-30)
    if flat_res > _FLAT_GATE * max(shape_scale, 1.0):
        raise NotProper(f"normal bundle not numerically flat (commutator {flat_res:.2e})")
    eta_tol = _ETA_TOL * shape_scale

    # classify the valid nodes with finite forms in the read region only: no
    # stencil of the checks reads a node outside it, which stays unclassified
    region = _read_region(g)
    sub = (slice(None),) + region
    # Q columns: hat-e_a by ascending |eta_a|; lam[r, ..., a] = <S_r e_a, e_a>
    lam, Q = _joint_eigh(jet.shape_sym[sub], lambda lam: (lam * lam).sum(0))
    eta_dir = np.einsum("r...a,r...k->...ak", lam, jet.normal_basis[sub])   # (*region, D, N)
    del lam
    valid = s.valid()[region] & np.isfinite(eta_dir).all(axis=(-2, -1))
    cand = _at(eta_dir, valid)                         # (n, D, N), lexicographic
    del eta_dir
    if not len(cand):
        raise NotProper("no usable interior nodes")
    # single-linkage groups: each candidate is labelled by the smallest index
    # of its component
    linked = np.empty((len(cand), D * (D - 1) // 2), dtype=bool)
    for x, (a, b) in enumerate(itertools.combinations(range(D), 2)):
        linked[:, x] = np.sqrt(_sum_last((cand[:, a] - cand[:, b]) ** 2)) < eta_tol * 10
    labels = _linkage_labels(linked, D)
    key = labels @ D ** np.arange(D)                   # one integer per grouping
    counts = np.bincount(key)
    top = int((counts == counts.max())[key].argmax())   # first node of a most frequent grouping
    pattern = labels[top]
    hit = key == key[top]
    del labels, key
    frac = int(hit.sum()) / len(cand)
    inside = np.zeros(valid.shape, dtype=bool)         # the classified nodes of the region
    inside[valid] = hit
    if frac < 0.5:
        raise NotProper(f"principal-normal count varies (dominant pattern on {frac:.0%} of nodes)")

    pattern = pattern.tolist()
    groups = [np.array([b for b in range(D) if pattern[b] == a]) for a in range(D) if pattern[a] == a]
    k = len(groups)
    mult = tuple(len(grp) for grp in groups)
    mask = np.zeros(g.shape, dtype=bool)
    mask[region] = inside
    nodes = np.flatnonzero(mask)                       # lexicographic order
    local = np.flatnonzero(inside)                     # the same nodes, in the region
    n = len(nodes)
    Q = _at(Q, inside)
    eta = np.zeros((k,) + g.shape + (N,))
    eta_f = eta.reshape(k, -1, N)
    cand = _at(cand, hit)
    tracked = slice(None) if n == eta_f.shape[1] else nodes
    for a, grp in enumerate(groups):
        eta_f[a, tracked] = np.add.reduce(cand[:, grp], axis=1) / len(grp)     # the groups' means
    del cand

    # reference of each classified node (slot 0, the first classified node,
    # is the root), by the region's own strides: a predecessor outside the
    # region is unclassified, so every chain of references stays inside it
    coords = np.unravel_index(local, inside.shape)
    slot = np.full(inside.size, -1)
    slot[local] = np.arange(n)
    parent = np.full(n, -1)
    for d in range(D):
        stride = math.prod(inside.shape[d + 1:])
        pred = np.where(coords[d] > 0, slot[local - stride], -1)
        parent = np.where(parent < 0, pred, parent)
    parent[parent < 0] = 0
    del coords, local, slot, pred

    # track classes against the reference so smooth eta fields survive
    # arbitrarily long patches (frames may rotate fully); gap[i, a, b] is the
    # distance from group a at node i to group b at its reference
    vals = eta_f[:, tracked]                           # (k, n, N), group order

    def gap(lo: int, hi: int) -> np.ndarray:
        rows, ref = np.empty((hi - lo, k, k)), vals[:, parent[lo:hi]]
        for a in range(k):
            diff = vals[a, lo:hi] - ref                # (k, m, N), one row per group b
            diff *= diff
            rows[:, a] = np.sqrt(_sum_last(diff)).T
        return rows

    order = _track(gap, parent, k)                     # class j takes group order[:, j]
    # reordered block by block: a block reads only its own nodes' columns
    step = max(1, _BLOCK_VALUES // (k * N))
    for lo in range(0, n, step):
        at = np.arange(lo, min(lo + step, n))
        eta_f[:, nodes[at]] = vals[order[at].T, at]
    del vals

    # the eigenframe E Q at the tracked nodes, its columns in class order:
    # class j's block of mult[order[i, j]] columns follows classes 0..j-1's
    cls = np.argsort(order, axis=1)                    # group a is class cls[:, a]
    size = np.array(mult)[order]
    start = np.cumsum(size, axis=1) - size
    col = np.empty((n, D), dtype=np.intp)              # Q's column at each eigenframe column
    every = np.arange(n)
    for a, grp in enumerate(groups):
        first = start[every, cls[:, a]]
        for t, b in enumerate(grp.tolist()):
            col[every, first + t] = b
    del cls, size, start, first
    hat = Q[every[:, None, None], np.arange(D)[:, None], col[:, None, :]]   # C-contiguous
    del Q, col
    R = np.zeros(g.shape + (D, D))
    R.reshape(-1, D, D)[tracked] = _at(jet.frame[region], inside) @ hat
    del hat
    cls_order = np.zeros(g.shape + (k,), dtype=np.int8)
    cls_order.reshape(-1, k)[tracked] = order
    return PrincipalData(eta=eta, multiplicities=mult, mask=mask, eigenframe=R, order=cls_order)


def _linkage_labels(linked: np.ndarray, D: int) -> np.ndarray:
    """Single-linkage labels (n, D) of n graphs over D nodes whose edges
    linked (n, D(D-1)/2) lists in `np.triu_indices(D, 1)` order: each node is
    labelled by the smallest node of its component.  Warshall's transitive
    closure over the graphs' boolean node-pair arrays."""
    pairs = list(itertools.combinations(range(D), 2))
    close = [[None] * D for _ in range(D)]
    for x, (a, b) in enumerate(pairs):
        close[a][b] = close[b][a] = linked[:, x]
    for m in range(D):
        for a, b in pairs:
            if m != a and m != b:
                close[a][b] = close[b][a] = close[a][b] | (close[a][m] & close[m][b])
    labels = np.empty((len(linked), D), dtype=np.intp)
    for a in range(D):
        labels[:, a] = a
        for b in range(a - 1, -1, -1):
            labels[close[a][b], a] = b
    return labels


def _at(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """a[mask] for a (*mask.shape, ...), a view of a when mask selects every node."""
    return a.reshape((-1,) + a.shape[mask.ndim:]) if mask.all() else a[mask]


def _track(gap, parent: np.ndarray, k: int) -> np.ndarray:
    """Class order (n, k) of every node from the group distances gap[i, a, b]
    between group a at node i and group b at its reference parent[i] (node 0,
    the root, keeps the identity).  Each node's matching sigma_i, group b at
    the reference to group sigma_i[b] at the node, minimizes
    sum_b gap[i, sigma_i[b], b], NaN counting as inf, and is the first such
    permutation in itertools order on a tie; it does not depend on the
    reference's order.  The node's order is sigma_i composed with its
    reference's, order_i[j] = sigma_i[order_parent[j]], so a node whose
    distances are all NaN inherits its reference's order.

    gap(lo, hi) gives the table's rows lo..hi-1 (hi - lo, k, k).  They are
    asked for in blocks of about _BLOCK_VALUES matching costs, so neither
    the table nor the n x k! cost table is built whole."""
    n = len(parent)
    perms, comp = _perms(k)
    sigma = np.empty(n, dtype=np.intp)                 # each matching by its row of perms
    step = max(1, _BLOCK_VALUES // len(perms))
    for lo in range(0, n, step):
        rows = gap(lo, min(lo + step, n))
        cost = rows[:, perms[:, 0], 0]                 # (m, k!), summed over b in order
        for b in range(1, k):
            cost += rows[:, perms[:, b], b]
        cost[np.isnan(cost)] = np.inf
        sigma[lo:lo + step] = cost.argmin(axis=1)
    sigma[0] = 0                                       # the identity
    # compose the matchings up the reference chains by pointer doubling, one
    # composition-table lookup per node a round: after round t, sigma maps
    # the order 2^t references up to the node's own
    up = parent
    while up.any():
        sigma = comp[sigma, sigma[up]]
        up = up[up]
    return perms[sigma]


def _stencil_valid(grid: TensorGrid, interior: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Interior nodes whose fd stencils stay inside the valid node set.

    Checks that differentiate an already fd-derived field need four layers of
    margin: the outer two layers of the first derivative carry lower-order
    stencil error, and differentiating across the stencil-regime boundary
    would turn that into O(h) noise.  On a grid whose every axis has at
    least 9 nodes only interior nodes four layers in are valid, and there is
    no fallback to the ring two or three layers in; on a smaller grid, which
    has no such node, the interior nodes are.  A node within _STENCIL_WIDTH
    of a masked node of the read region (`_read_region`) along any axis is
    invalid; nodes outside the region are never classified and mask nothing.
    TooFewNodes is raised when no node is left.

    The oracle keeps this rule, wider than `net._fd_nodes` of the
    construction-side checks, because it differentiates fields it has already
    differentiated and it stays independent of the construction code.
    """
    region = _read_region(grid)
    valid = interior & grid.interior_mask(region[0].start + 2)   # four layers in, or the interior
    if mask is not None and not mask[region].all():   # eroding an all-valid mask changes nothing
        er = mask[region]
        for ax in range(grid.ndim):
            er = _erode_mask(er, ax, _STENCIL_WIDTH)
        valid[region] &= er
    if not valid.any():
        raise TooFewNodes("no stencil-valid nodes left after masking")
    return valid


def _picker(mask: np.ndarray):
    """The node selector of a box: pick(a, lead) gives the nodes of a
    (axes lead..lead + mask.ndim - 1 spanning the box) that mask selects, as
    one axis in lexicographic order.  When mask selects every node it is a
    reshape (a view of a contiguous a, else one copy), otherwise one np.take
    over mask's flat indices."""
    at = None if mask.all() else np.flatnonzero(mask)

    def pick(a: np.ndarray, lead: int = 0) -> np.ndarray:
        a = a.reshape(a.shape[:lead] + (-1,) + a.shape[lead + mask.ndim:])
        return a if at is None else np.take(a, at, axis=lead)
    return pick


def _slopes(g: TensorGrid, pick, stack: np.ndarray, out: np.ndarray) -> np.ndarray:
    """First derivatives of a stack of fields (*box, *t) at the n nodes
    pick (`_picker`) selects among the box's inner nodes, two layers in,
    written to out (D, n, *t) and returned: along axis d bit for bit
    fd_axis(stack, h_d, d, 1) there.  One deep-stencil pass per axis
    differentiates every field at once; its rows come laid out as the stack
    is, so pick reads them without a gather when it selects every inner
    node, and each axis's rows are copied once, into their slot of out."""
    inner = (slice(2, -2),) * g.ndim
    for d in range(g.ndim):
        out[d] = pick(_fd_rows(stack[inner[:d] + (slice(None),) + inner[d + 1:]], g.spacings[d], d, 1,
                               2, stack.shape[d] - 2))
    return out


def _class_projectors(R: np.ndarray, C: np.ndarray, multiplicities: tuple, order: np.ndarray,
                      classes: range) -> np.ndarray:
    """The projectors (c, *nodes, D, D) onto the eigenbundles of the given
    classes at nodes with eigenframe R (*nodes, D, D), its columns in class
    order (see `PrincipalData`), co-eigenframe C = R^{-1} (*nodes, D, D) and
    class order (*nodes, k): the product of R's columns and C's rows in the
    class's block.  Class j's block at a node follows the sizes of the
    groups that classes 0..j take there, so it can take one of a few column
    ranges, read off the orders of the groups.  The first range's product
    fills every node; each further range's overwrites the nodes that hold
    it.  With groups of one size a class has one range, so one product."""
    k = len(multiplicities)
    ranges = [list(itertools.accumulate((multiplicities[g] for g in p), initial=0))
              for p in itertools.permutations(range(k))]
    bounds = None       # per node, the first column of each class's block and the end of the last
    P = np.empty((len(classes),) + R.shape)
    for x, j in enumerate(classes):
        blocks = sorted({(r[j], r[j + 1]) for r in ranges})
        for y, (b0, b1) in enumerate(blocks):
            Q = np.matmul(R[..., b0:b1], C[..., b0:b1, :], out=None if y else P[x])
            if y:
                if bounds is None:
                    bounds = np.zeros(order.shape[:-1] + (k + 1,), dtype=int)
                    np.cumsum(np.asarray(multiplicities)[order], axis=-1, out=bounds[..., 1:])
                holds = (bounds[..., j] == b0) & (bounds[..., j + 1] == b1)
                np.copyto(P[x], Q, where=holds[..., None, None])
    return P


def _eigenframes(P: np.ndarray, frame: np.ndarray, metric: np.ndarray):
    """The columns X of P_j E (the chart components of the eigenbundles'
    projections of a g-orthonormal frame) for projectors P (c, n, D, D) at n
    nodes with tangent frames E and metric (n, D, D), and their metric norms
    |X|_g (c, n, D)."""
    dirs = P @ frame                               # (c, n, D, D), columns X
    return dirs, np.sqrt(np.abs(_sum_last(((metric @ dirs) * dirs).swapaxes(-1, -2))))


def _along(dirs: np.ndarray, nX: np.ndarray, d_ef: np.ndarray, basis: np.ndarray, live: list) -> tuple:
    """Per class, the max over valid nodes and frame columns X of
    |D_X V| / |X|_g for ambient fields V with chart derivatives dV: for
    V = eta_j with D_X V in the coordinates of the normal basis (n, N, p),
    its normal part, and for the live classes' V = F_j.  d_ef (c, n, D, 2N)
    holds d eta_j and d F_j side by side, so that one product per node and
    class forms D_X of both; d F_j is read for the live classes only.  The
    two come back as (c,) and (l,)."""
    c, N = len(dirs), d_ef.shape[-1] // 2
    DX = dirs.swapaxes(-1, -2) @ d_ef                                      # one row per X
    mag = [DX[..., :N] @ basis, DX[live, ..., N:]]
    mag = np.concatenate([np.sqrt(_sum_last(DXV * DXV)) for DXV in mag])
    nX = np.concatenate([nX, nX[live]])
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.where(nX > 1e-8, mag / np.maximum(nX, 1e-300), 0.0).max(axis=(1, 2))
    return mag[:c], mag[c:]


def dupin_residual(s: ImmersionSample, pd: PrincipalData,
                   jet: NumericJet | None = None) -> np.ndarray:
    """Per-class max |normal-projected derivative of eta_j along its own
    eigenbundle| over valid interior nodes."""
    jet = numeric_jet(s) if jet is None else jet
    return _derived(s, jet, pd, range(pd.k))[0]


def conullity_integrability(s: ImmersionSample, pd: PrincipalData, j: int,
                            jet: NumericJet | None = None) -> dict:
    """Bracket test for the conullity of class j.

    Spanning fields are the conullity projections of the chart basis; the
    residual is the eigenbundle component of their Lie brackets (metric
    norm); the class is integrable when it is below _BRACKET_TOL times the
    bracket scale (at least 1).  The pairwise-independence
    sufficient condition (eta_i - eta_l vs eta_j - eta_l everywhere linearly
    independent) is reported alongside.
    """
    jet = numeric_jet(s) if jet is None else jet
    return _derived(s, jet, pd, range(j, j + 1))[2][0]


def _conullity(P: np.ndarray, G: np.ndarray, d_Q: np.ndarray) -> np.ndarray:
    """Bracket tests of c classes at n nodes from their projectors P
    (c, n, D, D), the metric G (n, D, D) and the chart derivatives
    d_Q[c, n, m, i, a] = d_m Q^i_a of the conullity projectors Q = 1 - P:
    per class the largest bracket residual and bracket scale (c, 2).  The
    covariant derivatives D_{Y_a} Y_b of the spanning fields come from one
    (D, D) x (D, D^2) product per node and class, of which the a < b pairs
    are read.  Slabs of nodes combine by the maximum; `_bracket_reports`
    reads the result."""
    c, n, D = P.shape[:3]
    a, b = _triu(D, 1)
    Q = np.eye(D) - P                                      # conullity projectors
    # spanning fields Y_a = Q_j e_a (the columns of Q_j): (D_{Y_a} Y_b)^i =
    # sum_m Q^m_a d_m Q^i_b, as DY[c, n, (a, i, b)]
    DY = (Q.swapaxes(-1, -2) @ d_Q.reshape(c, n, D, D * D)).reshape(c, n, D**3)
    a, b, i = a[:, None], b[:, None], np.arange(D)
    br = np.take(DY, (a * D + i) * D + b, axis=2) - np.take(DY, (b * D + i) * D + a, axis=2)  # (c, n, pairs, D)
    bad = br @ P.swapaxes(-1, -2)                          # eigenbundle component
    top = np.empty((c, 2))
    for x, Y in enumerate((bad, br)):
        top[:, x] = np.sqrt(np.abs(_sum_last((Y @ G) * Y))).max(axis=(1, 2), initial=0.0)
    return top


def _independence(classes: range, eta: np.ndarray) -> np.ndarray:
    """The bracket test's sufficient condition at n nodes from every class's
    eta (k, n, N): per given class j and pair (i, l) of the other classes the
    smallest norm of the cross product of eta_i - eta_j and eta_l - eta_j
    (c, pairs).  Slabs of nodes combine by the minimum."""
    k = len(eta)
    triples = [(j, i, l) for j in classes for i, l in itertools.combinations([i for i in range(k) if i != j], 2)]
    if not triples:
        return np.empty((len(classes), 0))
    j, i, l = np.array(triples).T
    di, dl = eta[i] - eta[j], eta[l] - eta[j]
    cross2 = _sum_last(di**2) * _sum_last(dl**2) - _sum_last(di * dl) ** 2
    return np.sqrt(np.maximum(cross2, 0.0)).min(axis=1).reshape(len(classes), -1)


def _bracket_reports(classes: range, top: np.ndarray, low: np.ndarray) -> tuple:
    """The bracket-test dicts of the given classes from `_conullity`'s
    maxima and `_independence`'s minima over all valid nodes."""
    reports = []
    for j, (worst, scale), cross in zip(classes, top, low):
        suff = min([np.inf] + [float(x) for x in cross])     # a NaN pair minimum does not count
        reports.append({
            "class": j,
            "bracket_residual": float(worst),
            "bracket_scale": float(scale),
            "integrable": bool(worst < _BRACKET_TOL * max(1.0, scale)),
            "sufficient_independence": None if suff is np.inf else float(suff),
        })
    return tuple(reports)


def focal_constancy(s: ImmersionSample, pd: PrincipalData,
                    jet: NumericJet | None = None) -> np.ndarray:
    """Per-class spherical-leaf residual: the focal map f + eta_j/|eta_j|^2
    must be constant along the eigenbundle of a nonvanishing Dupin normal
    (its value is the leaf-sphere center).  Classes whose normal vanishes
    somewhere (below _ETA_FLOOR) report nan (their leaves are flats there)."""
    jet = numeric_jet(s) if jet is None else jet
    return _derived(s, jet, pd, range(pd.k))[1]


def _derived(s: ImmersionSample, jet: NumericJet, pd: PrincipalData, classes: range) -> tuple:
    """Dupin residuals (c,), focal-map constancy (c,) and bracket tests (c
    dicts) of the given classes at the stencil-valid nodes, from fields on
    the read region (`_read_region`).  One derivative pass per group of
    classes (all of them unless the region is large) and slab of axis-0 rows
    (the whole region unless one class's fields there exceed _PASS_VALUES
    values) differentiates each class's eta_j, focal map and conullity
    projector, written side by side into one stack; the slabs' maxima and
    minima combine.  The focal constancy is nan for a class whose normal
    falls below _ETA_FLOOR.

    Each slab's valid nodes lie among its inner nodes, four layers in (two
    inside the derivative box), and one selector (`_picker`) per slab takes
    them from every field: the metric, the tangent frame, the normal basis
    and every class's eta once per slab, and the class projectors and the
    derivative rows once per pass."""
    g = jet.grid
    D, N = g.ndim, s.ambient_dim
    values = 2 * N + D * D                              # per node and class: eta_j, F_j, 1 - P_j
    valid = _stencil_valid(g, jet.interior, pd.mask)
    box = _read_region(g)
    row = math.prod([sl.stop - sl.start for sl in box[1:]]) * values
    start, stop = box[0].start + 2, box[0].stop - 2     # the rows valid nodes can lie on
    step = max(1, _PASS_VALUES // ((stop - start + 4) * row))
    width = max(1, _PASS_VALUES // (step * row) - 4)  # rows per slab, besides the two-row halos
    inner = tuple(slice(sl.start + 2, sl.stop - 2) for sl in box[1:])
    mid = (slice(None),) + (slice(2, -2),) * D          # a slab box's inner nodes, past the class axis
    c = len(classes)
    dupin, leaves = np.full(c, -np.inf), np.full(c, np.nan)
    top, low = np.full((c, 2), -np.inf), np.full((c, (pd.k - 1) * (pd.k - 2) // 2), np.inf)
    every = (slice(start, stop),) + inner               # the box of every valid node
    size = _sum_last(_picker(valid[every])(pd.eta[(slice(classes.start, classes.stop),) + every], 1) ** 2).min(axis=1)
    passes = []                 # per group of classes: its slice, its result slots and its live classes
    for lo in range(0, c, step):
        group = classes[lo:lo + step]
        live = [x for x, sq in enumerate(size[lo:lo + step].tolist()) if sq >= _ETA_FLOOR**2]
        leaves[[lo + x for x in live]] = -np.inf
        passes.append((group, slice(group.start, group.stop), slice(lo, lo + len(group)), live, [lo + x for x in live]))
    most = len(passes[0][0])                            # the largest group
    for r0 in range(start, stop, width):
        core = (slice(r0, min(r0 + width, stop)),) + inner
        here = valid[core]
        if not here.any():
            continue
        pick = _picker(here)
        sub = (slice(r0 - 2, core[0].stop + 2),) + box[1:]
        shape = tuple(sl.stop - sl.start for sl in sub)
        # the slab box's eigenframe R and its inverse R^{-1} = R^T g, shared by
        # the passes; R is 0 at masked nodes, whose metric may be infinite
        R = pd.eigenframe[sub]
        with np.errstate(invalid="ignore", over="ignore"):
            C = (np.ascontiguousarray(jet.metric[sub]) @ R).swapaxes(-1, -2)
        G, E = pick(jet.metric[core]), pick(jet.frame[core])
        basis = pick(jet.normal_basis[(slice(None),) + core], 1).transpose(1, 2, 0)
        eta_here = pick(pd.eta[(slice(None),) + core], 1)
        low = np.minimum(low, _independence(classes, eta_here))
        n = len(G)
        # the passes' stack of fields on the box and their derivatives at the
        # valid nodes, in two buffers allocated once per slab
        stacks, slopes = np.empty(math.prod(shape) * most * values), np.empty(D * n * most * values)
        for group, at, now, live, lit in passes:
            cg = len(group)
            stack = stacks[:stacks.size // most * cg].reshape(shape + (cg, values))
            # F_j is 0 for a class that is not live; the conullity projectors
            # come from the class projectors R_j (g R_j)^T on the box
            ef = stack[..., :2 * N].reshape(shape + (cg, 2, N))
            ef[..., 0, :] = np.moveaxis(pd.eta[(at,) + sub], 0, D)
            eta_live = ef[..., live, 0, :]
            if len(live) < cg:
                ef[..., 1, :] = 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                ef[..., live, 1, :] = s.positions[sub][..., None, :] + eta_live / _sum_last(eta_live ** 2)[..., None]
            proj = _class_projectors(R, C, pd.multiplicities, pd.order[sub], group)
            P = pick(proj[mid], 1)
            np.subtract(np.eye(D), np.moveaxis(proj, 0, D), out=stack[..., 2 * N:].reshape(shape + (cg, D, D)))
            del eta_live, proj
            d = _slopes(g, pick, stack, slopes[:slopes.size // most * cg].reshape((D, n, cg, values)))
            d = np.moveaxis(d, (0, 2), (2, 0))                         # (c, n, D, values)
            dirs, nX = _eigenframes(P, E, G)
            dup, lf = _along(dirs, nX, d[..., :2 * N], basis, live)
            dupin[now], leaves[lit] = np.maximum(dupin[now], dup), np.maximum(leaves[lit], lf)
            top[now] = np.maximum(top[now], _conullity(P, G, d[..., 2 * N:]))
            del d, P, dirs, nX
    return dupin, leaves, _bracket_reports(classes, top, low)


def sphere_leaf_check(result: NRibaucourResult) -> dict:
    """Leaf geometry of an N-Ribaucour result from its positions alone:
    per-base-node sphere fits of y -> f(u0, y), all leaves in one
    `numerics._sphere_fits` call, each leaf as its own `sphere_fit`; a leaf
    whose points coincide raises DegenerateCloud.  The constancy of the leaf
    centres f + eta/|eta|^2 is `focal_constancy` (on extracted normals)."""
    g = result.grid
    Db = result.base.grid.ndim
    if min(g.shape[Db:]) < 5:
        raise TooFewNodes("need >= 5 nodes per leaf direction")
    base_shape = g.shape[:Db]
    clouds = result.sample.positions.reshape(
        (int(np.prod(base_shape)), -1, result.sample.ambient_dim))   # leaves in ndindex order
    _, flat, *_, res = _sphere_fits(clouds)
    kinds = np.where(flat, "flat", "sphere").astype(object).reshape(base_shape)
    return {"max_fit_residual": float(res.max()), "kinds": kinds, "fit_residuals": res.reshape(base_shape)}


@dataclass
class DiagnosticsReport:
    """Structural diagnostics of a submanifold patch."""

    k: int
    multiplicities: tuple
    dupin_residuals: tuple
    normal_curvature: float
    conullity: tuple                  # per-class dicts from the bracket test
    dim_N1: int
    dim_Sf: int
    conformal_codim: int
    holonomic: bool
    masked_fraction: float
    spherical_leaf: tuple = ()        # per-class focal-map constancy (nan = flat leaves)
    # singular values of the worst node of each rank decision, min(m, N) per
    # family of m vectors in R^N; the tangential ones (beyond the codimension) are 0
    spectra: dict = dc_field(default_factory=dict)
    checks: dict = dc_field(default_factory=dict)

    def rows(self):
        """CSV-ready rows: (diagnostic id, value, masked fraction)."""
        rows = [("k", self.k), ("dim_N1", self.dim_N1), ("dim_Sf", self.dim_Sf),
                ("conformal_codim", self.conformal_codim),
                ("normal_curvature", self.normal_curvature),
                ("holonomic", self.holonomic),
                ("masked_fraction", self.masked_fraction)]
        for j, r in enumerate(self.dupin_residuals):
            rows.append((f"dupin_residual_{j}", r))
        for j, r in enumerate(self.spherical_leaf):
            rows.append((f"spherical_leaf_{j}", r))
        for c in self.conullity:
            rows.append((f"conullity_integrable_{c['class']}", c["integrable"]))
        for name, ok in self.checks.items():
            rows.append((name, bool(ok)))
        return [(name, float(val), self.masked_fraction) for name, val in rows]

    def to_dict(self):
        return {
            "k": self.k,
            "multiplicities": list(self.multiplicities),
            "dupin_residuals": [float(x) for x in self.dupin_residuals],
            "normal_curvature": self.normal_curvature,
            "conullity": [
                {kk: (vv if not isinstance(vv, (np.floating, np.bool_)) else float(vv))
                 for kk, vv in c.items()} for c in self.conullity
            ],
            "dim_N1": self.dim_N1,
            "dim_Sf": self.dim_Sf,
            "conformal_codim": self.conformal_codim,
            "holonomic": self.holonomic,
            "masked_fraction": self.masked_fraction,
            "spherical_leaf": [float(x) for x in self.spherical_leaf],
            "spectra": {kk: [float(x) for x in vv] for kk, vv in self.spectra.items()},
            "checks": {kk: bool(vv) for kk, vv in self.checks.items()},
        }


def _span_rank(C: np.ndarray, N: int, gap: float):
    """Numerical rank of a family of m normal vectors in R^N at n nodes,
    given by their coordinates C (n, m, p) in an orthonormal normal basis.

    Singular values come from C by `_singular_values`; the min(m, N) -
    min(m, p) tangential ones are 0.  Returns (max node rank, spectrum of
    the worst node attaining it, whether the rank is constant).  Rank uses
    singular values > gap * sigma_max.
    """
    m, p = C.shape[1:]
    sv = _singular_values(C)
    if min(m, N) > min(m, p):
        sv = np.concatenate([sv, np.zeros((len(C), min(m, N) - min(m, p)))], axis=1)
    ranks = (sv > gap * np.maximum(sv[:, :1], 1e-300)).sum(axis=1)
    at = int(ranks.argmax())
    return int(ranks[at]), sv[at], bool(ranks.min() == ranks[at])


def _sf_span(pd: PrincipalData, basis: np.ndarray, valid: np.ndarray, gap: float):
    """dim S_f, S_f = span{eta_j - eta_i}, as `_span_rank` reports it, from
    all k(k-1)/2 differences i < j, so that no class order is singled out;
    basis (n, N, p) holds the normal basis as columns.  Every class's eta is
    gathered at the valid nodes once."""
    if pd.k == 1:
        return 0, np.zeros(0), True
    eta = pd.eta[:, valid]                                              # (k, n, N)
    pairs = list(itertools.combinations(range(pd.k), 2))
    diffs = np.empty((len(basis), len(pairs), basis.shape[1]))       # (n, pairs, N)
    for x, (i, j) in enumerate(pairs):
        np.subtract(eta[j], eta[i], out=diffs[:, x])
    del eta
    return _span_rank(diffs @ basis, basis.shape[1], gap)


def sf_report(s: ImmersionSample, pd: PrincipalData | None = None,
              jet: NumericJet | None = None, weakly_irreducible: bool = False) -> DiagnosticsReport:
    """Full diagnostics: principal-normal structure, difference-span and
    first-normal-space dimensions, conformal codimension estimate and the
    holonomicity verdict from per-class bracket tests.

    weakly_irreducible states that the submanifold is weakly irreducible,
    which the oracle cannot decide from positions; it adds the bound
    dim S_f <= 2k/3 - 1 to the checks."""
    jet = numeric_jet(s) if jet is None else jet
    ncurv = normal_curvature_residual(jet)
    if pd is None:
        pd = _principal_normals(s, jet, ncurv)
    valid = jet.interior if pd.mask is None else (jet.interior & pd.mask)
    k = pd.k
    D = jet.grid.ndim

    dupin, leaves, conull = _derived(s, jet, pd, range(k))
    holonomic = all(c["integrable"] for c in conull)

    basis = jet.normal_basis[:, valid].transpose(1, 2, 0)          # (n, N, p) columns
    dim_sf, sf_spec, sf_const = _sf_span(pd, basis, valid, _RANK_GAP)
    # N_1 = span of all alpha(X, Y), by the coordinates of the shape operators
    # in the normal basis: E^T H E spans what H does, E being invertible
    i, j = _triu(D, 0)
    dim_n1, n1_spec, n1_const = _span_rank(jet.shape_sym[:, valid][..., i, j].transpose(1, 2, 0),
                                           s.ambient_dim, _RANK_GAP)

    checks = {
        "c_le_k_minus_1": dim_sf <= k - 1,
        "n1_bound": (dim_n1 - 1) <= dim_sf <= dim_n1,
        # 1-regularity is assumed per patch; a rank jump means the patch
        # straddles a stratum boundary and should be re-masked
        "N1_rank_constant": n1_const,
        "Sf_rank_constant": sf_const,
    }
    if dim_sf == k - 1:
        checks["holonomic_when_c_eq_k_minus_1"] = holonomic
    if weakly_irreducible:
        checks["weakly_irreducible_codim_bound"] = dim_sf <= (2.0 / 3.0) * k - 1

    return DiagnosticsReport(
        k=k,
        multiplicities=pd.multiplicities,
        dupin_residuals=tuple(float(x) for x in dupin),
        normal_curvature=ncurv,
        conullity=conull,
        dim_N1=dim_n1,
        dim_Sf=dim_sf,
        conformal_codim=dim_sf,
        holonomic=holonomic,
        masked_fraction=1.0 - np.count_nonzero(valid) / valid.size,
        spherical_leaf=tuple(float(x) for x in leaves),
        spectra={"Sf": sf_spec, "N1": n1_spec},
        checks=checks,
    )


def dupin_tensor_space(t: Triple, substeps: int = 8) -> dict:
    """Dimension of the space of net-adapted Dupin tensors.

    Integrates the tensor system from the k unit seeds plus _PROBE_SEEDS
    random probes, stacks the solutions and reports the singular-value
    spectrum: the rank must equal k (a gap above _GAP_REQUIRED) and any
    probe solution must lie in the unit-seed span.
    """
    k = t.n_classes
    rng = np.random.default_rng(_RNG_SEED + 1)
    seeds = np.concatenate([np.eye(k), rng.normal(size=(_PROBE_SEEDS, k))])
    B, _ = _sweep_tensor(t, seeds.T, substeps)        # one sweep, every seed a column
    if not _bounded(B[:k], axis=1).all():
        raise RankDeficient("tensor-system integration masked nodes (blow-up)")
    A = B.reshape(len(seeds), -1)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[k - 1] <= 0:
        raise RankDeficient("unit-seed solutions are numerically dependent")
    gap = sv[k - 1] / sv[k] if len(sv) > k and sv[k] > 0 else np.inf
    basis = A[:k]
    span_res = 0.0
    for vec in A[k:]:
        coef, *_ = np.linalg.lstsq(basis.T, vec, rcond=None)
        span_res = max(span_res, np.abs(basis.T @ coef - vec).max() / max(np.abs(vec).max(), 1e-30))
    return {
        "dimension": int(k),
        "singular_values": sv,
        "gap": float(gap),
        "rank_equals_k": bool(gap > _GAP_REQUIRED),
        "probe_span_residual": float(span_res),
        "basis": basis,
    }
