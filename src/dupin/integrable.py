"""Line-by-line integration of the first-order net systems.

Three completely integrable systems are handled:

* the net system for a triple (v, h, V), integrated from per-axis data by a
  Goursat-type march (one axis-0 sweep seeds the base row; each rotation
  coefficient then advances along a direction where its derivative is
  determined, the sweep-axis row being reconstructed by quadrature from its
  own axis data);
* the tensor system  dB_m/du_j = h_{jm} B_{j'}  for Dupin-tensor eigenvalue
  data B, whose state carries a batch of columns so that several seeds share
  one sweep;
* the joint linear system for (phi, gamma, beta) driven by B, whose solutions
  induce Ribaucour transforms; its B rows are the tensor system's.

The tensor, joint and moving-frame systems are total linear systems
y' = A(t) y along every grid line, filled by one sweep engine (``_sweep``):
classical fixed-step 4th-order Runge-Kutta (Hairer, Norsett and Wanner,
*Solving ODEs I*, II.1) along grid lines, axis by axis, with a fixed number
of substeps per cell (no adaptivity).  A does not depend on y, so one RK4
step of size h is the matrix

    P = I + h/6 (K1 + 2 K2 + 2 K3 + K4),      K1 = A(t),
    K2 = A(t + h/2) (I + h/2 K1),             K3 = A(t + h/2) (I + h/2 K2),
    K4 = A(t + h) (I + h K3),

whose stage times are known before the march starts.  Each axis phase builds
one propagator per cell and line, the product of its substep matrices, and
then marches cell by cell.  Its coefficient fields are evaluated once at the
phase's first stage time and then for a block of substeps per call, at most
_FIELD_VALUES values and at least one substep (``_stage_fields``), so no
phase holds its fields at every stage time at once.

The tensor system's coefficient matrix has one nonzero column: along axis a
it is A = h[a] e_{a'}^T with a' the class of a.  Every stage matrix, substep
matrix and propagator is then I + p e_{a'}^T, so a propagator is its column
a' alone, a k-vector per cell and line.  The column recursion repeats the
matrix products' arithmetic less their exact-zero terms; a tensor sweep
reads the row h[a] alone (grid triples interpolate just that row), and the
march applies Y + (c - e_{a'}) Y_{a'}.

The joint and frame systems keep dense propagators, built one substep at a
time and applied in index order.  The joint system's B block is autonomous:
the same column recursion builds its propagator columns in the dense loop,
from the h[a] of the coupled block's own fields, so its B equals the tensor
system's bit for bit and each phase makes one provider pass.  B enters
(phi, gamma, beta) only through B_ca (dgamma_axis += B_ca), so the whole
system's propagator rows past B are nonzero only in column ca and in the
(phi, gamma, beta) columns: the dense propagators cover just the coupled
block (B_ca, phi, gamma, beta), of size 2 + D + R instead of k + 1 + D + R.
Repeating the sweep in the reversed axis order gives the built-in
path-independence health check; both orders read one propagator build per
axis, over the union of their lines.  On a node-valued triple with masked
nodes, the mask of `solve_linear`'s and `solve_B`'s solution drops every
node whose sweep read a masked node's values through the interpolation
stencils.  The Goursat march seeds its base row with a tensor-system sweep;
its rows, whose rates are not linear, keep a stage-by-stage RK4 that reads
the axis data from a table of all stage times.  The row state is
family-major (v, V^r and h_{0, m}, each a (2, n) block), so every rate is
one broadcast product of the reconstructed row h_{1, m} with the class row
of its family.  Each stage is one run of ufunc and BLAS calls into buffers
allocated once per march: the exponential of a quadrature for h_{1, ca},
then one product of a folded quadrature row for h_{1, cb}, whose axis-1
datum enters the product as one more term against a row of ones, then the
rate.  The RK4 sum stays elementwise, in the order of the formula: a BLAS
product would make its rounding depend on the kernel the CPU selects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, FrameDrift, NotCanonical, UnsupportedGrid
from .net import (_GRAM_TOL, ClassMap, ImmersionSample, ResidualReport, Triple, _fd_nodes, _gram_defect,
                  _worst, validate_triple)
from .numerics import TensorGrid, fd_axis

__all__ = [
    "RibaucourSolution",
    "TripleAxisData",
    "integrate_triple",
    "solve_B",
    "solve_linear",
    "reconstruct_frame",
    "axis_data_from_triple",
    "cumulative_integral",
]

BLOWUP_BOUND = 1e12
_FIELD_VALUES = 2**15      # coefficient field values of one provider call (at least one substep)


# ---------------------------------------------------------------------------
# coefficient providers: fields at a vector of times on a set of grid lines


class _AnalyticProvider:
    def __init__(self, triple: Triple):
        self.triple = triple
        self.grid = triple.grid

    def line_eval(self, axis: int, idx: np.ndarray):
        """Evaluator of all fields at the times t (P,) on the lines through
        idx (L, D), each (comp..., P, L); the sweep-axis entry of idx is
        ignored."""
        g = self.grid
        at = np.asarray(g.origins) + np.asarray(g.spacings) * idx

        def evaluate(t: np.ndarray) -> dict:
            pts = np.empty((t.shape[0],) + idx.shape)
            pts[...] = at
            pts[..., axis] = t[:, None]
            return self.triple.analytic(pts)

        return evaluate

    def h_row(self, axis: int, idx: np.ndarray):
        """Evaluator of the sweep-axis row h[axis] (k, P, L) at the times t (P,)."""
        evaluate = self.line_eval(axis, idx)
        return lambda t: evaluate(t)["h"][axis]

    def reads(self, substeps: int):
        """None: the closed forms read no node values (`_GridProvider.reads`)."""
        return None


class _GridProvider:
    """Cubic Lagrange interpolation of node fields along the sweep axis."""

    def __init__(self, triple: Triple):
        self.triple = triple
        self.grid = triple.grid

    def _weights(self, axis: int, t: np.ndarray):
        """First stencil node i0 (P,) and the four weights (P, 4) at the times
        t (P,); the stencil is clipped into the axis at both ends."""
        g = self.grid
        n = g.shape[axis]
        if n < 4:
            raise UnsupportedGrid("grid triple interpolation needs >= 4 nodes per axis")
        s = (t - g.origins[axis]) / g.spacings[axis]
        i0 = np.clip(np.floor(s) - 1, 0, n - 4).astype(int)
        xs = i0[:, None] + np.arange(4.0)
        w = np.ones((s.shape[0], 4))
        for m in range(4):
            for l in range(4):
                if l != m:
                    w[:, m] *= (s - xs[:, l]) / (xs[:, m] - xs[:, l])
        return i0, w

    def _interpolator(self, fields, axis: int, idx: np.ndarray):
        """Evaluator of node fields (comp..., *grid) at the times t (P,) on
        the lines through idx (L, D), each (comp..., P, L).  The lines are
        taken once, sweep axis first (comp..., n, L); a trailing unit axis
        carries the line index when the sweep axis is the grid's only one."""
        D = self.grid.ndim
        take = tuple(idx[:, d] for d in range(D) if d != axis) + (np.zeros(idx.shape[0], int),)
        lines = []
        for field in fields:
            lead = field.ndim - D
            moved = np.moveaxis(field, lead + axis, lead)[..., None]
            lines.append(moved[(slice(None),) * (lead + 1) + take])

        def evaluate(t: np.ndarray) -> list:
            i0, w = self._weights(axis, t)
            out = []
            for line in lines:
                acc = w[:, 0, None] * line[..., i0, :]
                for m in range(1, 4):
                    acc += w[:, m, None] * line[..., i0 + m, :]
                out.append(acc)
            return out

        return evaluate

    def line_eval(self, axis: int, idx: np.ndarray):
        """Evaluator of all fields at the times t (P,) on the lines through
        idx (L, D), each (comp..., P, L); the sweep-axis entry of idx is
        ignored."""
        tr = self.triple
        evaluate = self._interpolator((tr.v, tr.h, tr.V), axis, idx)
        return lambda t: dict(zip("vhV", evaluate(t)))

    def h_row(self, axis: int, idx: np.ndarray):
        """Evaluator of the sweep-axis row h[axis] (k, P, L) at the times t (P,)."""
        evaluate = self._interpolator((self.triple.h[axis],), axis, idx)
        return lambda t: evaluate(t)[0]

    def reads(self, substeps: int):
        """(valid, spans) of a triple with masked nodes, for `_sweep`: the
        triple's valid nodes and, per axis a of two or more nodes, spans[a] =
        (lo, hi) (cells,), the first and past-last node that each cell's
        stencils read at its RK4 stage times, weight 0 included.  None when
        every node is valid."""
        mask = self.triple.mask
        if mask is None or mask.all():
            return None
        spans = []
        for axis, n in enumerate(self.grid.shape):
            if n > 1:
                T, _ = _stage_times(self.grid.axis_coords(axis), substeps)
                i0 = self._weights(axis, T.reshape(-1))[0].reshape(T.shape)
                spans.append((i0.min(axis=1), i0.max(axis=1) + 4))
            else:
                spans.append(None)
        return mask, spans


def _provider_for(triple: Triple):
    return _AnalyticProvider(triple) if triple.analytic is not None else _GridProvider(triple)


# ---------------------------------------------------------------------------
# generic total-system sweep


def _apply(prop: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """prop @ Y over the last two axes with the inner index summed in order.

    The fixed order keeps exact zeros of prop from moving any other term, and
    a column of a batched state does not depend on how many columns share it
    (BLAS kernels promise neither).
    """
    out = prop[..., :, :1] * Y[..., :1, :]
    for l in range(1, prop.shape[-1]):
        out += prop[..., :, l : l + 1] * Y[..., l : l + 1, :]
    return out


def _stage_times(coords: np.ndarray, substeps: int):
    """RK4 stage times across each cell of `coords`: (cells, 2 substeps + 1),
    column i at t0 + i h/2 (accumulated step by step, as the march steps),
    and the step sizes h (cells,)."""
    h = (coords[1:] - coords[:-1]) / substeps
    t = coords[:-1]
    T = np.empty((h.shape[0], 2 * substeps + 1))
    for s in range(substeps):
        T[:, 2 * s] = t
        T[:, 2 * s + 1] = t + 0.5 * h
        t = t + h
    T[:, -1] = t
    return T, h


def _stage_fields(fields, T: np.ndarray):
    """The coefficient fields of a phase with stage times T (cells,
    2 substeps + 1), each a dict of arrays (comp..., P, L): first at the
    times T[:, 0] (P = cells), then for each substep at its mid and end times
    (P = 2 cells, mid first).  After the first call, fields(t) is called for
    a block of substeps at a time, as many as fit in _FIELD_VALUES values and
    at least one."""
    cells, substeps = T.shape[0], T.shape[1] // 2
    C = fields(T[:, 0])
    yield C
    block = max(1, _FIELD_VALUES // (2 * sum(a.size for a in C.values())))
    for lo in range(0, substeps, block):
        hi = min(lo + block, substeps)
        # the stage times of substeps lo..hi-1, stage-major: the mid and end
        # times of substep s are the 2 cells values from 2 (s - lo) cells on
        C = fields(T[:, 2 * lo + 1 : 2 * hi + 1].T.reshape(-1))
        for s in range(hi - lo):
            at = slice(2 * s * cells, 2 * (s + 1) * cells)
            yield {key: a[..., at, :] for key, a in C.items()}


def _column_step(c, a0: np.ndarray, a: np.ndarray, h: np.ndarray, ca: int):
    """One RK4 substep of the tensor system's propagator column ca: c (k,
    cells, L) is the column of the product of the substeps so far (None
    before the first), a0 (k, cells, L) the coefficient column h[axis] at the
    substep's start and a (k, 2 cells, L) at its mid and end times; h
    (cells, 1) is the step size.  Returns the new column and h[axis] at the
    substep's end.

    The recursion repeats the arithmetic of `_cell_propagators` on the
    matrices A = a e_ca^T in the same order, less the products' exact-zero
    terms.  A BLAS matrix product may fuse c_m + s_m c_ca into one rounding;
    the column rounds it twice, so the two can differ in the last bit.
    """
    half, sixth = 0.5 * h, h / 6.0
    am, a1 = np.split(a, 2, axis=1)
    k2 = am * (1.0 + half * a0[ca])
    k3 = am * (1.0 + half * k2[ca])
    k4 = a1 * (1.0 + h * k3[ca])
    step = sixth * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
    if c is None:
        c = step
        c[ca] += 1.0
    else:                              # (I + step e_ca^T) c
        c_ca = c[ca].copy()
        c += step * c_ca
        c[ca] = (1.0 + step[ca]) * c_ca
    return c, a1


def _cell_propagators(coef, coords: np.ndarray, substeps: int, lead=None):
    """RK4 propagators (cells, L, S, S) of y' = A(t) y across the cells of
    `coords`.  coef is (fields, assemble): fields(t) gives the coefficient
    fields at the times t (P,), a dict of arrays (comp..., P, L), and
    assemble(C) the matrices A (P, L, S, S) from such fields.  The fields
    are evaluated once at the phase's first stage time and then for a block
    of substeps per call (`_stage_fields`); each substep assembles its own
    matrices.

    lead, if given, is (axis, ca): the same loop then also builds the tensor
    system's propagator columns ca (cells, L, k) from the fields' h[axis]
    (`_column_step`).  Returns (propagators, columns or None)."""
    fields, assemble = coef
    T, h = _stage_times(coords, substeps)
    stages = _stage_fields(fields, T)
    C = next(stages)
    A0 = assemble(C)
    if lead is not None:
        axis, ca = lead
        hc, a0, c = h[:, None], C["h"][axis], None
    h = h[:, None, None, None]
    half, sixth = 0.5 * h, h / 6.0
    eye = np.eye(A0.shape[-1])
    # K holds K2, K3 and K4 in turn, X the stage arguments I + c K, and S the
    # sum A0 + 2 K2 + 2 K3 + K4; the additions run in the order of the
    # formula (an IEEE sum does not depend on the order of its two operands)
    K, X, S = np.empty_like(A0), np.empty_like(A0), np.empty_like(A0)
    prop = None
    for C in stages:
        Amid, A1 = np.split(assemble(C), 2)
        np.multiply(half, A0, out=X)
        X += eye
        np.matmul(Amid, X, out=K)                  # K2
        np.multiply(2.0, K, out=S)
        S += A0
        np.multiply(half, K, out=X)
        X += eye
        np.matmul(Amid, X, out=K)                  # K3
        np.multiply(h, K, out=X)
        X += eye
        K *= 2.0
        S += K
        np.matmul(A1, X, out=K)                    # K4
        S += K
        S *= sixth
        S += eye
        prop = S.copy() if prop is None else S @ prop
        A0 = A1
        if lead is not None:
            c, a0 = _column_step(c, a0, C["h"][axis], hc, ca)
    return prop, (None if lead is None else np.moveaxis(c, 0, -1))


def _tensor_columns(col, coords: np.ndarray, ca: int, substeps: int) -> np.ndarray:
    """Columns ca (cells, L, k) of the tensor system's RK4 propagators
    I + (c - e_ca) e_ca^T across the cells of `coords` (`_column_step`);
    col(t) gives the coefficient column h[axis] (k, P, L) at the times t
    (P,), called as `_stage_fields` calls its fields."""
    T, h = _stage_times(coords, substeps)
    stages = _stage_fields(lambda t: {"h": col(t)}, T)
    a0, c = next(stages)["h"], None
    for C in stages:
        c, a0 = _column_step(c, a0, C["h"], h[:, None], ca)
    return np.moveaxis(c, 0, -1)


def _tensor_step(c: np.ndarray, Y: np.ndarray, ca: int) -> np.ndarray:
    """(I + (c - e_ca) e_ca^T) Y for a propagator column c (L, k, 1) and
    states Y (L, k, M)."""
    out = Y + c * Y[:, ca : ca + 1]
    out[:, ca] = c[:, ca] * Y[:, ca]
    return out


def _tensor_phase(h_at, classes, substeps: int):
    """Axis phases of the tensor system; h_at(axis, idx) gives the evaluator
    t -> coefficient column h[axis] (k, P, L) on the lines through idx."""

    def phase(axis: int, idx: np.ndarray, coords: np.ndarray):
        ca = classes[axis]
        cols = _tensor_columns(h_at(axis, idx), coords, ca, substeps)[..., None]
        return lambda j, Y, lines=slice(None): _tensor_step(cols[j, lines], Y, ca)

    return phase


def _dense_phase(coef_factory, substeps: int, tensor_lead=None):
    """Axis phases of a dense total system; coef_factory(axis, idx) gives
    the coefficients (fields, assemble) of `_cell_propagators` on the lines
    through idx (L, D).

    tensor_lead, if given, is the classes of an autonomous leading tensor
    block of k rows that drives the other rows through its class-ca entry
    alone.  coef_factory then gives the coupled block only, state
    (B_ca, rest), with h among its fields: the tensor rows step by their
    rank-one propagator columns, built from those fields in the same loop,
    so that they equal a tensor sweep bit for bit, and the rest by the
    coupled propagators' rows past the first, applied to (Y_ca, Y_k, ...) in
    index order.  Those rows are the whole system's rows k: less its exact
    zeros, as the other tensor rows never enter the rest."""

    def phase(axis: int, idx: np.ndarray, coords: np.ndarray):
        if tensor_lead is None:
            props, _ = _cell_propagators(coef_factory(axis, idx), coords, substeps)
            return lambda j, Y, lines=slice(None): _apply(props[j, lines], Y)
        ca = tensor_lead[axis]
        props, cols = _cell_propagators(coef_factory(axis, idx), coords, substeps, (axis, ca))
        cols = cols[..., None]
        k = cols.shape[-2]
        rows = props[..., 1:, :]

        def step(j: int, Y: np.ndarray, lines=slice(None)) -> np.ndarray:
            out = np.empty_like(Y)
            out[:, :k] = _tensor_step(cols[j, lines], Y[:, :k], ca)
            P = rows[j, lines]
            rest = out[:, k:]
            np.multiply(P[..., :1], Y[:, ca : ca + 1], out=rest)
            for l in range(1, P.shape[-1]):
                rest += P[..., l : l + 1] * Y[:, k + l - 1 : k + l]
            return out

        return step

    return phase


def _lines(grid: TensorGrid, done, axis: int) -> np.ndarray:
    """The lines (L, D) along `axis` that a sweep marches once the axes in
    `done` are filled, in lexicographic order: every node of those axes, 0
    on the others and on the sweep axis."""
    ranges = [range(grid.shape[d]) if d in done else (0,) for d in range(grid.ndim)]
    return np.array(list(itertools.product(*ranges)), dtype=int)


def _sweep_total(grid: TensorGrid, state0: np.ndarray, phase, order) -> np.ndarray:
    """Fill the grid with states (S, M) of a total linear system, axis by
    axis; phase(axis, idx, coords) gives the cell step (j, Y) -> Y of the
    lines through idx (L, D), their states at node j + 1 from those at j.
    The phases of `_tensor_phase` and `_dense_phase` take an optional third
    argument, the rows of the lines to step (all of them by default)."""
    D = grid.ndim
    out = np.full(grid.shape + state0.shape, np.nan)
    out[(0,) * D] = state0
    for x, a in enumerate(order):
        n = grid.shape[a]
        if n > 1:      # a single-node axis has no cells
            idx = _lines(grid, order[:x], a)
            step = phase(a, idx, grid.axis_coords(a))
            Y = np.empty((n, idx.shape[0]) + state0.shape)
            Y[0] = out[tuple(idx.T)]
            for j in range(1, n):
                Y[j] = step(j - 1, Y[j - 1])
            take = [idx[:, d] for d in range(D)]
            take[a] = np.arange(n)[:, None]
            out[tuple(take)] = Y
    return out


def _shared_phase(grid: TensorGrid, phase, orders):
    """`phase` for sweeps in each of `orders`, built once per axis over the
    union of the lines those sweeps march along it; each sweep's cell step
    reads its own lines' rows, (j, Y) -> step(j, Y, lines).  A line's
    propagators do not depend on the other lines built with it, so every
    sweep's states are those of its own build, bit for bit.  An axis's build
    is released once every order has taken it."""
    hit, left = {}, {}
    for order in orders:
        for x, a in enumerate(order):
            on = hit.setdefault(a, np.zeros(grid.size, dtype=bool))
            on[np.ravel_multi_index(_lines(grid, order[:x], a).T, grid.shape)] = True
            left[a] = left.get(a, 0) + 1
    union = {a: np.flatnonzero(on) for a, on in hit.items()}     # flat node indices, lexicographic
    built = {}

    def shared(axis: int, idx: np.ndarray, coords: np.ndarray):
        lines = union[axis]
        if axis not in built:
            built[axis] = phase(axis, np.column_stack(np.unravel_index(lines, grid.shape)), coords)
        step = built[axis]
        left[axis] -= 1
        if not left[axis]:
            del built[axis]
        if len(idx) < len(lines):
            at = np.searchsorted(lines, np.ravel_multi_index(idx.T, grid.shape))
            return lambda j, Y: step(j, Y, at)
        return step

    return shared


def _clean_nodes(valid: np.ndarray, spans, order) -> np.ndarray:
    """Nodes whose states a sweep in `order` computes from the coefficients
    at valid nodes alone.  spans[a] is (lo, hi) (cells,): each cell along
    axis a reads the nodes lo..hi-1 of its line.  A node is clean when the
    node its line starts from is clean and no cell before it on the line
    reads an invalid node; the base node is clean when it is valid."""
    clean = np.zeros(valid.shape, dtype=bool)
    clean[(0,) * valid.ndim] = valid[(0,) * valid.ndim]
    for a in order:
        if valid.shape[a] > 1:
            lo, hi = spans[a]
            seen = np.cumsum(np.moveaxis(~valid, a, 0), axis=0)      # invalid nodes up to each node
            seen = np.concatenate([np.zeros_like(seen[:1]), seen])
            hit = np.cumsum(seen[hi] > seen[lo], axis=0)            # cells so far that read one
            line = np.moveaxis(clean, a, 0)
            line[1:] = line[0] & (hit == 0)
    return clean


def _field_rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.nanmax(np.abs(a)), 1e-30)
    return float(np.nanmax(np.abs(a - b)) / scale)


@np.errstate(invalid="ignore", over="ignore")      # masked nodes may hold infinities
def _sweep(grid: TensorGrid, state0: np.ndarray, phase, order, check_alternate: bool, reads=None):
    """Sweep a total linear system in `order` (default: axis order); returns
    (states, reports, clean).  With check_alternate on a grid of >= 2 axes
    the sweep is repeated in the reversed order, from one propagator build
    per axis for both (`_shared_phase`), and the relative disagreement of
    the two is reported as path_independence.

    reads, if given, is (valid, spans) of a coefficient provider that reads
    node values (`_GridProvider.reads`); clean (None without it) is then
    `_clean_nodes` of the sweep, and path_independence compares only the
    nodes that both orders compute cleanly."""
    order = tuple(range(grid.ndim)) if order is None else tuple(order)
    clean = None if reads is None else _clean_nodes(*reads, order)
    if not (check_alternate and grid.ndim > 1):
        return _sweep_total(grid, state0, phase, order), {}, clean
    alt = tuple(reversed(order))
    shared = _shared_phase(grid, phase, (order, alt))
    states = _sweep_total(grid, state0, shared, order)
    alt_states = _sweep_total(grid, state0, shared, alt)
    if clean is None:
        return states, {"path_independence": _field_rel_diff(states, alt_states)}, clean
    both = clean & _clean_nodes(*reads, alt)
    reports = {"path_independence": _field_rel_diff(states[both], alt_states[both])} if both.any() else {}
    return states, reports, clean


def _bounded(x: np.ndarray, axis: int) -> np.ndarray:
    """Nodes whose values along `axis` are finite and below the blow-up bound."""
    return np.isfinite(x).all(axis=axis) & (np.abs(x).max(axis=axis) < BLOWUP_BOUND)


# ---------------------------------------------------------------------------
# coefficient matrices


def _frame_block(A: np.ndarray, off: int, C: dict, axis: int, ca: int) -> None:
    """Write the moving-frame system into A (P, L, S, S) from state index off
    on: position, tangents X_j, normals xi_r (or phi, gamma_j, beta_r)."""
    v, h, V = C["v"], C["h"], C["V"]
    D, R = h.shape[0], V.shape[1]
    xa = off + 1 + axis
    A[..., off, xa] = v[ca]                       # dg = v_{ca} X_axis
    for j in range(D):
        if j != axis:
            A[..., off + 1 + j, xa] = h[j, ca]    # dX_j = h_{j, ca} X_axis
            A[..., xa, off + 1 + j] = -h[j, ca]   # dX_axis = -sum h_{j, ca} X_j ...
    for r in range(R):
        A[..., xa, off + 1 + D + r] = V[ca, r]    # ... + sum V_{ca}^r xi_r
        A[..., off + 1 + D + r, xa] = -V[ca, r]   # dxi_r = -V_{ca}^r X_axis


# ---------------------------------------------------------------------------
# the tensor system dB_m/du_j = h_{jm} B_{j'}


def _sweep_tensor(triple: Triple, B0: np.ndarray, substeps: int, order=None,
                  check_alternate: bool = False):
    """Sweep the tensor system from the M seed columns of B0 (k, M) at once;
    returns (B (M, k, *grid), reports)."""
    phase = _tensor_phase(_provider_for(triple).h_row, triple.class_map.classes, substeps)
    B, reports, _ = _sweep(triple.grid, B0, phase, order, check_alternate)
    return np.moveaxis(B, (-1, -2), (0, 1)), reports


# ---------------------------------------------------------------------------
# the joint (B, phi, gamma, beta) system


@dataclass
class RibaucourSolution:
    """Solution fields (phi, gamma, beta) of the linear system, plus B.

    Induces the transform data F = f_* grad phi + beta with
    grad phi = sum_i gamma_i X_i; B_m / v_m are the eigenvalues of the
    commuting Codazzi tensor Phi on each class (Dupin type).
    """

    grid: TensorGrid
    class_map: ClassMap
    phi: np.ndarray
    gamma: np.ndarray          # (D, *grid)
    beta: np.ndarray           # (R, *grid)
    B: np.ndarray              # (k, *grid)
    mask: np.ndarray | None = None
    reports: dict | None = None

    @property
    def n_normals(self) -> int:
        return self.beta.shape[0]

    def valid(self) -> np.ndarray:
        if self.mask is None:
            return np.ones(self.grid.shape, dtype=bool)
        return self.mask

    def scaled(self, lam: float) -> "RibaucourSolution":
        return replace(self, phi=lam * self.phi, gamma=lam * self.gamma,
                       beta=lam * self.beta, B=lam * self.B)

    def canonical(self, n_indices, triple: Triple) -> "RibaucourSolution":
        """Canonical class representative: phi(base)=1 (else |beta(base)|=1),
        and the N-components of beta vanish at the base node (absorbed into
        the parallel-section offset; B is adjusted consistently).  The base
        node is the grid's first node."""
        base = (0,) * self.grid.ndim
        sel = (slice(None),) + base
        phi0 = self.phi[base]
        if abs(phi0) > 1e-12:
            lam = 1.0 / phi0
        else:
            bnorm = np.linalg.norm(self.beta[sel])
            if bnorm < 1e-15:
                raise NotCanonical("cannot canonicalize: phi(base) = 0 and beta(base) = 0")
            lam = 1.0 / bnorm
        sol = self.scaled(lam)
        beta = sol.beta.copy()
        B = sol.B.copy()
        for l in n_indices:
            c = beta[l][base]
            beta[l] = beta[l] - c
            B += c * triple.V[:, l]
        return replace(sol, beta=beta, B=B)


def _joint_coef_factory(provider, class_map: ClassMap, D: int, R: int):
    """Coefficients of the joint system's coupled block along an axis of
    class ca, state (B_ca, phi, gamma, beta): dB_ca = h[axis, ca] B_ca, and
    (phi, gamma, beta) move like the frame's (position, X, xi) with B_ca
    added to dgamma_axis.  No other B_m enters (phi, gamma, beta)."""
    cls = class_map.classes
    S = 2 + D + R

    def factory(axis: int, idx: np.ndarray):
        ca = cls[axis]

        def assemble(C: dict) -> np.ndarray:
            A = np.zeros(C["v"].shape[1:] + (S, S))
            A[..., 0, 0] = C["h"][axis, ca]
            _frame_block(A, 1, C, axis, ca)
            A[..., 2 + axis, 0] = 1.0
            return A

        return provider.line_eval(axis, idx), assemble

    return factory


def _solution_from_states(triple: Triple, states: np.ndarray, reports: dict, clean=None) -> RibaucourSolution:
    """The solution of swept joint states; its mask drops nodes whose
    states are unbounded, where phi vanishes, or (clean, when not None) that
    the sweep computed from masked nodes' coefficients."""
    g = triple.grid
    D, k, R = g.ndim, triple.n_classes, triple.n_normals
    move = np.moveaxis(states, -1, 0)
    B = move[:k]
    phi = move[k]
    gamma = move[k + 1 : k + 1 + D]
    beta = move[k + 1 + D :]
    good = _bounded(states, axis=-1)
    if clean is not None:
        good &= clean
    # phi crossing zero is not fatal, but the transform is undefined there
    phi_scale = np.nanmax(np.abs(phi)) if clean is None else np.nanmax(np.abs(phi[clean]), initial=0.0)
    if phi_scale > 0:
        vanished = np.abs(phi) < 1e-12 * phi_scale
        if vanished.any() and not vanished.all():
            good &= ~vanished
            reports["phi_vanishes_fraction"] = float(vanished.mean())
    mask = None if good.all() else good
    return RibaucourSolution(grid=g, class_map=triple.class_map, phi=phi.copy(),
                             gamma=gamma.copy(), beta=beta.copy(), B=B.copy(),
                             mask=mask, reports=reports)


def solve_linear(triple: Triple, B0, phi0: float, gamma0, beta0,
                 substeps: int = 12, order=None, check_alternate: bool = True) -> RibaucourSolution:
    """Integrate the joint (B, phi, gamma, beta) system from base-node data.

    B is co-integrated from B0 so every stage evaluation is consistent; the
    solution is linear in (B0, phi0, gamma0, beta0).  The report carries the
    relative disagreement of the two sweep orders and a finite-difference
    residual of the normal-gradient constraint on the solved fields.
    """
    g = triple.grid
    D, k, R = g.ndim, triple.n_classes, triple.n_normals
    B0 = np.zeros(k) if B0 is None else np.asarray(B0, dtype=float)
    gamma0 = np.zeros(D) if gamma0 is None else np.asarray(gamma0, dtype=float)
    beta0 = np.zeros(R) if beta0 is None else np.asarray(beta0, dtype=float)
    if B0.shape != (k,) or gamma0.shape != (D,) or beta0.shape != (R,):
        raise DimensionMismatch("seed shapes must be (k,), (D,), (R,)")
    state0 = np.concatenate([B0, [float(phi0)], gamma0, beta0])[:, None]
    provider = _provider_for(triple)
    # the B block is autonomous: sweep it with the tensor system's propagator
    # columns, so that B equals solve_B's bit for bit; dense propagators cover
    # only the block that B_ca drives
    phase = _dense_phase(_joint_coef_factory(provider, triple.class_map, D, R), substeps,
                         tensor_lead=triple.class_map.classes)
    states, reports, clean = _sweep(g, state0, phase, order, check_alternate, provider.reads(substeps))
    sol = _solution_from_states(triple, states[..., 0], reports, clean)
    reports["gnorm_fd"] = _gnorm_residual(triple, sol.gamma, sol.beta, triple.valid() & sol.valid())
    return sol


def solve_B(triple: Triple, B0, substeps: int = 12, order=None,
            check_alternate: bool = True) -> RibaucourSolution:
    """Integrate d B_m / d u_j = h_{jm} B_{j'} alone.

    The B block of the joint system is autonomous, so only it is swept; the
    accompanying (phi, gamma, beta) fields are returned as zeros.
    """
    g = triple.grid
    D, k, R = g.ndim, triple.n_classes, triple.n_normals
    B0 = np.asarray(B0, dtype=float)
    if B0.shape != (k,):
        raise DimensionMismatch("B seed shape must be (k,)")
    provider = _provider_for(triple)
    phase = _tensor_phase(provider.h_row, triple.class_map.classes, substeps)
    states, reports, clean = _sweep(g, B0[:, None], phase, order, check_alternate, provider.reads(substeps))
    B = np.moveaxis(states[..., 0], -1, 0)
    good = _bounded(B, axis=0)
    if clean is not None:
        good &= clean
    return RibaucourSolution(grid=g, class_map=triple.class_map, phi=np.zeros(g.shape),
                             gamma=np.zeros((D,) + g.shape), beta=np.zeros((R,) + g.shape),
                             B=B.copy(), mask=None if good.all() else good, reports=reports)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")     # masked nodes may hold anything
def _gnorm_residual(triple: Triple, gamma: np.ndarray, beta: np.ndarray, valid: np.ndarray) -> float:
    """fd residual of gamma_j V_{j'}^r / v_{j'} + X_j(beta_r) = 0, the
    largest over the nodes `_fd_nodes` checks in the `valid` node set."""
    g = triple.grid
    cls = triple.class_map.classes
    nodes = _fd_nodes(g, valid)
    worst = 0.0
    for j in range(g.ndim):
        vj = triple.v[cls[j]]
        for r in range(triple.n_normals):
            db = fd_axis(beta[r], g.spacings[j], j, 1)
            worst = _worst((gamma[j] * triple.V[cls[j], r] + db) / vj, nodes, worst)
    return worst


# ---------------------------------------------------------------------------
# frame reconstruction


def reconstruct_frame(triple: Triple, frame0=None, base_point=None,
                      substeps: int = 12, order=None,
                      check_alternate: bool = True) -> ImmersionSample:
    """Integrate the moving-frame system of a validated triple.

    frame0 is a tuple (X0 (D, N), xi0 (R, N)) of orthonormal columns spanning
    tangent and normal directions at the base node; base_point defaults to
    the origin of the ambient space R^N with N = D + R ... (D tangent + R
    normal directions).  On a node-valued triple with masked nodes, the
    sample's mask also drops every node whose sweep read a masked node's
    values through the interpolation stencils (as `solve_linear`'s does).
    Unless the Gram defect of the integrated frame at the sample's valid
    nodes is at most _GRAM_TOL, FrameDrift is raised (no silent
    re-orthonormalization).
    """
    g = triple.grid
    D, k, R = g.ndim, triple.n_classes, triple.n_normals
    if frame0 is None:
        N = D + R
        eye = np.eye(N)
        frame0 = (eye[:D], eye[D:])
    X0, xi0 = np.asarray(frame0[0], dtype=float), np.asarray(frame0[1], dtype=float)
    N = X0.shape[1]
    if xi0.shape != (R, N) or X0.shape != (D, N):
        raise DimensionMismatch("frame0 must be (X0 (D,N), xi0 (R,N))")
    F = np.vstack([X0, xi0])
    if np.abs(F @ F.T - np.eye(D + R)).max() > 1e-10:
        raise ValueError("frame0 is not orthonormal")
    base_point = np.zeros(N) if base_point is None else np.asarray(base_point, dtype=float)

    cls = triple.class_map.classes
    provider = _provider_for(triple)

    def factory(axis: int, idx: np.ndarray):
        def assemble(C: dict) -> np.ndarray:
            A = np.zeros(C["v"].shape[1:] + (1 + D + R, 1 + D + R))
            _frame_block(A, 0, C, axis, cls[axis])
            return A

        return provider.line_eval(axis, idx), assemble

    # state (1 + D + R, N): position, tangents and normals as rows
    state0 = np.concatenate([base_point[None], X0, xi0])
    Z, reports, clean = _sweep(g, state0, _dense_phase(factory, substeps), order, check_alternate,
                               provider.reads(substeps))
    positions = Z[..., 0, :]
    X = np.moveaxis(Z[..., 1 : 1 + D, :], -2, 0)
    xi = np.moveaxis(Z[..., 1 + D :, :], -2, 0)
    mask = triple.mask if clean is None else triple.valid() & clean

    defect = _gram_defect((X, xi), triple.valid() if mask is None else mask)
    if not defect <= _GRAM_TOL:
        raise FrameDrift(f"Gram defect {defect:.3e} exceeds tol {_GRAM_TOL:g}")

    return ImmersionSample(g, positions, tangents=X.copy(), normals=xi.copy(), triple=triple,
                           mask=mask, reports={"gram_defect": float(defect), **reports})


# ---------------------------------------------------------------------------
# cumulative quadrature (4th order, uniform nodes)

_CUM_INNER = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
_CUM_FIRST = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0


def cumulative_integral(y: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """Cumulative integral from the first node, 4th order on uniform nodes.

    Each interval integrates the cubic through its four nearest nodes
    (Adams-Moulton style end corrections); exact for cubic polynomials.
    """
    y = np.asarray(y, dtype=float)
    y = np.moveaxis(y, axis, -1)
    n = y.shape[-1]
    if n < 4:
        raise UnsupportedGrid("cumulative integral needs >= 4 nodes")
    inc = np.empty(y.shape[:-1] + (n - 1,))
    inc[..., 0] = y[..., :4] @ _CUM_FIRST
    stack = np.stack([y[..., m : m + n - 3] for m in range(4)], axis=-1)
    inc[..., 1 : n - 2] = stack @ _CUM_INNER
    inc[..., n - 2] = y[..., -4:] @ _CUM_FIRST[::-1]
    out = np.concatenate([np.zeros(y.shape[:-1] + (1,)), np.cumsum(inc, axis=-1)], axis=-1)
    return np.moveaxis(out * h, -1, axis)


# ---------------------------------------------------------------------------
# triple integration from per-axis data (Goursat march)


@dataclass
class TripleAxisData:
    """Per-axis free data for the net system.

    h_rows[j] is a callable t -> (k, ...) giving the rotation-coefficient row
    h_{j, m} on the axis-j line through the base node; v0 and V0 are the
    base-node values of v_m and V_m^r.
    """

    v0: np.ndarray
    V0: np.ndarray
    h_rows: tuple

    def __post_init__(self):
        self.v0 = np.asarray(self.v0, dtype=float)
        self.V0 = np.asarray(self.V0, dtype=float)


def axis_data_from_triple(triple: Triple) -> TripleAxisData:
    """Extract per-axis data from a triple: the base-node values of v and V,
    and the h-rows on the axis lines through the base node as read by the
    triple's coefficient provider (its analytic callables, else cubic
    Lagrange interpolation of the node values along each axis)."""
    g = triple.grid
    provider = _provider_for(triple)
    base_line = np.zeros((1, g.ndim), dtype=int)

    def row(j):
        evaluate = provider.h_row(j, base_line)

        def fn(t):
            t = np.asarray(t, dtype=float)
            return evaluate(t.reshape(-1)).reshape((triple.n_classes,) + t.shape)
        return fn

    base = (0,) * g.ndim
    return TripleAxisData(v0=triple.v[(slice(None),) + base].copy(),
                          V0=triple.V[(slice(None), slice(None)) + base].copy(),
                          h_rows=tuple(row(j) for j in range(g.ndim)))


def _march_axis0(data: TripleAxisData, grid: TensorGrid, class_map: ClassMap, substeps: int):
    """March (v, V) along the axis-0 line through the base node, a 1-d
    tensor-system sweep with state columns [v | V]; returns (v (k, n),
    V (k, R, n), h row (k, n)) on that line."""
    k = class_map.n_classes
    hrow = data.h_rows[0]
    line = TensorGrid(grid.shape[:1], grid.spacings[:1], grid.origins[:1])

    def h_at(axis, idx):
        return lambda t: np.reshape(hrow(t), (k, t.shape[0], 1))

    phase = _tensor_phase(h_at, class_map.classes, substeps)
    states = _sweep_total(line, np.column_stack([data.v0, data.V0]), phase, (0,))
    coords = line.axis_coords(0)
    return (states[:, :, 0].T.copy(), np.moveaxis(states[:, :, 1:], 0, -1).copy(),
            np.reshape(hrow(coords), (k, coords.shape[0])))


def _quadrature_matrices(n: int, h: float):
    """`cumulative_integral` on n uniform nodes of spacing h as matrices: Q
    (n, n), with Q @ y = cumulative_integral(y, h), and [Q^T; 1] (n + 1, n),
    which folds an additive constant into the product: [w, c] @ [Q^T; 1] =
    c + Q @ w."""
    Q = cumulative_integral(np.eye(n), h, axis=0)
    return Q, np.vstack([Q.T, np.ones(n)])


def _integrate_triple_2d(data: TripleAxisData, grid: TensorGrid, class_map: ClassMap,
                         substeps: int) -> Triple:
    """March rows along axis 1 after seeding the axis-0 base row.

    The row state is family-major, (2 + R, 2, na): v, V^0 .. V^{R-1} and
    ha = h_{0, m}, each a (2, na) block (a simple class map on a 2-d grid has
    k = 2).  Every rate is the reconstructed hb = h_{1, m} (2, na) times the
    class-cb row of its own family.  hb at the axis-1 data (c_ca, c_cb) of a
    stage time is

        hb[ca] = c_ca exp(Q ha[ca]),      hb[cb] = [hb[ca] ha[cb], c_cb] @ [Q^T; 1],

    with Q the cumulative quadrature matrix (`_quadrature_matrices`): the
    datum c_cb enters the quadrature's product as one more term, against a
    row of ones.  Each cell takes `substeps` classical RK4 steps, and each
    stage is one straight run of calls into buffers allocated once per
    march: Q ha[ca], its exponential times c_ca into hb[ca], the weights
    hb[ca] ha[cb] of the folded row, its product into hb[cb], then the rate;
    k2 and k3 share their stage data.  The RK4 sum k1 + 2 k2 + 2 k3 + k4 is
    formed elementwise in the order of the formula, not by a BLAS product,
    so that its rounding does not depend on the BLAS kernel.
    """
    k = class_map.n_classes
    R = data.V0.shape[1]
    ca, cb = class_map.classes
    na, nb = grid.shape
    ub = grid.axis_coords(1)
    row_v, row_V, row_ha = _march_axis0(data, grid, class_map, substeps)
    # the axis-1 data of each class at every stage time, read as floats by
    # cell and stage index
    T, hs = _stage_times(ub, substeps)
    hb_stages = np.reshape(data.h_rows[1](T.reshape(-1)), (k,) + T.shape)
    stage_ca, stage_cb = hb_stages[ca].tolist(), hb_stages[cb].tolist()
    hb_nodes = np.reshape(data.h_rows[1](ub), (k, nb))
    # np.dot makes the BLAS calls of @ with less overhead
    Q, QT1 = _quadrature_matrices(na, grid.spacings[0])

    v = np.empty((k, na, nb))
    V = np.empty((k, R, na, nb))
    h = np.empty((2, k, na, nb))

    Y = np.empty((2 + R, k, na))
    Y[0], Y[1 : 1 + R], Y[1 + R] = row_v, np.moveaxis(row_V, 1, 0), row_ha
    # K1 holds k1 and then k3, K2 holds k2 and then k4, X the stage arguments
    # and S the sum k1 + 2 k2 + 2 k3 + k4; the additions run in the order of
    # the formula (an IEEE sum does not depend on the order of its operands)
    K1, K2, X, S = (np.empty_like(Y) for _ in range(4))
    hb, wc = np.empty((k, na)), np.empty(na + 1)
    hb_ca, hb_cb, w = hb[ca], hb[cb], wc[:na]
    # the rows a rate reads: ha[ca], ha[cb] and the class-cb rows of every family
    Y_ca, Y_cb, Y_rows = Y[1 + R, ca], Y[1 + R, cb], Y[:, cb : cb + 1]
    X_ca, X_cb, X_rows = X[1 + R, ca], X[1 + R, cb], X[:, cb : cb + 1]

    def store(j):
        v[:, :, j] = Y[0]
        V[:, :, :, j] = np.moveaxis(Y[1 : 1 + R], 0, 1)
        h[0, :, :, j] = Y[1 + R]
        np.dot(Q, Y_ca, out=hb_ca)
        np.exp(hb_ca, out=hb_ca)
        np.multiply(hb_ca, hb_nodes[ca, j], out=hb_ca)
        np.multiply(hb_ca, Y_cb, out=w)
        wc[na] = hb_nodes[cb, j]
        np.dot(wc, QT1, out=hb_cb)
        h[1, :, :, j] = hb

    store(0)
    for j in range(1, nb):
        step = hs[j - 1]
        half, sixth = 0.5 * step, step / 6.0
        cell_ca, cell_cb = stage_ca[j - 1], stage_cb[j - 1]
        for i in range(0, 2 * substeps, 2):
            c_ca, c_cb = cell_ca[i], cell_cb[i]                      # k1
            np.dot(Q, Y_ca, out=hb_ca)
            np.exp(hb_ca, out=hb_ca)
            hb_ca *= c_ca
            np.multiply(hb_ca, Y_cb, out=w)
            wc[na] = c_cb
            np.dot(wc, QT1, out=hb_cb)
            np.multiply(hb, Y_rows, out=K1)
            np.multiply(half, K1, out=X)
            X += Y
            c_ca, c_cb = cell_ca[i + 1], cell_cb[i + 1]              # k2
            np.dot(Q, X_ca, out=hb_ca)
            np.exp(hb_ca, out=hb_ca)
            hb_ca *= c_ca
            np.multiply(hb_ca, X_cb, out=w)
            wc[na] = c_cb
            np.dot(wc, QT1, out=hb_cb)
            np.multiply(hb, X_rows, out=K2)
            np.multiply(2.0, K2, out=S)
            S += K1
            np.multiply(half, K2, out=X)
            X += Y
            np.dot(Q, X_ca, out=hb_ca)                               # k3, at k2's time
            np.exp(hb_ca, out=hb_ca)
            hb_ca *= c_ca
            np.multiply(hb_ca, X_cb, out=w)
            np.dot(wc, QT1, out=hb_cb)
            np.multiply(hb, X_rows, out=K1)
            np.multiply(step, K1, out=X)
            X += Y
            K1 *= 2.0
            S += K1
            c_ca, c_cb = cell_ca[i + 2], cell_cb[i + 2]              # k4
            np.dot(Q, X_ca, out=hb_ca)
            np.exp(hb_ca, out=hb_ca)
            hb_ca *= c_ca
            np.multiply(hb_ca, X_cb, out=w)
            wc[na] = c_cb
            np.dot(wc, QT1, out=hb_cb)
            np.multiply(hb, X_rows, out=K2)
            S += K2
            S *= sixth
            Y += S
        store(j)
    return Triple(grid, class_map, v, h, V)


def _transpose_triple(t: Triple) -> Triple:
    grid = TensorGrid((t.grid.shape[1], t.grid.shape[0]),
                      (t.grid.spacings[1], t.grid.spacings[0]),
                      (t.grid.origins[1], t.grid.origins[0]))
    cm = ClassMap((t.class_map.classes[1], t.class_map.classes[0]))
    v = np.swapaxes(t.v, 1, 2)
    V = np.swapaxes(t.V, 2, 3)
    h = np.stack([np.swapaxes(t.h[1], 1, 2), np.swapaxes(t.h[0], 1, 2)])
    return Triple(grid, cm, v, h, V)


def integrate_triple(data: TripleAxisData, grid: TensorGrid, class_map: ClassMap,
                     substeps: int = 12, sweep_order=(0, 1)):
    """Propagate a triple from per-axis data; returns (Triple, ResidualReport).

    Supports 1-d and 2-d grids with one coordinate per class (higher-
    dimensional nets are produced by the transform recursion, not by direct
    integration).  The report carries the residuals of the net system on the
    result at `validate_triple`'s default tolerance; equation (ii) is the
    mixed-partial compatibility of the supplied axis data and is not
    enforced by the march.
    """
    if not class_map.is_simple():
        raise UnsupportedGrid("direct triple integration requires one coordinate per class")
    if grid.ndim == 1:
        v, V, h = _march_axis0(data, grid, class_map, substeps)
        t = Triple(grid, class_map, v, h[None], V)
    elif grid.ndim == 2:
        if tuple(sweep_order) == (0, 1):
            t = _integrate_triple_2d(data, grid, class_map, substeps)
        elif tuple(sweep_order) == (1, 0):
            grid_t = TensorGrid((grid.shape[1], grid.shape[0]),
                                (grid.spacings[1], grid.spacings[0]),
                                (grid.origins[1], grid.origins[0]))
            cm_t = ClassMap((class_map.classes[1], class_map.classes[0]))
            data_t = TripleAxisData(v0=data.v0, V0=data.V0, h_rows=(data.h_rows[1], data.h_rows[0]))
            t = _transpose_triple(_integrate_triple_2d(data_t, grid_t, cm_t, substeps))
        else:
            raise ValueError("sweep_order must be (0, 1) or (1, 0)")
    else:
        raise UnsupportedGrid("triple integration supports 1-d and 2-d grids; "
                              "higher-dimensional nets come from the transform recursion")
    good = _bounded(t.v, axis=0)
    if not good.all():
        t.mask = good
    return t, validate_triple(t)
