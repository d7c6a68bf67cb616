"""Declarative pipeline runner: seed -> transforms -> recursion -> verify -> export.

The pipeline document is a single JSON object (schema dupin/pipeline@1) with
a named seed and an ordered step list.  Unknown keys are rejected so a spec
always means the same thing; every artifact embeds the spec hash and the
executed chain for provenance.  A nonzero exit code signals a failed gate.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys

import numpy as np

from .errors import DupinError, OutputError, ParseError, StepFailure
from .integrable import solve_linear
from .net import ParallelNormalSubbundle, validate_triple
from .moebius import (
    Homothety,
    Inversion,
    Orthogonal,
    ParallelTranslate,
    Translate,
    apply_ltransform,
    generalized_cylinder,
    generalized_rotation,
    generalized_tube,
)
from .ribaucour import (dupin_step, inversion_w, ltrivial_w, n_ribaucour_transform, parallel_w,
                        ribaucour_transform)
from .seeds import SEED_BUILDERS
from . import serialize
from .verify import sf_report

_TRANSFORM_KEYS = {
    "translate": {"kind", "u"},
    "orthogonal": {"kind", "matrix"},
    "homothety": {"kind", "k"},
    "inversion": {"kind"},
    "parallel": {"kind", "coeffs"},
}

_W_KEYS = {
    "inversion": {"kind", "P0", "r"},
    "parallel": {"kind", "coeffs"},
    "ltrivial": {"kind", "a", "v0", "delta", "c"},
    "solve": {"kind", "B0", "phi0", "gamma0", "beta0", "substeps"},
}

_STEP_KEYS = {
    "ltransform": {"op", "kind", "u", "matrix", "k", "coeffs"},
    "ribaucour": {"op", "w"},
    "n_ribaucour": {"op", "n_indices", "y", "w"},
    "recursion": {"op", "n_indices", "y", "B0", "phi0", "gamma0", "beta0", "substeps", "gates"},
    "construct": {"op", "kind", "n_indices", "a", "n_angle", "angle_range", "eps", "fiber", "e"},
    "verify": {"op", "gates"},
    "export": {"op", "format", "path", "slice", "coords"},
}

_PIPE_KEYS = {"schema", "seed", "steps", "tolerances", "out"}

_GATE_KEYS = {"k", "max_dupin_residual", "holonomic", "c_le_k_minus_1"}
# a recursion step's gates on the linear solve's health numbers, by the number they bound
_HEALTH_GATES = {"max_path_independence": "path_independence", "max_gnorm_fd": "gnorm_fd"}

_VALIDATE_TOL = 1e-6        # default largest residual of a recursion step's new net


def _check_keys(doc: dict, allowed: set, where: str):
    if not isinstance(doc, dict):
        raise ParseError(f"{where} is not a JSON object")
    extra = set(doc) - allowed
    if extra:
        raise ParseError(f"unknown keys {sorted(extra)} in {where}")


def _is_number(x) -> bool:
    """A finite JSON number (not a bool)."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _numbers(val, where: str, key: str, n: int | None = None) -> list:
    """A list of finite numbers, of length n when n is given."""
    if not (isinstance(val, list) and all(map(_is_number, val)) and n in (None, len(val))):
        raise ParseError(f"{where}: {key!r} must be a list of "
                         f"{'' if n is None else f'{n} '}finite numbers")
    return val


def _number(val, where: str, key: str) -> float:
    if not _is_number(val):
        raise ParseError(f"{where}: {key!r} must be a finite number")
    return float(val)


def _int_at_least(val, where: str, key: str, low: int) -> int:
    if not (type(val) is int and val >= low):
        raise ParseError(f"{where}: {key!r} must be an integer >= {low}")
    return val


def _normal_indices(val, where: str, n_normals: int) -> tuple:
    if not (isinstance(val, list) and val
            and all(type(i) is int and 0 <= i < n_normals for i in val)):
        raise ParseError(f"{where}: 'n_indices' must be a non-empty list of normal indices "
                         f"below {n_normals}")
    return tuple(val)


def _build_transform(doc: dict):
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in _TRANSFORM_KEYS:
        raise ParseError(f"unknown transform kind {kind!r}")
    where = f"transform {kind}"
    _check_keys(doc, _TRANSFORM_KEYS[kind], where)
    try:
        if kind == "translate":
            return Translate(_numbers(doc.get("u"), where, "u"))
        if kind == "orthogonal":
            rows = doc.get("matrix")
            if not (isinstance(rows, list) and rows
                    and all(isinstance(row, list) and len(row) == len(rows) for row in rows)):
                raise ParseError(f"{where}: 'matrix' must be a square list of rows")
            return Orthogonal(np.asarray([_numbers(row, where, "matrix") for row in rows], dtype=float))
        if kind == "homothety":
            return Homothety(_number(doc.get("k"), where, "k"))
        if kind == "inversion":
            return Inversion()
        return ParallelTranslate(_numbers(doc.get("coeffs"), where, "coeffs"))
    except ValueError as e:         # a non-orthogonal matrix or a zero ratio
        raise ParseError(f"{where}: {e}") from None


def _build_w(doc: dict, sample):
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in _W_KEYS:
        raise ParseError(f"unknown solution kind {kind!r}")
    where = f"w {kind}"
    _check_keys(doc, _W_KEYS[kind], where)
    N, R = sample.ambient_dim, sample.n_normals
    if kind == "inversion":
        return inversion_w(sample, _numbers(doc.get("P0"), where, "P0", N),
                           _number(doc.get("r"), where, "r"))
    if kind == "parallel":
        return parallel_w(sample, _numbers(doc.get("coeffs"), where, "coeffs", R))
    if kind == "ltrivial":
        delta = doc.get("delta")
        return ltrivial_w(sample, _number(doc.get("a"), where, "a"),
                          _numbers(doc.get("v0"), where, "v0", N),
                          None if delta is None else _numbers(delta, where, "delta", R),
                          _number(doc.get("c"), where, "c"))
    return solve_linear(sample.triple, **_solve_args(doc, where))


def _solve_args(doc: dict, where: str) -> dict:
    """Validated base-node data and substeps of `solve_linear` in a step or
    solution document (lengths are checked by `solve_linear`)."""
    args = {"phi0": _number(doc.get("phi0", 1.0), where, "phi0"),
            "substeps": _int_at_least(doc.get("substeps", 12), where, "substeps", 1)}
    for key in ("B0", "gamma0", "beta0"):
        val = args[key] = doc.get(key)
        if not (val is None or (isinstance(val, list) and all(map(_is_number, val)))):
            raise ParseError(f"{where}: {key!r} must be a list of finite numbers or null")
    return args


def _fiber(val, where: str, rank: int):
    """A fiber grid document, or one list of finite coefficients per subbundle index."""
    if isinstance(val, dict):
        return serialize.grid_from_dict(val)
    if not (isinstance(val, list) and len(val) == rank
            and all(isinstance(x, list) and x and all(map(_is_number, x)) for x in val)):
        raise ParseError(f"{where}: 'fiber' must be a grid document or a list of {rank} "
                         f"non-empty lists of finite numbers")
    return [np.asarray(x, dtype=float) for x in val]


def _construct(step: dict, where: str, sample):
    kind = step.get("kind")
    if kind not in ("tube", "cylinder", "rotation"):
        raise ParseError(f"unknown construct kind {kind!r}")
    sub = ParallelNormalSubbundle(_normal_indices(step.get("n_indices"), where, sample.n_normals))
    try:
        if kind == "tube":
            angle_range = _numbers(step.get("angle_range", [0.0, 2 * np.pi]), where, "angle_range", 2)
            return generalized_tube(sample, sub, _number(step.get("a"), where, "a"),
                                    n_angle=_int_at_least(step.get("n_angle", 21), where, "n_angle", 2),
                                    angle_range=tuple(angle_range))
        fiber = _fiber(step.get("fiber"), where, sub.rank)
        if kind == "cylinder":
            eps = step.get("eps", 0)
            if not (type(eps) is int and eps in (-1, 0, 1)):
                raise ParseError(f"{where}: 'eps' must be -1, 0 or 1")
            return generalized_cylinder(sample, sub, eps, fiber)
        return generalized_rotation(sample, sub, _numbers(step.get("e"), where, "e", sample.ambient_dim),
                                    fiber)
    except ValueError as e:         # a zero tube radius, an empty angle range, a non-unit axis
        raise ParseError(f"{where}: {e}") from None


def _mesh_slice(sl, shape: tuple, where: str):
    """A mesh slice: None, or one node index or None (a free axis) per grid axis."""
    if not (sl is None or (isinstance(sl, list) and len(sl) == len(shape) and all(
            v is None or (type(v) is int and 0 <= v < n) for v, n in zip(sl, shape)))):
        raise ParseError(f"{where}: 'slice' must be a list of {len(shape)} node indices or nulls")
    return sl


def _export_args(step: dict, where: str, sample) -> tuple:
    """Validated path, mesh slice and coordinate indices of an export step."""
    path = step.get("path")
    if not (isinstance(path, str) and path):
        raise ParseError(f"{where}: 'path' must be a non-empty string")
    coords = step.get("coords")
    if not (coords is None or (isinstance(coords, list) and len(coords) == 3 and all(
            type(c) is int and c >= 0 for c in coords))):
        raise ParseError(f"{where}: 'coords' must be a list of 3 coordinate indices")
    return path, _mesh_slice(step.get("slice"), sample.grid.shape, where), coords


def _export(sample, fmt, path: str, sl, coords, provenance: dict | None, unknown: str) -> tuple:
    """Write sample to path as obj or ply (the mesh of slice sl in the
    coordinates coords), csv or json (with provenance): the summary key of
    the writer's report and the report, (None, {}) for json.  Any other
    format raises ParseError(f"{unknown} {fmt!r}")."""
    if fmt in ("obj", "ply"):
        write = serialize.export_obj if fmt == "obj" else serialize.export_ply
        return "mesh", write(sample, path, sl, coords)
    if fmt == "csv":
        return "csv", serialize.export_csv(sample, path)
    if fmt == "json":
        serialize.dump_json(serialize.sample_to_dict(sample, provenance=provenance), path)
        return None, {}
    raise ParseError(f"{unknown} {fmt!r}")


def _build_seed(doc: dict):
    _check_keys(doc, {"kind", "params"}, "seed")
    kind = doc.get("kind")
    if kind not in SEED_BUILDERS:
        raise ParseError(f"unknown seed kind {kind!r}; known: {sorted(SEED_BUILDERS)}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ParseError("seed params is not a JSON object")
    params = {key: tuple(val) if isinstance(val, list) else val for key, val in params.items()}
    builder = SEED_BUILDERS[kind]
    signature = inspect.signature(builder)
    try:
        signature.bind(**params)
    except TypeError as e:
        raise ParseError(f"seed {kind}: {e}") from None
    for key, val in params.items():
        default = signature.parameters[key].default
        if not _like(val, default):
            raise ParseError(f"seed {kind}: {key!r} must be {_seed_kind(default)}")
    try:
        return builder(**params)
    except ValueError as e:         # values out of range: an empty u_range, a short ambient
        raise ParseError(f"seed {kind}: {e}") from None


def _like(val, default) -> bool:
    """A seed parameter value of the kind of the builder's default: an
    integer >= 2 (node counts, dimensions), a finite number, a tuple of the
    default's length, or (default None) a tuple of finite numbers."""
    if isinstance(default, int):
        return type(val) is int and val >= 2
    if isinstance(default, float):
        return _is_number(val)
    if isinstance(default, tuple):
        return isinstance(val, tuple) and len(val) == len(default) and all(map(_like, val, default))
    return isinstance(val, tuple) and all(map(_is_number, val))


def _seed_kind(default) -> str:
    if isinstance(default, tuple):
        return f"a list of {len(default)} {'integers >= 2' if type(default[0]) is int else 'finite numbers'}"
    return {int: "an integer >= 2", float: "a finite number"}.get(type(default), "a list of finite numbers")


def _recursion_args(step: dict, where: str, n_normals: int) -> dict:
    """Validated `dupin_step` keyword arguments of a recursion step document
    for a sample with n_normals parallel normals."""
    return {"n_indices": _normal_indices(step.get("n_indices"), where, n_normals),
            "y_grid": serialize.grid_from_dict(step.get("y")), **_solve_args(step, where)}


def _gates(val, where: str, health: bool = False) -> dict:
    """A validated gates document (absent: no gates): the known gates, with
    an integer k, finite bounds and true/false flags; health admits a
    recursion step's bounds on its solve's health numbers."""
    if val is None:
        return {}
    _check_keys(val, _GATE_KEYS | (set(_HEALTH_GATES) if health else set()), f"{where} gates")
    if "k" in val:
        _int_at_least(val["k"], where, "k", 1)
    for key in ("max_dupin_residual", *_HEALTH_GATES):
        if key in val:
            _number(val[key], where, key)
    for key in ("holonomic", "c_le_k_minus_1"):
        if key in val and type(val[key]) is not bool:
            raise ParseError(f"{where}: {key!r} must be true or false")
    return val


def _verify_gates(sample, gates: dict):
    """The oracle's report on sample and the failures of the validated gates."""
    rep = sf_report(sample)
    failures = []
    if "k" in gates and rep.k != gates["k"]:
        failures.append(f"k = {rep.k}, expected {gates['k']}")
    if "max_dupin_residual" in gates:
        worst = float(np.max(rep.dupin_residuals))            # NaN if any is NaN
        if not worst <= gates["max_dupin_residual"]:
            failures.append(f"dupin residual {worst:.3e} > {gates['max_dupin_residual']}")
    if gates.get("holonomic") and not rep.holonomic:
        failures.append("patch is not holonomic")
    if gates.get("c_le_k_minus_1") and not rep.checks.get("c_le_k_minus_1", True):
        failures.append("conformal codimension bound violated")
    return rep, failures


def _recursion_step(sample, step: dict, where: str, tol: float, info: dict):
    """A recursion step document run on sample: `dupin_step`, then
    `validate_triple` of the new net at tol, then the step's gates on the new
    sample.  Records in info the residuals, the solve's health numbers
    (path_independence, gnorm_fd and, where set, phi_vanishes_fraction), the
    regularity gate's min_gap, the transform's masked fraction and, when
    the step has oracle gates, their report; returns the result and the
    failures, none when the step passed.  The health gates bound the
    recorded numbers; a curve's solve has one sweep order, so a
    path-independence gate on a 1-d base is refused before the solve."""
    gates = _gates(step.get("gates"), where, health=True)
    if "max_path_independence" in gates and sample.grid.ndim < 2:
        raise ParseError(f"{where}: 'max_path_independence' needs a base of two or more axes "
                         f"(a curve's solve has one sweep order)")
    res = dupin_step(sample, **_recursion_args(step, where, sample.n_normals))
    rep = validate_triple(res.triple, tol=tol)
    info["validate"] = dict(rep.residuals)
    info.update({key: float(value) for key, value in res.w.reports.items()})
    info["min_gap"] = float(res.predicates["min_gap"])
    info["masked_fraction"] = float(1.0 - res.regular.mean())
    if not rep.passed:
        return res, [f"transformed net fails validation: {rep}"]
    failures = []
    for key, name in _HEALTH_GATES.items():
        value = info.get(name, math.nan)        # an absent number fails, as NaN does
        if key in gates and not value <= gates[key]:
            failures.append(f"{name} {value:.3e} > {gates[key]}")
    oracle = {key: val for key, val in gates.items() if key in _GATE_KEYS}
    if oracle:
        vrep, more = _verify_gates(res.sample, oracle)
        info["verify"] = vrep.to_dict()
        failures += more
    return res, failures


def run_pipeline(spec: dict, outdir: str) -> dict:
    """Execute a pipeline document; returns the summary (also written to disk)."""
    _check_keys(spec, _PIPE_KEYS, "pipeline")
    if spec.get("schema") != serialize.PIPELINE_SCHEMA:
        raise ParseError(f"expected schema {serialize.PIPELINE_SCHEMA}")
    tolerances = spec.get("tolerances", {})
    _check_keys(tolerances, {"validate"}, "tolerances")
    tol = _number(tolerances.get("validate", _VALIDATE_TOL), "tolerances", "validate")
    steps = spec.get("steps", [])
    if not isinstance(steps, list):
        raise ParseError("pipeline steps is not a JSON list")
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as e:            # a file in the way, no permission
        raise OutputError(f"cannot create {outdir} ({e.strerror or e})") from None
    h = serialize.spec_hash(spec)
    chain = []
    summary = {"spec_sha256": h, "steps": [], "ok": True}

    sample = _build_seed(spec["seed"])
    chain.append({"seed": spec["seed"]})
    serialize.dump_json(serialize.sample_to_dict(sample, provenance={"spec_sha256": h, "chain": list(chain)}),
                        os.path.join(outdir, "step_00_seed.json"))

    for i, step in enumerate(steps, start=1):
        if not isinstance(step, dict):
            raise ParseError(f"step {i} is not a JSON object")
        op = step.get("op")
        if op not in _STEP_KEYS:
            raise ParseError(f"unknown step op {op!r}")
        _check_keys(step, _STEP_KEYS[op], f"step {i} ({op})")
        if op in ("ribaucour", "n_ribaucour", "recursion") and not (
                sample.has_frames() and sample.triple is not None):
            raise ParseError(f"step {i} ({op}): needs a sample with frames and a net triple "
                             f"(a construct step leaves positions only)")
        info = {"op": op}
        try:
            if op == "ltransform":
                T = _build_transform({k: v for k, v in step.items() if k != "op"})
                sample = apply_ltransform(sample, T)
            elif op == "ribaucour":
                w = _build_w(step.get("w"), sample)
                sample, _jet = ribaucour_transform(sample, w)
            elif op == "recursion":
                res, failures = _recursion_step(sample, step, f"step {i} (recursion)", tol, info)
                if failures:
                    raise StepFailure(i, "; ".join(failures))
                sample = res.sample
            elif op == "construct":
                sample = _construct(step, f"step {i} (construct)", sample)
            elif op == "n_ribaucour":
                n_indices = _normal_indices(step.get("n_indices"), f"step {i} (n_ribaucour)",
                                            sample.n_normals)
                ygrid = serialize.grid_from_dict(step.get("y"))
                w = _build_w(step.get("w"), sample).canonical(n_indices, sample.triple)
                res = n_ribaucour_transform(sample, ParallelNormalSubbundle(n_indices), w, ygrid)
                sample = res.sample
            elif op == "verify":
                rep, failures = _verify_gates(sample, _gates(step.get("gates"), f"step {i} (verify)"))
                info["report"] = rep.to_dict()
                serialize.dump_json(info["report"], os.path.join(outdir, f"step_{i:02d}_verify.json"))
                serialize.residual_csv(rep.rows(), os.path.join(outdir, f"step_{i:02d}_verify.csv"))
                if failures:
                    raise StepFailure(i, "; ".join(failures))
            elif op == "export":
                fmt = step.get("format")
                path, sl, coords = _export_args(step, f"step {i} (export)", sample)
                key, written = _export(sample, fmt, os.path.join(outdir, path), sl, coords,
                                       {"spec_sha256": h, "chain": list(chain)}, "unknown export format")
                if key:
                    info[key] = written
        except StepFailure as e:
            info["error"] = str(e)
            summary["steps"].append(info)
            summary["ok"] = False
            summary["failed_step"] = i
            break
        chain.append({k: v for k, v in step.items()})
        summary["steps"].append(info)

    serialize.dump_json(summary, os.path.join(outdir, "summary.json"))
    final = serialize.sample_to_dict(sample, provenance={"spec_sha256": h, "chain": list(chain)})
    serialize.dump_json(final, os.path.join(outdir, "final_sample.json"))
    return summary


def _cmd_run(args) -> int:
    spec = serialize.load_json(args.spec)
    summary = run_pipeline(spec, args.out)
    if not summary["ok"]:
        print(f"pipeline failed at step {summary.get('failed_step')}", file=sys.stderr)
        return 1
    print(f"pipeline ok; artifacts in {args.out}")
    return 0


def _cmd_seed(args) -> int:
    try:
        params = json.loads(args.params) if args.params else {}
    except ValueError as e:
        raise ParseError(f"--params is not a JSON document ({e})") from None
    if args.grid:
        if not isinstance(params, dict):
            raise ParseError("seed params is not a JSON object")
        try:
            params["shape"] = tuple(int(x) for x in args.grid.split(","))
        except ValueError:
            raise ParseError(f"--grid must be comma-separated node counts, not {args.grid!r}") from None
    sample = _build_seed({"kind": args.kind, "params": params})
    serialize.dump_json(serialize.sample_to_dict(sample), args.out)
    print(f"seed '{args.kind}' written to {args.out}")
    return 0


def _cmd_transform(args) -> int:
    sample = serialize.sample_from_dict(serialize.load_json(args.input))
    chain = serialize.load_json(args.spec)
    if not isinstance(chain, list):
        raise ParseError("a transform chain document is an ordered JSON list")
    for doc in chain:
        sample = apply_ltransform(sample, _build_transform(doc))
    serialize.dump_json(serialize.sample_to_dict(sample, provenance={"chain": chain}), args.out)
    print(f"transformed sample written to {args.out}")
    return 0


def _cmd_recurse(args) -> int:
    sample = serialize.sample_from_dict(serialize.load_json(args.input))
    step = serialize.load_json(args.spec)
    _check_keys(step, _STEP_KEYS["recursion"] - {"op"}, "recursion spec")
    res, failures = _recursion_step(sample, step, "recursion spec", _VALIDATE_TOL, {})
    if failures:
        print(f"recursion failed: {'; '.join(failures)}", file=sys.stderr)
        return 1
    serialize.dump_json(serialize.sample_to_dict(res.sample), args.out)
    print(f"recursion output ({res.triple.n_classes} classes) written to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    tol = None if args.tol is None else _number(args.tol, "verify", "--tol")
    sample = serialize.sample_from_dict(serialize.load_json(args.input))
    rep = sf_report(sample)
    doc = rep.to_dict()
    serialize.dump_json(doc, args.out)
    if args.csv:
        serialize.residual_csv(rep.rows(), args.csv)
    if args.mask_report:
        print(f"masked fraction: {rep.masked_fraction:.4f}")
    worst = float(np.max(rep.dupin_residuals, initial=0.0))     # NaN if any is NaN
    print(f"k={rep.k} dupin_max={worst:.3e} holonomic={rep.holonomic} c={rep.conformal_codim}")
    if tol is not None and not worst <= tol:
        print(f"dupin residual exceeds tolerance {tol}", file=sys.stderr)
        return 1
    return 0


def _cmd_export(args) -> int:
    sample = serialize.sample_from_dict(serialize.load_json(args.input))
    sl = None
    if args.slice:
        try:
            sl = [None if tok in (":", "") else int(tok) for tok in args.slice.split(",")]
        except ValueError:
            sl = args.slice
        _mesh_slice(sl, sample.grid.shape, "export --slice")
    _, info = _export(sample, args.format, args.out, sl, None, None, "unknown format")
    print(f"exported {args.format} to {args.out} {info}")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors (an unknown option, a missing
    or malformed argument) raise ParseError, so that they end as one
    `error:` line and exit 2 like every other malformed input."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    ap = _ArgumentParser(prog="dupin", description="Dupin submanifolds by Ribaucour transformations")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a pipeline document")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("seed", help="build a named seed sample")
    p.add_argument("--kind", required=True)
    p.add_argument("--params", help="JSON object of constructor parameters")
    p.add_argument("--grid", help="comma-separated node counts")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_seed)

    p = sub.add_parser("transform", help="apply a transform-chain document to a sample")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("recurse", help="one holonomic recursion step")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_recurse)

    p = sub.add_parser("verify", help="independent diagnostics of a sample")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv")
    p.add_argument("--tol", type=float)
    p.add_argument("--mask-report", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("export", help="export a sample to obj/ply/csv/json")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--format", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--slice", help="comma-separated indices, ':' for free axes")
    p.set_defaults(fn=_cmd_export)

    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except DupinError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
