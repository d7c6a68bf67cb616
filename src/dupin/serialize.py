"""Versioned JSON schemas, residual CSV rows and mesh export.

Each field array of a sample or triple is one ASCII string: the base64 of its
raw bytes in row-major node order, little-endian float64 (``<f8``) for values
and one byte of 0/1 (``|u1``) per node for masks.  A round trip is bit-exact,
NaN payloads and signed zeros included.  Outputs are deterministic: dict keys
are written in fixed order, so identical inputs produce bit-identical files.

``dump_json`` writes the UTF-8 bytes of ``json.dump(obj, f, indent=1)`` plus a
newline.  The base64 payloads go into the file unescaped, since their
alphabet needs no escaping; the schemas are unchanged.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import math

import numpy as np

from .errors import OutputError, ParseError, UnsupportedSlice
from .net import _GRAM_TOL, ClassMap, ImmersionSample, Triple, _gram_defect
from .numerics import TensorGrid

TRIPLE_SCHEMA = "dupin/triple@2"
SAMPLE_SCHEMA = "dupin/sample@2"
PIPELINE_SCHEMA = "dupin/pipeline@1"

__all__ = [
    "TRIPLE_SCHEMA",
    "SAMPLE_SCHEMA",
    "PIPELINE_SCHEMA",
    "grid_to_dict",
    "grid_from_dict",
    "triple_to_dict",
    "triple_from_dict",
    "sample_to_dict",
    "sample_from_dict",
    "dump_json",
    "load_json",
    "spec_hash",
    "residual_csv",
    "export_obj",
    "export_ply",
    "export_csv",
]


def grid_to_dict(g: TensorGrid) -> dict:
    return {"shape": list(g.shape), "spacings": list(g.spacings), "origins": list(g.origins)}


def grid_from_dict(d: dict) -> TensorGrid:
    try:
        return TensorGrid(d["shape"], d["spacings"], d.get("origins"))
    except KeyError as e:
        raise ParseError(f"grid document missing key {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"malformed grid document ({e})") from None


# stored element types of the array fields: values and masks
_VALUES = np.dtype("<f8")
_MASK = np.dtype("|u1")


class _Payload(str):
    """The base64 text of an array field; its alphabet needs no JSON escaping."""

    __slots__ = ()


def _arr(a: np.ndarray, dtype: np.dtype = _VALUES) -> str:
    return _Payload(base64.b64encode(np.ascontiguousarray(a, dtype=dtype).tobytes()), "ascii")


def triple_to_dict(t: Triple) -> dict:
    out = {
        "schema": TRIPLE_SCHEMA,
        "grid": grid_to_dict(t.grid),
        "classes": list(t.class_map.classes),
        "n_normals": t.n_normals,
        "v": _arr(t.v),
        "h": _arr(t.h),
        "V": _arr(t.V),
    }
    if t.mask is not None:
        out["mask"] = _arr(t.mask, _MASK)
    return out


def _get(d: dict, key: str, where: str):
    try:
        return d[key]
    except KeyError:
        raise ParseError(f"{where} document missing key {key!r}") from None


def _check_schema(d, schema: str) -> None:
    got = d.get("schema") if isinstance(d, dict) else None
    if got != schema:
        raise ParseError(f"expected schema {schema}, got {got!r}")


def _count(value, key: str, where: str) -> int:
    """A non-negative integer metadata entry, or ParseError."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = -1
    if n < 0:
        raise ParseError(f"{where} field {key!r} is not a count ({value!r:.40})")
    return n


def _field(d: dict, key: str, shape: tuple, where: str,
           stored: np.dtype = _VALUES, dtype=float) -> np.ndarray:
    """A base64 entry of `stored` elements as a writable `dtype` array of the
    grid-derived shape, or ParseError."""
    s = _get(d, key, where)
    try:
        a = np.frombuffer(base64.b64decode(s, validate=True), dtype=stored)
    except (TypeError, ValueError) as e:
        raise ParseError(f"{where} field {key!r} is not a numeric array ({e})") from None
    if a.size != math.prod(shape):
        raise ParseError(f"{where} field {key!r} has {a.size} values, "
                         f"expected shape {tuple(shape)}")
    return a.reshape(shape).astype(dtype)


def _check_finite(where: str, key: str, a: np.ndarray, lead: int, mask: np.ndarray | None, D: int) -> None:
    """ParseError unless the field a (lead axes, grid axes, D of them, then
    value axes) is finite at every node that mask leaves valid."""
    if np.isfinite(a).all():
        return
    bad = ~np.isfinite(a).all(axis=tuple(range(lead)) + tuple(range(lead + D, a.ndim)))
    if mask is not None:
        bad &= mask
    if bad.any():
        raise ParseError(f"{where} has non-finite {key} at {int(bad.sum())} unmasked nodes")


def triple_from_dict(d: dict) -> Triple:
    _check_schema(d, TRIPLE_SCHEMA)
    g = grid_from_dict(_get(d, "grid", "triple"))
    classes = _get(d, "classes", "triple")
    try:
        cm = ClassMap(classes)
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"triple field 'classes' is not a class map ({e})") from None
    k, D, R = cm.n_classes, g.ndim, _count(_get(d, "n_normals", "triple"), "n_normals", "triple")
    v = _field(d, "v", (k,) + g.shape, "triple")
    h = _field(d, "h", (D, k) + g.shape, "triple")
    V = _field(d, "V", (k, R) + g.shape, "triple")
    mask = None
    if "mask" in d:
        mask = _field(d, "mask", g.shape, "triple", _MASK, bool)
    for key, a, lead in (("v", v, 1), ("h", h, 2), ("V", V, 2)):
        _check_finite("triple", key, a, lead, mask, D)
    return Triple(g, cm, v, h, V, mask=mask)


def sample_to_dict(s: ImmersionSample, provenance: dict | None = None) -> dict:
    out = {
        "schema": SAMPLE_SCHEMA,
        "grid": grid_to_dict(s.grid),
        "ambient_dim": s.ambient_dim,
        "positions": _arr(s.positions),
    }
    if s.tangents is not None:
        out["tangents"] = _arr(s.tangents)
        out["n_tangents"] = s.tangents.shape[0]
    if s.normals is not None:
        out["normals"] = _arr(s.normals)
        out["n_normals"] = s.normals.shape[0]
    if s.lame is not None:
        out["lame"] = _arr(s.lame)
    if s.sff is not None:
        out["sff"] = _arr(s.sff)
        out["sff_shape"] = list(s.sff.shape[:2])
    if s.triple is not None:
        out["triple"] = triple_to_dict(s.triple)
    if s.mask is not None:
        out["mask"] = _arr(s.mask, _MASK)
    if provenance:
        out["provenance"] = provenance
    return out


def sample_from_dict(d: dict) -> ImmersionSample:
    _check_schema(d, SAMPLE_SCHEMA)
    g = grid_from_dict(_get(d, "grid", "sample"))
    N = _count(_get(d, "ambient_dim", "sample"), "ambient_dim", "sample")
    pos = _field(d, "positions", g.shape + (N,), "sample")
    tangents = normals = lame = sff = mask = triple = None
    if "tangents" in d:
        nt = _count(_get(d, "n_tangents", "sample"), "n_tangents", "sample")
        if nt != g.ndim:
            raise ParseError(f"sample field 'n_tangents' is {nt}, not the grid's rank {g.ndim}")
        tangents = _field(d, "tangents", (nt,) + g.shape + (N,), "sample")
    if "normals" in d:
        nn = _count(_get(d, "n_normals", "sample"), "n_normals", "sample")
        normals = _field(d, "normals", (nn,) + g.shape + (N,), "sample")
    if "lame" in d:
        lame = _field(d, "lame", (g.ndim,) + g.shape, "sample")
    if "sff" in d:
        if normals is None:
            raise ParseError("sample has 'sff' but no normals")
        ab = _get(d, "sff_shape", "sample")
        if not isinstance(ab, list) or len(ab) != 2:
            raise ParseError(f"sample field 'sff_shape' is not a pair of counts ({ab!r:.40})")
        a, b = (_count(x, "sff_shape", "sample") for x in ab)
        if (a, b) != (g.ndim, len(normals)):
            raise ParseError(f"sample field 'sff_shape' is {[a, b]}, not the grid's rank and "
                             f"the normal count {[g.ndim, len(normals)]}")
        sff = _field(d, "sff", (a, b) + g.shape, "sample")
    if "triple" in d:
        triple = triple_from_dict(d["triple"])
    if "mask" in d:
        mask = _field(d, "mask", g.shape, "sample", _MASK, bool)
    for key, a, lead in (("positions", pos, 0), ("tangents", tangents, 1), ("normals", normals, 1),
                         ("lame", lame, 1), ("sff", sff, 2)):
        if a is not None:
            _check_finite("sample", key, a, lead, mask, g.ndim)
    frames = [f for f in (tangents, normals) if f is not None]
    if frames:
        defect = _gram_defect(frames, np.ones(g.shape, dtype=bool) if mask is None else mask)
        if not defect <= _GRAM_TOL:
            raise ParseError(f"sample frame is not orthonormal at valid nodes "
                             f"(Gram defect {defect:.3e} exceeds {_GRAM_TOL:g})")
    return ImmersionSample(g, pos, tangents=tangents, normals=normals, lame=lame,
                           sff=sff, triple=triple, mask=mask)


def _json_pieces(obj, depth: int):
    """The text of json.dumps(obj, indent=1) nested `depth` levels deep, in
    pieces: base64 payloads pass through as they are, str-keyed dicts are
    walked, and every other value is written by json.dumps."""
    if isinstance(obj, _Payload):
        yield from ('"', obj, '"')
    elif isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
        pad = "\n" + " " * (depth + 1)
        sep = "{"
        for key, value in obj.items():
            yield sep + pad + json.dumps(key) + ": "
            yield from _json_pieces(value, depth + 1)
            sep = ","
        yield "\n" + " " * depth + "}"
    else:
        yield json.dumps(obj, indent=1).replace("\n", "\n" + " " * depth)


@contextlib.contextmanager
def _writing(path):
    """The text file at path, open for writing; an OSError while it is
    opened or written becomes an OutputError naming the path."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            yield f
    except OSError as e:            # a missing directory, a directory, no permission
        raise OutputError(f"cannot write {path} ({e.strerror or e})") from None


def dump_json(obj: dict, path) -> None:
    """Write obj as the bytes of json.dump(obj, f, indent=1) plus a newline."""
    with _writing(path) as f:
        f.writelines(_json_pieces(obj, 0))
        f.write("\n")


def load_json(path) -> dict:
    try:
        f = open(path, encoding="utf-8")
    except OSError as e:            # a missing file, a directory, no permission
        raise ParseError(f"cannot read {path} ({e.strerror})") from None
    with f:
        try:
            return json.load(f)
        except ValueError as e:     # JSONDecodeError, or bytes that are not UTF-8
            raise ParseError(f"{path} is not a JSON document ({e})") from None


def spec_hash(obj: dict) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def residual_csv(rows, path) -> None:
    """Rows of (equation id, max residual, masked fraction)."""
    with _writing(path) as f:
        f.write("equation,max_residual,masked_fraction\n")
        for eq, res, frac in rows:
            f.write(f"{eq},{res!r},{frac!r}\n")


def _mesh_slice(s: ImmersionSample, slice_idx):
    """Positions and mask of a 2-d slice for mesh export."""
    g = s.grid
    if g.ndim == 2:
        return s.positions, (s.mask if s.mask is not None else None)
    if slice_idx is None:
        raise UnsupportedSlice("mesh export of a >2-d sample needs a slice specification")
    sel = []
    free = 0
    for d in range(g.ndim):
        v = slice_idx[d]
        if v is None:
            sel.append(slice(None))
            free += 1
        else:
            sel.append(int(v))
    if free != 2:
        raise UnsupportedSlice("mesh slice must leave exactly two axes free")
    sel = tuple(sel)
    mask = s.mask[sel] if s.mask is not None else None
    return s.positions[sel], mask


def _mesh_data(s: ImmersionSample, slice_idx, coords):
    pos, mask = _mesh_slice(s, slice_idx)
    if pos.shape[-1] < 3:
        pad = np.zeros(pos.shape[:-1] + (3 - pos.shape[-1],))
        pos = np.concatenate([pos, pad], axis=-1)
    coords = tuple(coords) if coords is not None else (0, 1, 2)
    if len(coords) != 3 or max(coords) >= pos.shape[-1]:
        raise UnsupportedSlice("mesh export needs three valid coordinate indices")
    xyz = pos[..., list(coords)]
    n1, n2 = xyz.shape[:2]
    verts = xyz.reshape(-1, 3)
    faces = []
    for i in range(n1 - 1):
        for j in range(n2 - 1):
            if mask is not None:
                if not (mask[i, j] and mask[i + 1, j] and mask[i, j + 1] and mask[i + 1, j + 1]):
                    continue
            a = i * n2 + j
            faces.append((a, a + n2, a + n2 + 1, a + 1))
    return verts, faces


def export_obj(s: ImmersionSample, path, slice_idx=None, coords=None) -> dict:
    """Quad mesh of a 2-d (slice of a) sample; masked cells are omitted."""
    verts, faces = _mesh_data(s, slice_idx, coords)
    with _writing(path) as f:
        for v in verts:
            f.write(f"v {v[0]!r} {v[1]!r} {v[2]!r}\n")
        for a, b, c, d in faces:
            f.write(f"f {a + 1} {b + 1} {c + 1} {d + 1}\n")
    return {"vertices": len(verts), "faces": len(faces)}


def export_ply(s: ImmersionSample, path, slice_idx=None, coords=None) -> dict:
    verts, faces = _mesh_data(s, slice_idx, coords)
    with _writing(path) as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {len(verts)}\n")
        f.write("property float x\nproperty float y\nproperty float z\n")
        f.write(f"element face {len(faces)}\n")
        f.write("property list uchar int vertex_indices\nend_header\n")
        for v in verts:
            f.write(f"{v[0]!r} {v[1]!r} {v[2]!r}\n")
        for a, b, c, d in faces:
            f.write(f"4 {a} {b} {c} {d}\n")
    return {"vertices": len(verts), "faces": len(faces)}


def export_csv(s: ImmersionSample, path) -> dict:
    """Full node data: one row per node in row-major order."""
    g = s.grid
    N = s.ambient_dim
    mesh = g.meshgrid()
    cols = [f"u{d}" for d in range(g.ndim)] + [f"x{i}" for i in range(N)] + ["valid"]
    valid = s.valid().reshape(-1)
    with _writing(path) as f:
        f.write(",".join(cols) + "\n")
        U = np.stack([m.reshape(-1) for m in mesh], axis=1)
        P = s.positions.reshape(-1, N)
        for row in range(U.shape[0]):
            vals = [repr(x) for x in U[row]] + [repr(x) for x in P[row]] + [str(int(valid[row]))]
            f.write(",".join(vals) + "\n")
    return {"rows": U.shape[0]}
