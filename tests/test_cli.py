import base64
import dataclasses
import json
import os
import re

import numpy as np
import pytest

from dupin.cli import main, run_pipeline
from dupin.errors import DimensionMismatch, NotRegular, OutputError, ParseError, UnsupportedSlice
from dupin.net import ImmersionSample
from dupin.numerics import TensorGrid
from dupin.seeds import circle_seed, torus_seed
from dupin import serialize


PIPE_TUBE = {
    "schema": "dupin/pipeline@1",
    "seed": {"kind": "circle", "params": {"radius": 1.0, "n": 21,
                                          "u_range": [0.0, 6.283185307179586]}},
    "steps": [
        {"op": "construct", "kind": "tube", "n_indices": [0, 1], "a": 0.3},
        {"op": "verify", "gates": {"k": 2, "max_dupin_residual": 1e-3, "holonomic": True}},
        {"op": "export", "format": "obj", "path": "torus.obj"},
    ],
}


def _container(data: bytes):
    """The header text and the body of a container file's bytes."""
    assert data[:7] == b"\x93DUPIN\n"
    start = 11 + int.from_bytes(data[7:11], "little")
    assert start % 8 == 0
    return data[11:start].decode("utf-8"), data[start:]


def _plain(doc):
    """doc with each array replaced by the hex of its bytes, for comparison."""
    if isinstance(doc, np.ndarray):
        return doc.tobytes().hex()
    return {key: _plain(value) for key, value in doc.items()} if isinstance(doc, dict) else doc


class TestSerialize:
    def test_sample_roundtrip(self, torus_patch, tmp_path):
        doc = serialize.sample_to_dict(torus_patch)
        path = tmp_path / "s.json"
        serialize.dump_json(doc, path)
        back = serialize.sample_from_dict(serialize.load_json(path))
        assert np.abs(back.positions - torus_patch.positions).max() == 0.0
        assert np.abs(back.triple.v - torus_patch.triple.v).max() == 0.0
        assert back.triple.class_map.classes == torus_patch.triple.class_map.classes

    @pytest.mark.parametrize("case", ["sample", "masked_sample", "triple", "provenance",
                                      "chain"])
    def test_dump_json_writes_json_dumps_indent_1(self, case, torus_patch, recursion_step1, tmp_path):
        # a document without arrays is json.dumps(obj, indent=1); one with arrays is a
        # container: the header is that text of the document with each array replaced
        # by its {offset, nbytes}, the body its bytes at 8-aligned offsets in document order
        if case == "sample":
            doc = serialize.sample_to_dict(recursion_step1.sample)
        elif case == "masked_sample":
            s = serialize.sample_from_dict(serialize.sample_to_dict(torus_patch))
            s.mask = np.ones(s.grid.shape, dtype=bool)
            s.mask[3, 4] = False
            doc = serialize.sample_to_dict(s)
        elif case == "triple":
            doc = serialize.triple_to_dict(recursion_step1.triple)
        elif case == "provenance":
            doc = serialize.sample_to_dict(torus_patch, provenance={
                "nested": [[1, [2.5, -0.0]], {"a": [], "b": {}}, [], {}],
                "empty": {}, "none": [], "flags": [True, False, None],
                "text": "d\u00e9j\u00e0 \u2603 \U0001d507 \"q\" \\ \t\n\x00\x1f\x7f",
                "\u00e9\n": float("inf"),
                "ints": {1: "one", 2: {3: [4]}},
                "mixed": {"x": 1, 5: {"y": {}}},
            })
        else:
            doc = [{"kind": "translate", "u": [0.0, 0.0, 2.0]}, {"kind": "inversion"}, {}]
        path = tmp_path / "doc.json"
        serialize.dump_json(doc, path)
        if case == "chain":
            text = json.dumps(doc, indent=1) + "\n"
            assert path.read_bytes() == text.encode("utf-8")
            assert serialize.load_json(path) == json.loads(text)
            return
        body = bytearray()

        def refs(obj):
            if isinstance(obj, np.ndarray):
                body.extend(bytes(-len(body) % 8))
                ref = {"offset": len(body), "nbytes": obj.nbytes}
                body.extend(obj.astype(obj.dtype.newbyteorder("<")).tobytes())
                return ref
            return {key: refs(value) for key, value in obj.items()} if isinstance(obj, dict) else obj

        expected = json.dumps(refs(doc), indent=1)
        header, got = _container(path.read_bytes())
        assert header.startswith(expected) and set(header[len(expected):-1]) <= {" "}
        assert header.endswith("\n") and len(header) - len(expected) <= 8
        assert got == body
        assert _plain(serialize.load_json(path)) == json.loads(json.dumps(_plain(doc)))

    def test_triple_roundtrip(self, torus_patch):
        doc = serialize.triple_to_dict(torus_patch.triple)
        back = serialize.triple_from_dict(doc)
        assert np.abs(back.h - torus_patch.triple.h).max() == 0.0

    def test_schema_rejected(self):
        with pytest.raises(ParseError):
            serialize.triple_from_dict({"schema": "bogus"})

    def test_masked_nan_roundtrip_is_exact(self, torus_patch, tmp_path):
        # non-finite positions are accepted where the sample masks them
        s = serialize.sample_from_dict(serialize.sample_to_dict(torus_patch))
        s.positions[3, 4] = np.nan
        s.mask = np.ones(s.grid.shape, dtype=bool)
        s.mask[3, 4] = False
        serialize.dump_json(serialize.sample_to_dict(s), tmp_path / "s.json")
        back = serialize.sample_from_dict(serialize.load_json(tmp_path / "s.json"))
        assert np.array_equal(back.positions, s.positions, equal_nan=True)
        assert np.array_equal(back.mask, s.mask)

    def test_loading_a_document_twice_shares_no_memory(self, torus_patch, tmp_path):
        # the first read takes the loaded bytes over; a second read of the
        # same document copies, so writing one sample leaves the other alone
        mask = np.ones(torus_patch.grid.shape, dtype=bool)
        mask[3, 4] = False
        s = dataclasses.replace(torus_patch, mask=mask,
                                triple=dataclasses.replace(torus_patch.triple, mask=mask.copy()))
        serialize.dump_json(serialize.sample_to_dict(s), tmp_path / "s.json")
        serialize.dump_json(serialize.triple_to_dict(s.triple), tmp_path / "t.json")
        doc = serialize.load_json(tmp_path / "s.json")
        first, second = serialize.sample_from_dict(doc), serialize.sample_from_dict(doc)
        assert np.shares_memory(first.positions, doc["positions"])
        fields = [(f, getattr(first, f), getattr(second, f))
                  for f in ("positions", "tangents", "normals", "lame", "sff", "mask")]
        fields += [(f, getattr(first.triple, f), getattr(second.triple, f)) for f in ("v", "h", "V", "mask")]
        tdoc = serialize.load_json(tmp_path / "t.json")
        t1, t2 = serialize.triple_from_dict(tdoc), serialize.triple_from_dict(tdoc)
        assert np.shares_memory(t1.v, tdoc["v"])
        fields += [("triple " + f, getattr(t1, f), getattr(t2, f)) for f in ("v", "h", "V", "mask")]
        for name, a, b in fields:
            assert a is not None and b is not None, name
            assert a.flags.writeable and b.flags.writeable, name
            assert not np.shares_memory(a, b), name
            assert np.array_equal(a, b), name
        first.positions[0, 0] = 7.0
        assert second.positions[0, 0, 0] != 7.0

    @pytest.mark.parametrize("key", ["grid", "classes", "n_normals", "v", "h", "V"])
    def test_triple_missing_key_rejected(self, torus_patch, key):
        doc = serialize.triple_to_dict(torus_patch.triple)
        del doc[key]
        with pytest.raises(ParseError, match=repr(key)):
            serialize.triple_from_dict(doc)

    def test_triple_size_mismatch_rejected(self, torus_patch):
        doc = serialize.triple_to_dict(torus_patch.triple)
        doc["h"] = serialize._arr(torus_patch.triple.h.reshape(-1)[:-1])
        with pytest.raises(ParseError, match="'h' has"):
            serialize.triple_from_dict(doc)
        doc = serialize.triple_to_dict(torus_patch.triple)
        doc["v"] = "AAAAAAAAAAA="               # base64 text, not a byte field
        with pytest.raises(ParseError, match="'v' is not a numeric array \\(a str is not a byte field\\)"):
            serialize.triple_from_dict(doc)

    def test_special_values_roundtrip_bit_exact(self, torus_patch, tmp_path):
        s = serialize.sample_from_dict(serialize.sample_to_dict(torus_patch))
        payload_nan = np.array([0x7FF8_0000_DEAD_BEEF], dtype=np.uint64).view(float)[0]
        s.mask = np.ones(s.grid.shape, dtype=bool)
        s.mask[3, 4] = s.mask[5, 6] = False
        s.positions[3, 4] = [payload_nan, np.inf, -np.inf]
        s.positions[5, 6] = [-np.inf, -payload_nan, np.inf]
        s.positions[1, 1, 0] = -0.0
        s.positions[1, 2, 1] = 5e-324                  # smallest subnormal
        s.triple.mask = s.mask.copy()                  # non-finite values only where masked
        s.triple.v[0, 3, 4] = payload_nan
        s.triple.h[1, 0, 7, 7] = -0.0
        s.tangents[0, 4, 4, 2] = 2.5e-310
        doc = serialize.sample_to_dict(s)
        serialize.dump_json(doc, tmp_path / "s.json")
        back = serialize.sample_from_dict(serialize.load_json(tmp_path / "s.json"))
        for name in ("positions", "tangents", "normals", "lame", "sff"):
            a, b = getattr(s, name), getattr(back, name)
            assert b.dtype == np.float64 and b.flags.writeable
            assert np.array_equal(b.view(np.uint64), a.view(np.uint64)), name
        for name in ("v", "h", "V"):
            a, b = getattr(s.triple, name), getattr(back.triple, name)
            assert np.array_equal(b.view(np.uint64), a.view(np.uint64)), name
        assert back.mask.dtype == bool and np.array_equal(back.mask, s.mask)
        assert _plain(serialize.sample_to_dict(back)) == _plain(doc)

    def test_payload_layout(self, torus_patch, tmp_path):
        # little-endian float64 values and 0/1 mask bytes, in row-major node order,
        # at the header's 8-aligned offsets into the body
        s = serialize.sample_from_dict(serialize.sample_to_dict(torus_patch))
        s.mask = np.ones(s.grid.shape, dtype=bool)
        s.mask[3, 4] = False
        path = tmp_path / "s.json"
        serialize.dump_json(serialize.sample_to_dict(s), path)
        data = path.read_bytes()
        text, body = _container(data)
        header = json.loads(text)

        def at(ref):
            assert ref["offset"] % 8 == 0
            return body[ref["offset"]:ref["offset"] + ref["nbytes"]]

        values = s.positions.reshape(-1).view(np.uint64).tolist()
        assert at(header["positions"]) == b"".join(x.to_bytes(8, "little") for x in values)
        assert at(header["mask"]) == bytes(s.mask.reshape(-1).tolist())
        assert at(header["triple"]["V"]) == s.triple.V.astype("<f8").tobytes(order="C")
        # a field read straight from the file, as the README shows
        ref, start = header["tangents"], len(data) - len(body)
        tangents = np.fromfile(path, "<f8", count=ref["nbytes"] // 8, offset=start + ref["offset"])
        assert np.array_equal(tangents.reshape(s.tangents.shape), s.tangents)

    def test_a_dict_that_would_read_as_an_array_is_not_written(self, torus_patch, tmp_path):
        doc = serialize.sample_to_dict(torus_patch, provenance={"x": {"offset": 0, "nbytes": 8}})
        with pytest.raises(OutputError, match="cannot write a document holding the dict"):
            serialize.dump_json(doc, tmp_path / "s.json")
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("kind", ["sample", "triple"])
    def test_old_schemas_rejected(self, torus_patch, kind, version):
        if kind == "sample":
            doc, load = serialize.sample_to_dict(torus_patch), serialize.sample_from_dict
        else:
            doc, load = serialize.triple_to_dict(torus_patch.triple), serialize.triple_from_dict
        doc["schema"] = f"dupin/{kind}@{version}"
        with pytest.raises(ParseError, match=f"expected schema dupin/{kind}@3, got 'dupin/{kind}@{version}'"):
            load(doc)

    def test_obj_counts_and_masking(self, tmp_path):
        t = torus_seed(R=1.0, r=0.3, shape=(9, 9))
        mask = np.ones((9, 9), dtype=bool)
        mask[4, 4] = False
        t.mask = mask
        info = serialize.export_obj(t, tmp_path / "m.obj", None)
        assert info["vertices"] == 81
        assert info["faces"] == 8 * 8 - 4  # four cells touch the masked node
        # plain decimal numbers, the vertices in row-major node order
        lines = (tmp_path / "m.obj").read_text(encoding="utf-8").splitlines()
        verts = np.array([[float(x) for x in line.split()[1:]] for line in lines if line.startswith("v ")])
        assert np.array_equal(verts, t.positions.reshape(-1, 3))
        faces = [line for line in lines if line.startswith("f ")]
        assert faces[0] == "f 1 10 11 2" and "f 41 50 51 42" not in faces

    @pytest.mark.parametrize("fmt", ["ply", "obj"])
    def test_slice_of_a_3d_sample_exports(self, tmp_path, fmt):
        s = ImmersionSample(TensorGrid((4, 5, 6), (1.0, 1.0, 1.0)),
                            np.arange(4 * 5 * 6 * 2, dtype=float).reshape(4, 5, 6, 2))
        export = serialize.export_ply if fmt == "ply" else serialize.export_obj
        assert export(s, tmp_path / f"m.{fmt}", (None, 2, None)) == {"vertices": 24, "faces": 15}
        for bad in [None, (None, None, None), (1, 2, None)]:
            with pytest.raises(UnsupportedSlice):
                export(s, tmp_path / f"m.{fmt}", bad)

    def test_csv_rows(self, tmp_path, torus_patch):
        info = serialize.export_csv(torus_patch, tmp_path / "t.csv")
        assert info["rows"] == torus_patch.grid.size
        with open(tmp_path / "t.csv", encoding="utf-8") as f:
            header = f.readline().strip().split(",")
            rows = np.array([[float(x) for x in line.split(",")] for line in f])
        assert header[:2] == ["u0", "u1"]
        assert np.array_equal(rows[:, 2:-1], torus_patch.positions.reshape(-1, 3))
        assert (rows[:, -1] == 1).all()


class TestPipeline:
    def test_cookbook_circle_tube_verify(self, tmp_path):
        out = tmp_path / "out"
        summary = run_pipeline(PIPE_TUBE, str(out))
        assert summary["ok"]
        obj = (out / "torus.obj").read_text(encoding="utf-8").splitlines()
        nv = sum(1 for line in obj if line.startswith("v "))
        assert nv == 21 * 21

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_pipeline(PIPE_TUBE, str(a))
        run_pipeline(PIPE_TUBE, str(b))
        for name in ("final_sample.json", "torus.obj", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_recursion_health_numbers_are_deterministic(self, tmp_path):
        # each recursion step records its solve's health numbers, the
        # regularity gate's min_gap and the transform's masked fraction next
        # to validate, and two runs write the same summary.json byte for byte
        spec = {"schema": "dupin/pipeline@1", "seed": {"kind": "circle", "params": CIRCLE4},
                "steps": [{"op": "recursion", **REGULAR_STEP},
                          {"op": "recursion", "n_indices": [1],
                           "y": {"shape": [5], "spacings": [0.01], "origins": [0.828]},
                           "B0": [-0.204, 0.141], "phi0": 1.0, "gamma0": [0.010, -0.042],
                           "beta0": [-0.618, -0.174]}]}
        a, b = tmp_path / "a", tmp_path / "b"
        run_pipeline(spec, str(a))
        run_pipeline(spec, str(b))
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
        steps = json.loads((a / "summary.json").read_text(encoding="utf-8"))["steps"]
        health = {"gnorm_fd", "min_gap", "masked_fraction"}
        # a curve's solve has one sweep order, so no path independence
        assert set(steps[0]) == {"op", "validate"} | health
        assert set(steps[1]) == {"op", "validate", "path_independence"} | health
        for step in steps:
            assert all(type(step[key]) is float for key in set(step) - {"op", "validate"})
            assert step["min_gap"] > 0 and step["masked_fraction"] == 0.0

    @staticmethod
    def _two_steps(gates1=None, gates2=None) -> dict:
        """The circle CIRCLE4 through two recursion steps, with the given gates."""
        steps = [{"op": "recursion", **REGULAR_STEP},
                 {"op": "recursion", "n_indices": [1], "y": {"shape": [5], "spacings": [0.01], "origins": [0.828]},
                  "B0": [-0.204, 0.141], "phi0": 1.0, "gamma0": [0.010, -0.042], "beta0": [-0.618, -0.174]}]
        for step, gates in zip(steps, (gates1, gates2)):
            if gates is not None:
                step["gates"] = gates
        return {"schema": "dupin/pipeline@1", "seed": {"kind": "circle", "params": CIRCLE4}, "steps": steps}

    @pytest.mark.parametrize("gate,number", [("max_path_independence", "path_independence"),
                                             ("max_gnorm_fd", "gnorm_fd")])
    def test_a_health_number_above_its_gate_exits_1(self, tmp_path, capsys, gate, number):
        serialize.dump_json(self._two_steps(gates2={gate: 1e-300}), tmp_path / "spec.json")
        assert main(["run", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "pipeline failed at step 2\n"
        summary = json.loads((tmp_path / "o" / "summary.json").read_text(encoding="utf-8"))
        assert not summary["ok"] and summary["failed_step"] == 2
        step = summary["steps"][1]
        assert step["error"] == f"step 2: {number} {step[number]:.3e} > 1e-300" and step[number] > 0
        assert "verify" not in step

    def test_a_path_independence_gate_on_a_curve_exits_2(self, tmp_path, capsys):
        # the circle's solve has one sweep order: refused before the solve
        serialize.dump_json(self._two_steps(gates1={"max_path_independence": 1.0}), tmp_path / "spec.json")
        assert main(["run", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("error: step 1 (recursion): 'max_path_independence' needs a base of "
                                           "two or more axes (a curve's solve has one sweep order)\n")

    def test_passing_health_gates_write_the_ungated_summary(self, tmp_path):
        # the health gates bound numbers the summary records anyway and run no
        # oracle, so the summary is the ungated one's but for the spec's hash
        plain, gated = self._two_steps(), self._two_steps({"max_gnorm_fd": 1.0},
                                                          {"max_path_independence": 1.0, "max_gnorm_fd": 1.0})
        assert run_pipeline(plain, str(tmp_path / "a"))["ok"] and run_pipeline(gated, str(tmp_path / "b"))["ok"]
        a, b = ((tmp_path / d / "summary.json").read_bytes() for d in "ab")
        h_a, h_b = (serialize.spec_hash(spec).encode() for spec in (plain, gated))
        assert h_a != h_b and b.count(h_b) == 1
        assert b.replace(h_b, h_a) == a

    def test_empty_steps_exports_seed_only(self, tmp_path):
        spec = {"schema": "dupin/pipeline@1",
                "seed": {"kind": "torus", "params": {"shape": [9, 9]}}, "steps": []}
        summary = run_pipeline(spec, str(tmp_path / "o"))
        assert summary["ok"] and summary["steps"] == []
        assert (tmp_path / "o" / "step_00_seed.json").exists()

    def test_unknown_keys_rejected(self, tmp_path):
        spec = dict(PIPE_TUBE)
        spec["typo_key"] = 1
        with pytest.raises(ParseError):
            run_pipeline(spec, str(tmp_path / "o"))
        spec2 = json.loads(json.dumps(PIPE_TUBE))
        spec2["steps"][0]["radius"] = 0.3
        with pytest.raises(ParseError):
            run_pipeline(spec2, str(tmp_path / "o"))

    def test_beta0_of_the_wrong_length_is_a_dimension_mismatch(self, tmp_path):
        # a circle in R^3 has two normals; three beta0 entries are refused
        spec = {
            "schema": "dupin/pipeline@1",
            "seed": {"kind": "circle", "params": {"radius": 1.0, "n": 21, "u_range": [0.0, 0.4]}},
            "steps": [
                {"op": "recursion", "n_indices": [1],
                 "y": {"shape": [9], "spacings": [0.05], "origins": [0.5]},
                 "B0": [0.0], "phi0": 1.0, "gamma0": [0.0], "beta0": [1.0, 0.0, 0.0]},
            ],
        }
        with pytest.raises(DimensionMismatch, match=re.escape("seed shapes must be (k,), (D,), (R,)")):
            run_pipeline(spec, str(tmp_path / "o"))

    def test_recursion_failing_validation_is_a_step_failure(self, tmp_path, capsys):
        # a regular recursion step whose new net cannot meet a 1e-300 tolerance
        spec = {"schema": "dupin/pipeline@1", "seed": {"kind": "circle", "params": CIRCLE4},
                "tolerances": {"validate": 1e-300}, "steps": [{"op": "recursion", **REGULAR_STEP}]}
        summary = run_pipeline(spec, str(tmp_path / "p"))
        assert summary["ok"] is False and summary["failed_step"] == 1
        assert "fails validation" in summary["steps"][0]["error"]
        assert set(summary["steps"][0]["validate"]) == {"I.i", "I.ii", "I.iii", "I.iv"}
        serialize.dump_json(spec, tmp_path / "spec.json")
        capsys.readouterr()
        assert main(["run", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "pipeline failed at step 1\n"

    def test_provenance_embedded(self, tmp_path):
        out = tmp_path / "o"
        run_pipeline(PIPE_TUBE, str(out))
        doc = serialize.load_json(out / "final_sample.json")
        assert doc["provenance"]["spec_sha256"] == serialize.spec_hash(PIPE_TUBE)
        assert any("op" in c and c["op"] == "construct" for c in doc["provenance"]["chain"] if isinstance(c, dict))


class TestCommands:
    def test_seed_verify_export_flow(self, tmp_path):
        seed = tmp_path / "seed.json"
        rc = main(["seed", "--kind", "torus", "--grid", "21,21", "--out", str(seed)])
        assert rc == 0
        rep = tmp_path / "rep.json"
        rc = main(["verify", "--in", str(seed), "--out", str(rep), "--csv", str(tmp_path / "rep.csv"),
                   "--tol", "1e-3", "--mask-report"])
        assert rc == 0
        doc = serialize.load_json(rep)
        assert doc["k"] == 2
        mesh = tmp_path / "m.ply"
        rc = main(["export", "--in", str(seed), "--format", "ply", "--out", str(mesh)])
        assert rc == 0
        assert mesh.read_text(encoding="utf-8").startswith("ply")

    def test_transform_chain_document(self, tmp_path, torus_patch):
        sp = tmp_path / "s.json"
        serialize.dump_json(serialize.sample_to_dict(torus_patch), sp)
        chain = [{"kind": "translate", "u": [0.0, 0.0, 2.0]}, {"kind": "inversion"},
                 {"kind": "homothety", "k": 2.0}]
        cf = tmp_path / "chain.json"
        serialize.dump_json(chain, cf)
        outp = tmp_path / "o.json"
        rc = main(["transform", "--in", str(sp), "--spec", str(cf), "--out", str(outp)])
        assert rc == 0
        out = serialize.sample_from_dict(serialize.load_json(outp))
        f = torus_patch.positions + np.array([0.0, 0.0, 2.0])
        expected = 2.0 * f / (f**2).sum(-1)[..., None]
        assert np.abs(out.positions - expected).max() < 1e-12

    def test_verify_tol_gate_fails(self, tmp_path):
        from dupin.seeds import ellipsoid_patch

        sp = tmp_path / "e.json"
        serialize.dump_json(serialize.sample_to_dict(ellipsoid_patch(shape=(21, 21))), sp)
        rc = main(["verify", "--in", str(sp), "--out", str(tmp_path / "r.json"), "--tol", "1e-4"])
        assert rc == 1


# a recursion request on the circle whose solution fails the regularity gate
IRREGULAR_STEP = {"n_indices": [1], "y": {"shape": [9], "spacings": [0.05], "origins": [0.5]},
                  "B0": [0.0], "phi0": 1.0, "gamma0": [0.0], "beta0": [1.0, 0.0]}
CIRCLE = {"radius": 1.0, "n": 21, "u_range": [0.0, 0.4]}


@pytest.mark.parametrize("command", ["run", "recurse"])
def test_irregular_recursion_exits_2_with_one_line(tmp_path, capsys, command):
    if command == "run":
        spec = {"schema": "dupin/pipeline@1", "seed": {"kind": "circle", "params": CIRCLE},
                "steps": [{"op": "recursion", **IRREGULAR_STEP}]}
        with pytest.raises(NotRegular):
            run_pipeline(spec, str(tmp_path / "p"))
        serialize.dump_json(spec, tmp_path / "spec.json")
        argv = ["run", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")]
    else:
        assert main(["seed", "--kind", "circle", "--params", json.dumps(CIRCLE),
                     "--out", str(tmp_path / "seed.json")]) == 0
        serialize.dump_json(IRREGULAR_STEP, tmp_path / "step.json")
        argv = ["recurse", "--in", str(tmp_path / "seed.json"), "--spec", str(tmp_path / "step.json"),
                "--out", str(tmp_path / "o.json")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: solution is not regular: min gap \S+\n", err)


# a base node where phi and beta both vanish: no canonical representative
UNCANONICAL_W = {"B0": [0.1], "phi0": 0.0, "gamma0": [0.2], "beta0": [0.0, 0.0]}


@pytest.mark.parametrize("command,op", [("run", "recursion"), ("run", "n_ribaucour"),
                                        ("recurse", None)])
def test_uncanonicalizable_solution_exits_2_with_one_line(tmp_path, capsys, command, op):
    y = IRREGULAR_STEP["y"]
    if command == "run":
        step = ({"op": op, "n_indices": [1], "y": y, **UNCANONICAL_W} if op == "recursion" else
                {"op": op, "n_indices": [1], "y": y, "w": {"kind": "solve", **UNCANONICAL_W}})
        spec = {"schema": "dupin/pipeline@1", "seed": {"kind": "circle", "params": CIRCLE},
                "steps": [step]}
        serialize.dump_json(spec, tmp_path / "spec.json")
        argv = ["run", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")]
    else:
        assert main(["seed", "--kind", "circle", "--params", json.dumps(CIRCLE),
                     "--out", str(tmp_path / "seed.json")]) == 0
        serialize.dump_json({"n_indices": [1], "y": y, **UNCANONICAL_W}, tmp_path / "step.json")
        argv = ["recurse", "--in", str(tmp_path / "seed.json"), "--spec", str(tmp_path / "step.json"),
                "--out", str(tmp_path / "o.json")]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: cannot canonicalize: phi(base) = 0 and beta(base) = 0\n"


def _broken_sample(torus_patch, how):
    doc = serialize.sample_to_dict(torus_patch)
    flat = torus_patch.positions.reshape(-1)
    if how == "missing_key":
        del doc["positions"]
    elif how == "size_mismatch":
        doc["positions"] = serialize._arr(flat[:-3])
    elif how == "non_finite":
        flat = flat.copy()
        flat[7] = float("nan")
        doc["positions"] = serialize._arr(flat)
    elif how == "non_finite_tangents":
        tangents = torus_patch.tangents.copy()
        tangents[1, 4, 9, 2] = float("inf")
        doc["tangents"] = serialize._arr(tangents)
    elif how == "three_tangents":              # on a 2-d grid
        del doc["triple"]
        doc["tangents"] = serialize._arr(np.concatenate([torus_patch.tangents, torus_patch.tangents[:1]]))
        doc["n_tangents"] = 3
    elif how == "sff_shape":                   # one normal, an sff for three
        del doc["triple"]
        doc["sff"] = serialize._arr(np.zeros((2, 3) + torus_patch.grid.shape))
        doc["sff_shape"] = [2, 3]
    elif how == "sff_without_normals":
        del doc["normals"], doc["n_normals"]
    elif how == "doubled_tangents":
        doc["tangents"] = serialize._arr(2.0 * torus_patch.tangents)
    elif how == "triple_on_another_grid":      # a 17 x 21 triple in a 21 x 21 sample
        doc["triple"] = serialize.triple_to_dict(
            torus_seed(R=1.0, r=0.3, shape=(17, 21), u1_range=(0.1, 1.1), u2_range=(0.2, 1.2)).triple)
    return doc


@pytest.mark.parametrize("how,message", [
    ("missing_key", "sample document missing key 'positions'"),
    ("size_mismatch", "sample field 'positions' has 1320 values, expected shape (21, 21, 3)"),
    ("non_finite", "sample has non-finite positions at 1 unmasked nodes"),
    ("non_finite_tangents", "sample has non-finite tangents at 1 unmasked nodes"),
    ("three_tangents", "sample field 'n_tangents' is 3, not the grid's rank 2"),
    ("sff_shape", "sample field 'sff_shape' is [2, 3], not the grid's rank and the normal count [2, 1]"),
    ("sff_without_normals", "sample has 'sff' but no normals"),
    ("doubled_tangents", "sample frame is not orthonormal at valid nodes (Gram defect 3.000e+00 exceeds 1e-08)"),
    ("triple_on_another_grid", "sample's triple is not on the sample's grid"),
], ids=["missing_key", "size_mismatch", "non_finite", "non_finite_tangents", "three_tangents", "sff_shape",
        "sff_without_normals", "doubled_tangents", "triple_on_another_grid"])
def test_verify_bad_input_exits_2_with_one_line(tmp_path, torus_patch, capsys, how, message):
    sp = tmp_path / "bad.json"
    serialize.dump_json(_broken_sample(torus_patch, how), sp)
    with pytest.raises(ParseError):
        serialize.sample_from_dict(serialize.load_json(sp))
    rc = main(["verify", "--in", str(sp), "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "r.json").exists()


def test_recurse_on_a_triple_of_another_grid_exits_2_with_one_line(tmp_path, capsys):
    # a 21-node circle carrying the triple of a 17-node circle
    doc = serialize.sample_to_dict(circle_seed(radius=1.0, n=21, u_range=(0.0, 0.4)))
    doc["triple"] = serialize.triple_to_dict(circle_seed(radius=1.0, n=17, u_range=(0.0, 0.4)).triple)
    serialize.dump_json(doc, tmp_path / "seed.json")
    serialize.dump_json(IRREGULAR_STEP, tmp_path / "step.json")
    rc = main(["recurse", "--in", str(tmp_path / "seed.json"), "--spec", str(tmp_path / "step.json"),
               "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert capsys.readouterr().err == "error: sample's triple is not on the sample's grid\n"
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_verify_non_finite_tol_exits_2_with_one_line(tmp_path, torus_patch, capsys, tol):
    sp = tmp_path / "s.json"
    serialize.dump_json(serialize.sample_to_dict(torus_patch), sp)
    rc = main(["verify", "--in", str(sp), "--out", str(tmp_path / "r.json"), f"--tol={tol}"])
    assert rc == 2
    assert capsys.readouterr().err == "error: verify: '--tol' must be a finite number\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("args,message", [
    (["--tol", "-inf"], "dupin verify: argument --tol: expected one argument"),
    (["--tol", "1e-3", "--bogus"], "dupin: unrecognized arguments: --bogus"),
    (["--tol"], "dupin verify: argument --tol: expected one argument"),
], ids=["tol_minus_inf_as_two_tokens", "unknown_option", "missing_argument"])
def test_argument_errors_exit_2_with_one_line(tmp_path, torus_patch, capsys, args, message):
    # errors that argparse catches itself end like every other malformed input
    sp = tmp_path / "s.json"
    serialize.dump_json(serialize.sample_to_dict(torus_patch), sp)
    rc = main(["verify", "--in", str(sp), "--out", str(tmp_path / "r.json")] + args)
    assert rc == 2
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n" and out.out == ""
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("residuals", [(float("nan"), 1e-9), (1e-9, float("nan"))], ids=["first", "last"])
def test_a_nan_dupin_residual_fails_the_gates(tmp_path, torus_patch, monkeypatch, residuals):
    from dupin import cli

    sf_report = cli.sf_report
    monkeypatch.setattr(cli, "sf_report",
                        lambda s: dataclasses.replace(sf_report(s), dupin_residuals=residuals))
    _, failures = cli._verify_gates(torus_patch, {"max_dupin_residual": 1e-3})
    assert failures == ["dupin residual nan > 0.001"]
    sp = tmp_path / "s.json"
    serialize.dump_json(serialize.sample_to_dict(torus_patch), sp)
    assert main(["verify", "--in", str(sp), "--out", str(tmp_path / "r.json"), "--tol", "1e-3"]) == 1


def test_verify_accepts_nan_at_masked_node(tmp_path, torus_patch, capsys):
    # the loader accepts non-finite positions where the sample masks them
    s = serialize.sample_from_dict(serialize.sample_to_dict(torus_patch))
    s.positions[10, 10] = np.nan
    s.mask = np.ones(s.grid.shape, dtype=bool)
    s.mask[10, 10] = False
    sp = tmp_path / "holed.json"
    serialize.dump_json(serialize.sample_to_dict(s), sp)
    rc = main(["verify", "--in", str(sp), "--out", str(tmp_path / "r.json")])
    assert rc == 0
    assert re.match(r"k=2 dupin_max=\S+ holonomic=True c=1\n$", capsys.readouterr().out)


@pytest.mark.parametrize("how", ["not_bytes", "ragged_bytes", "list"])
def test_verify_bad_payload_exits_2_with_one_line(tmp_path, torus_patch, capsys, how):
    doc = serialize.sample_to_dict(torus_patch)
    raw = np.ascontiguousarray(torus_patch.positions, "<f8").tobytes()
    if how == "not_bytes":                     # a dupin/sample@2 base64 payload
        doc["positions"] = base64.b64encode(raw).decode("ascii")
    elif how == "ragged_bytes":                # 8n + 3 bytes
        doc["positions"] = np.frombuffer(raw + b"\0\0\0", np.uint8)
    else:                                      # a dupin/sample@1 value list
        doc["positions"] = torus_patch.positions.reshape(-1).tolist()
    sp = tmp_path / "bad.json"
    serialize.dump_json(doc, sp)
    message = r"sample field 'positions' is not a numeric array \(.+\)"
    with pytest.raises(ParseError, match=message):
        serialize.sample_from_dict(serialize.load_json(sp))
    rc = main(["verify", "--in", str(sp), "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("cut", [5, 9, 300, 1000, -1])
def test_verify_truncated_file_exits_2_with_one_line(tmp_path, torus_patch, capsys, cut):
    # in the magic, the header length, the header, the body and the last byte
    sp = tmp_path / "cut.json"
    serialize.dump_json(serialize.sample_to_dict(torus_patch), sp)
    sp.write_bytes(sp.read_bytes()[:cut])
    assert main(["verify", "--in", str(sp), "--out", str(tmp_path / "r.json")]) == 2
    kind = "a JSON document" if 0 <= cut < 7 else "a dupin artifact"
    assert re.fullmatch(rf"error: \S+cut\.json is not {kind} \(.+\)\n", capsys.readouterr().err)


@pytest.mark.parametrize("container", [False, True])
def test_verify_deeply_nested_file_exits_2_with_one_line(tmp_path, capsys, container):
    text = b"[" * 100_000 + b"]" * 100_000
    if container:                              # the same text as a container's header
        text = b"\x93DUPIN\n" + (len(text) + 5).to_bytes(4, "little") + text + b"    \n"
    sp = tmp_path / "deep.json"
    sp.write_bytes(text)
    assert main(["verify", "--in", str(sp), "--out", str(tmp_path / "r.json")]) == 2
    kind = "a dupin artifact" if container else "a JSON document"
    assert re.fullmatch(rf"error: \S+deep\.json is not {kind} \(.+\)\n", capsys.readouterr().err)


def test_bad_seed_shapes_exit_2_with_one_line(tmp_path, capsys):
    # beta0 has three entries, but a circle in R^3 has two normals
    spec = {"schema": "dupin/pipeline@1", "seed": {"kind": "circle", "params": CIRCLE},
            "steps": [{"op": "recursion", **IRREGULAR_STEP, "beta0": [1.0, 0.0, 0.0]}]}
    serialize.dump_json(spec, tmp_path / "spec.json")
    assert main(["run", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: seed shapes must be (k,), (D,), (R,)\n"


BAD_STEP_VALUES = {"B0": ("B0", "x"), "phi0": ("phi0", None), "gamma0": ("gamma0", {}),
                   "n_indices": ("n_indices", 5), "substeps": ("substeps", "many"),
                   "n_indices_out_of_range": ("n_indices", [7])}


@pytest.mark.parametrize("command", ["run", "recurse"])
@pytest.mark.parametrize("key,value", list(BAD_STEP_VALUES.values()), ids=list(BAD_STEP_VALUES))
def test_mistyped_recursion_step_exits_2_with_one_line(tmp_path, capsys, command, key, value):
    step = {**IRREGULAR_STEP, key: value}
    if command == "run":
        spec = {"schema": "dupin/pipeline@1", "seed": {"kind": "circle", "params": CIRCLE},
                "steps": [{"op": "recursion", **step}]}
        with pytest.raises(ParseError, match=f"step 1 \\(recursion\\): '{key}' must be"):
            run_pipeline(spec, str(tmp_path / "p"))
        serialize.dump_json(spec, tmp_path / "spec.json")
        argv = ["run", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")]
    else:
        assert main(["seed", "--kind", "circle", "--params", json.dumps(CIRCLE),
                     "--out", str(tmp_path / "seed.json")]) == 0
        serialize.dump_json(step, tmp_path / "step.json")
        argv = ["recurse", "--in", str(tmp_path / "seed.json"), "--spec", str(tmp_path / "step.json"),
                "--out", str(tmp_path / "o.json")]
    capsys.readouterr()
    assert main(argv) == 2
    assert re.fullmatch(f"error: [^\n]*'{key}' must be [^\n]*\n", capsys.readouterr().err)


@pytest.mark.parametrize("seed,message", [
    (None, "seed is not a JSON object"),
    ({"kind": "circle", "params": [1.0]}, "seed params is not a JSON object"),
    ({"kind": "circle", "params": {"radius": 1.0, "colour": "red"}},
     "seed circle: got an unexpected keyword argument 'colour'"),
    ({"kind": "circle", "params": {"radius": "x"}}, "seed circle: 'radius' must be a finite number"),
], ids=["null", "params_list", "unknown_param", "radius_string"])
def test_mistyped_seed_exits_2_with_one_line(tmp_path, capsys, seed, message):
    spec = {"schema": "dupin/pipeline@1", "seed": seed, "steps": []}
    with pytest.raises(ParseError, match=re.escape(message)):
        run_pipeline(spec, str(tmp_path / "p"))
    serialize.dump_json(spec, tmp_path / "spec.json")
    assert main(["run", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# a generalized cylinder: positions only, no frames and no net triple
_POSITIONS_ONLY = {"op": "construct", "kind": "cylinder", "n_indices": [1], "eps": 1,
                   "fiber": [[0.0, 0.1, 0.2, 0.3, 0.4]]}
_NEEDS_FRAMES = "needs a sample with frames and a net triple (a construct step leaves positions only)"


@pytest.mark.parametrize("change,message", [
    ({"steps": [5]}, "step 1 is not a JSON object"),
    ({"steps": {"op": "verify"}}, "pipeline steps is not a JSON list"),
    ({"tolerances": [1]}, "tolerances is not a JSON object"),
    ({"tolerances": {"validate": "x"}}, "tolerances: 'validate' must be a finite number"),
    ({"seed": {"kind": "circle", "params": {"n": 1}}}, "seed circle: 'n' must be an integer >= 2"),
    ({"seed": {"kind": "torus", "params": {"shape": [9]}}},
     "seed torus: 'shape' must be a list of 2 integers >= 2"),
    ({"seed": {"kind": "circle", "params": {"center": [1.0]}}},
     "seed circle: circle center of shape (1,) in R^3"),
    ({"seed": {"kind": "circle", "params": {"u_range": [1.0, 1.0]}}},
     "seed circle: spacings must be positive (grids are uniform by construction)"),
    ({"steps": [{"op": "ltransform", "kind": "homothety", "k": "x"}]},
     "transform homothety: 'k' must be a finite number"),
    ({"steps": [{"op": "ltransform", "kind": "homothety", "k": 0}]},
     "transform homothety: homothety ratio must be nonzero"),
    ({"steps": [{"op": "ltransform", "kind": "translate"}]},
     "transform translate: 'u' must be a list of finite numbers"),
    ({"steps": [{"op": "ltransform", "kind": "translate", "u": [1.0]}]},
     "translation vector of shape (1,) in R^3"),
    ({"steps": [{"op": "ltransform", "kind": "orthogonal", "matrix": np.eye(4).tolist()}]},
     "orthogonal matrix of shape (4, 4) in R^3"),
    ({"steps": [{"op": "ltransform", "kind": "orthogonal", "matrix": [[1.0, 1.0], [0.0, 1.0]]}]},
     "transform orthogonal: matrix is not orthogonal"),
    ({"steps": [{"op": "ribaucour", "w": 5}]}, "unknown solution kind None"),
    ({"steps": [{"op": "ribaucour", "w": {"kind": "inversion", "P0": "x", "r": 0.5}}]},
     "w inversion: 'P0' must be a list of 3 finite numbers"),
    ({"steps": [{"op": "ribaucour", "w": {"kind": "inversion", "P0": [0, 0, 3], "r": "r"}}]},
     "w inversion: 'r' must be a finite number"),
    ({"steps": [{"op": "ribaucour", "w": {"kind": "parallel", "coeffs": [0.1]}}]},
     "w parallel: 'coeffs' must be a list of 2 finite numbers"),
    ({"steps": [{"op": "ribaucour", "w": {"kind": "ltrivial", "a": "x", "v0": [0, 0, 1], "c": 1}}]},
     "w ltrivial: 'a' must be a finite number"),
    ({"steps": [{"op": "ribaucour", "w": {"kind": "ltrivial", "a": 1, "v0": [0], "c": 1}}]},
     "w ltrivial: 'v0' must be a list of 3 finite numbers"),
    ({"steps": [{"op": "ribaucour", "w": {"kind": "ltrivial", "a": 1, "v0": [0, 0, 1]}}]},
     "w ltrivial: 'c' must be a finite number"),
    ({"steps": [{"op": "ribaucour", "w": {"kind": "solve", "B0": "x"}}]},
     "w solve: 'B0' must be a list of finite numbers or null"),
    ({"steps": [{"op": "ribaucour", "w": {"kind": "solve", "phi0": [1.0]}}]},
     "w solve: 'phi0' must be a finite number"),
    ({"steps": [{"op": "ribaucour", "w": {"kind": "solve", "substeps": 0}}]},
     "w solve: 'substeps' must be an integer >= 1"),
    ({"steps": [{"op": "construct", "kind": "tube", "n_indices": [0, 1], "a": "x"}]},
     "step 1 (construct): 'a' must be a finite number"),
    ({"steps": [{"op": "construct", "kind": "tube", "n_indices": [0, 1], "a": 0}]},
     "step 1 (construct): tube radius must be nonzero"),
    ({"steps": [{"op": "construct", "kind": "tube", "n_indices": [0, 1], "a": 0.1, "n_angle": 1}]},
     "step 1 (construct): 'n_angle' must be an integer >= 2"),
    ({"steps": [{"op": "construct", "kind": "tube", "n_indices": [0, 1], "a": 0.1,
                 "angle_range": [0.0]}]},
     "step 1 (construct): 'angle_range' must be a list of 2 finite numbers"),
    ({"steps": [{"op": "construct", "kind": "tube", "n_indices": [0, 7], "a": 0.1}]},
     "step 1 (construct): 'n_indices' must be a non-empty list of normal indices below 2"),
    ({"steps": [{"op": "construct", "kind": "cylinder", "n_indices": [1], "eps": 2,
                 "fiber": [[0.0, 0.1]]}]},
     "step 1 (construct): 'eps' must be -1, 0 or 1"),
    ({"steps": [{"op": "construct", "kind": "cylinder", "n_indices": [1], "fiber": ["x"]}]},
     "step 1 (construct): 'fiber' must be a grid document or a list of 1 non-empty lists "
     "of finite numbers"),
    ({"steps": [{"op": "construct", "kind": "rotation", "n_indices": [1], "e": "x",
                 "fiber": [[0.0, 0.1]]}]},
     "step 1 (construct): 'e' must be a list of 3 finite numbers"),
    ({"steps": [{"op": "n_ribaucour", "n_indices": [7], "y": {"shape": [9], "spacings": [0.05]},
                 "w": {"kind": "inversion", "P0": [0, 0, 3], "r": 0.5}}]},
     "step 1 (n_ribaucour): 'n_indices' must be a non-empty list of normal indices below 2"),
    ({"steps": [_POSITIONS_ONLY, {"op": "ribaucour", "w": {"kind": "inversion", "P0": [0, 0, 3],
                                                           "r": 0.5}}]},
     "step 2 (ribaucour): " + _NEEDS_FRAMES),
    ({"steps": [_POSITIONS_ONLY, {"op": "ribaucour", "w": {"kind": "solve"}}]},
     "step 2 (ribaucour): " + _NEEDS_FRAMES),
    ({"steps": [_POSITIONS_ONLY, {"op": "n_ribaucour", "n_indices": [0],
                                  "y": {"shape": [9], "spacings": [0.05]},
                                  "w": {"kind": "inversion", "P0": [0, 0, 3], "r": 0.5}}]},
     "step 2 (n_ribaucour): " + _NEEDS_FRAMES),
    ({"steps": [_POSITIONS_ONLY, {"op": "recursion", "n_indices": [0],
                                  "y": {"shape": [9], "spacings": [0.05]}}]},
     "step 2 (recursion): " + _NEEDS_FRAMES),
    ({"steps": [{"op": "export", "format": "obj", "path": "m.obj", "slice": "x"}]},
     "step 1 (export): 'slice' must be a list of 1 node indices or nulls"),
    ({"steps": [{"op": "export", "format": "obj", "path": "m.obj", "coords": ["x", 1, 2]}]},
     "step 1 (export): 'coords' must be a list of 3 coordinate indices"),
    ({"steps": [{"op": "export", "format": "csv"}]},
     "step 1 (export): 'path' must be a non-empty string"),
    ({"steps": [{"op": "verify", "gates": {"max_dupin_residal": 1e-30, "holonomik": True}}]},
     "unknown keys ['holonomik', 'max_dupin_residal'] in step 1 (verify) gates"),
    ({"steps": [{"op": "verify", "gates": {"max_dupin_residual": "tiny"}}]},
     "step 1 (verify): 'max_dupin_residual' must be a finite number"),
    ({"steps": [{"op": "verify", "gates": [2]}]}, "step 1 (verify) gates is not a JSON object"),
    ({"steps": [{"op": "verify", "gates": {"k": True}}]}, "step 1 (verify): 'k' must be an integer >= 1"),
    ({"steps": [{"op": "recursion", **IRREGULAR_STEP, "gates": {"holonomic": 1}}]},
     "step 1 (recursion): 'holonomic' must be true or false"),
    ({"steps": [{"op": "verify", "gates": {"max_gnorm_fd": 1.0}}]},
     "unknown keys ['max_gnorm_fd'] in step 1 (verify) gates"),
    ({"steps": [{"op": "recursion", **IRREGULAR_STEP, "gates": {"max_gnorm_fd": "small"}}]},
     "step 1 (recursion): 'max_gnorm_fd' must be a finite number"),
], ids=["step_not_object", "steps_not_list", "tolerances_list", "validate_string", "n_one",
        "shape_short", "center_short", "empty_range", "k_string", "k_zero", "u_missing", "u_short",
        "matrix_4x4", "matrix_not_orthogonal", "w_not_object", "inversion_P0_string",
        "inversion_r_string", "parallel_coeffs_short", "ltrivial_a_string", "ltrivial_v0_short",
        "ltrivial_c_missing", "solve_B0_string", "solve_phi0_list", "solve_substeps_zero",
        "tube_a_string", "tube_a_zero", "tube_n_angle_one", "tube_angle_range_short",
        "construct_n_indices_out_of_range", "cylinder_eps_two", "cylinder_fiber_strings",
        "rotation_e_string", "n_ribaucour_n_indices_out_of_range",
        "ribaucour_inversion_positions_only", "ribaucour_solve_positions_only",
        "n_ribaucour_positions_only", "recursion_positions_only", "export_slice_string",
        "export_coords_string", "export_path_missing", "verify_gate_keys_misspelled",
        "verify_gate_residual_string", "verify_gates_list", "verify_gate_k_bool",
        "recursion_gate_flag_int", "verify_gate_health_key", "recursion_gate_gnorm_string"])
def test_malformed_pipeline_exits_2_with_one_line(tmp_path, capsys, change, message):
    spec = {"schema": "dupin/pipeline@1", "seed": {"kind": "circle", "params": CIRCLE}, "steps": [],
            **change}
    serialize.dump_json(spec, tmp_path / "spec.json")
    assert main(["run", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_export_slice_string_exits_2_with_one_line(tmp_path, capsys):
    assert main(["seed", "--kind", "circle", "--params", json.dumps(CIRCLE),
                 "--out", str(tmp_path / "seed.json")]) == 0
    capsys.readouterr()
    assert main(["export", "--in", str(tmp_path / "seed.json"), "--format", "obj",
                 "--out", str(tmp_path / "m.obj"), "--slice", "x"]) == 2
    assert capsys.readouterr().err == ("error: export --slice: 'slice' must be a list of 1 "
                                       "node indices or nulls\n")


@pytest.mark.parametrize("args,message", [
    (["seed", "--kind", "torus", "--grid", "a,b"],
     r"--grid must be comma-separated node counts, not 'a,b'"),
    (["seed", "--kind", "torus", "--params", "{bad"], r"--params is not a JSON document \(.+\)"),
    (["seed", "--kind", "torus", "--params", "[1]", "--grid", "5,5"],
     r"seed params is not a JSON object"),
    (["export", "--in", "MISSING", "--format", "obj"],
     r"cannot read \S+missing\.json \(No such file or directory\)"),
    (["transform", "--in", "SEED", "--spec", "MISSING"],
     r"cannot read \S+missing\.json \(No such file or directory\)"),
    (["recurse", "--in", "SEED", "--spec", "TMP"], r"cannot read \S+ \(Is a directory\)"),
], ids=["grid_not_ints", "params_not_json", "params_list_with_grid", "export_missing_in",
        "transform_missing_spec", "recurse_spec_directory"])
def test_malformed_or_missing_cli_input_exits_2_with_one_line(tmp_path, capsys, args, message):
    assert main(["seed", "--kind", "circle", "--params", json.dumps(CIRCLE),
                 "--out", str(tmp_path / "seed.json")]) == 0
    paths = {"SEED": tmp_path / "seed.json", "MISSING": tmp_path / "missing.json", "TMP": tmp_path}
    argv = [str(paths.get(a, a)) for a in args] + ["--out", str(tmp_path / "o.out")]
    capsys.readouterr()
    assert main(argv) == 2
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
    assert not (tmp_path / "o.out").exists()


# every output a subcommand writes, each argv with BAD in place of the output
# path; SEED is a torus sample, STEP a regular recursion request on the
# circle CIRCLE4 and CHAIN a transform chain
CIRCLE4 = {"radius": 1.0, "n": 21, "u_range": [0.0, 0.4], "ambient": 4}
REGULAR_STEP = {"n_indices": [1], "y": {"shape": [5], "spacings": [0.01], "origins": [0.8]},
                "B0": [0.1], "phi0": 1.0, "gamma0": [0.2], "beta0": [0.3, 0.0, 0.9]}
UNWRITABLE = {
    "run": ["run", "--spec", "PIPE", "--out", "BAD"],
    "seed": ["seed", "--kind", "circle", "--params", json.dumps(CIRCLE), "--out", "BAD"],
    "transform": ["transform", "--in", "SEED", "--spec", "CHAIN", "--out", "BAD"],
    "recurse": ["recurse", "--in", "CIRCLE4", "--spec", "STEP", "--out", "BAD"],
    "verify": ["verify", "--in", "SEED", "--out", "BAD"],
    "verify_csv": ["verify", "--in", "SEED", "--out", "OK", "--csv", "BAD"],
    **{f"export_{fmt}": ["export", "--in", "SEED", "--format", fmt, "--out", "BAD"]
       for fmt in ("obj", "ply", "csv", "json")},
}


@pytest.mark.parametrize("case", list(UNWRITABLE))
def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys, case):
    seed, circle = tmp_path / "seed.json", tmp_path / "circle4.json"
    assert main(["seed", "--kind", "torus", "--grid", "21,21", "--out", str(seed)]) == 0
    assert main(["seed", "--kind", "circle", "--params", json.dumps(CIRCLE4),
                 "--out", str(circle)]) == 0
    serialize.dump_json({"schema": "dupin/pipeline@1", "seed": {"kind": "circle", "params": CIRCLE},
                         "steps": []}, tmp_path / "pipe.json")
    serialize.dump_json([{"kind": "translate", "u": [0.0, 0.0, 1.0]}], tmp_path / "chain.json")
    serialize.dump_json(REGULAR_STEP, tmp_path / "step.json")
    (tmp_path / "file").write_bytes(b"")
    bad = tmp_path / "file" / "o.out"                  # below a regular file
    paths = {"SEED": seed, "CIRCLE4": circle, "PIPE": tmp_path / "pipe.json",
             "CHAIN": tmp_path / "chain.json", "STEP": tmp_path / "step.json",
             "OK": tmp_path / "ok.json", "BAD": bad}
    capsys.readouterr()
    assert main([str(paths.get(a, a)) for a in UNWRITABLE[case]]) == 2
    verb = "create" if case == "run" else "write"
    assert capsys.readouterr().err == f"error: cannot {verb} {bad} (Not a directory)\n"


def _recurse(tmp_path, step: dict, out: str) -> int:
    """`dupin recurse` of step on the circle CIRCLE4."""
    seed = tmp_path / "circle4.json"
    if not seed.exists():
        assert main(["seed", "--kind", "circle", "--params", json.dumps(CIRCLE4), "--out", str(seed)]) == 0
    serialize.dump_json(step, tmp_path / "step.json")
    return main(["recurse", "--in", str(seed), "--spec", str(tmp_path / "step.json"),
                 "--out", str(tmp_path / out)])


def test_recurse_failing_gate_exits_1_without_output(tmp_path, capsys):
    assert _recurse(tmp_path, {**REGULAR_STEP, "gates": {"k": 7}}, "o.json") == 1
    assert re.fullmatch(r"recursion failed: k = 2, expected 7\n", capsys.readouterr().err)
    assert not (tmp_path / "o.json").exists()


def test_recurse_passing_gates_write_the_ungated_bytes(tmp_path, capsys):
    assert _recurse(tmp_path, REGULAR_STEP, "plain.json") == 0
    assert _recurse(tmp_path, {**REGULAR_STEP, "gates": {"k": 2, "holonomic": True}}, "gated.json") == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "gated.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_recurse_misspelled_gate_exits_2_before_solving(tmp_path, capsys):
    # the gates are checked before the solve, which this request would fail
    assert _recurse(tmp_path, {**IRREGULAR_STEP, "gates": {"kk": 2}}, "o.json") == 2
    assert capsys.readouterr().err == "error: unknown keys ['kk'] in recursion spec gates\n"
