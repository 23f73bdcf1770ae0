import io
import json
import os
import re
import shlex
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import dest3d.cli as cli_mod
from dest3d.cli import load_run_config, main
from dest3d.decoder import DecoderConfig, decoder_weights_init
from dest3d.geometry import Box3D, synth_scene
from dest3d.numerics import PrngStream
from dest3d.sceneio import (
    boxes_sidecar_path,
    load_npz,
    read_boxes_json,
    read_points,
    read_text_points,
    save_npz,
    write_boxes_json,
    write_text_points,
)
from dest3d.verify import SUITE_NAMES
from dest3d.weights_io import flatten_weights, unflatten_weights

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, cwd=None):
    proc = subprocess.run([sys.executable, "-m", "dest3d.cli", *args],
                          capture_output=True, text=True, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr


class TestSceneIO:
    def test_binary_round_trip(self, tmp_path):
        rng = PrngStream(0)
        pos = rng.normal((20, 3))
        col = rng.uniform((20, 3))
        path = tmp_path / "cloud.npz"
        save_npz(path, {"positions": pos, "colors": col})
        pos2, col2 = read_points(path)
        assert pos2.dtype == col2.dtype == np.float64
        np.testing.assert_array_equal(pos2, pos)  # f64 storage: bit-equal
        np.testing.assert_array_equal(col2, col)

    def test_header_layout(self, tmp_path):
        # one .npy member per array, its header declaring little-endian f64
        path = tmp_path / "cloud.npz"
        save_npz(path, {"positions": np.zeros((7, 3))})
        with zipfile.ZipFile(path) as zf:
            assert zf.namelist() == ["positions.npy"]
            member = io.BytesIO(zf.read("positions.npy"))
        np.lib.format.read_magic(member)
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(member)
        assert (shape, fortran, dtype.str) == ((7, 3), False, "<f8")

    def test_bad_magic_rejected(self, tmp_path):
        # without a zip signature a file is read as text, and refused as such
        path = tmp_path / "bogus.npz"
        path.write_bytes(b"NOTAZIP!" + b"\x00" * 20)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: expected 3 or 6"):
            read_points(path)

    @pytest.mark.parametrize("arrays, missing, extra", [
        ({"colors": np.zeros((2, 3))}, ["positions"], []),
        ({}, ["positions"], []),
        ({"positions": np.zeros((2, 3)), "normals": np.zeros((2, 3))}, [], ["normals"]),
        ({f"w{i}": np.zeros(1) for i in range(6)}, ["positions"], ["w0", "w1", "w2", "w3"]),
    ])
    def test_cloud_key_set_refused(self, tmp_path, arrays, missing, extra):
        path = tmp_path / "cloud.npz"
        save_npz(path, arrays)
        with pytest.raises(ValueError) as info:
            read_points(path)
        assert str(info.value) == (f"{path}: a cloud .npz holds 'positions' and optionally "
                                   f"'colors', missing={missing} extra={extra}")

    def test_text_round_trip(self, tmp_path):
        pos = np.array([[0.25, -1.5, 3.0], [1.0, 2.0, 3.0]])
        path = tmp_path / "cloud.txt"
        write_text_points(path, pos)
        pos2, col2 = read_text_points(path)
        np.testing.assert_allclose(pos2, pos, rtol=1e-8)
        assert col2 is None

    def test_text_comments_and_six_columns(self, tmp_path):
        path = tmp_path / "cloud.txt"
        path.write_text("# header\n1 2 3 0.1 0.2 0.3\n\n4 5 6 0.4 0.5 0.6 # tail\n")
        pos, col = read_text_points(path)
        assert pos.shape == (2, 3) and col.shape == (2, 3)

    def test_text_bad_column_count(self, tmp_path):
        path = tmp_path / "cloud.txt"
        path.write_text("1 2\n")
        with pytest.raises(ValueError):
            read_text_points(path)

    def test_read_points_dispatch(self, tmp_path):
        pos = np.ones((3, 3))
        bin_path, txt_path = tmp_path / "a.txt", tmp_path / "b.npz"  # suffixes do not count
        save_npz(bin_path, {"positions": pos})
        write_text_points(txt_path, pos)
        assert read_points(bin_path)[1] is None
        np.testing.assert_array_equal(read_points(bin_path)[0], pos)
        np.testing.assert_allclose(read_points(txt_path)[0], pos, atol=1e-8)

    def test_boxes_sidecar_round_trip(self, tmp_path):
        boxes = [Box3D(center=np.array([1.0, 2, 3]), size=np.ones(3), yaw=0.5,
                       class_id=4)]
        path = boxes_sidecar_path(tmp_path / "scene.npz")
        write_boxes_json(path, boxes)
        loaded = read_boxes_json(path)
        assert len(loaded) == 1
        np.testing.assert_allclose(loaded[0].center, boxes[0].center)
        assert loaded[0].class_id == 4

    def test_no_temp_litter(self, tmp_path):
        save_npz(tmp_path / "x.npz", {"positions": np.zeros((2, 3))})
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


def _npz(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _zip(member: str, payload: bytes) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr(member, payload)
    return buf.getvalue()


def _npy_header(shape) -> bytes:
    """An .npy member holding only a float64 header of this shape."""
    header = repr({"descr": "<f8", "fortran_order": False, "shape": shape}).encode()
    return b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header


_SAVED = _npz(a=np.arange(64.0))

# files load_npz refuses, each with a part of the reason it gives; read as a
# cloud, those without a zip signature go to the text reader instead
MALFORMED_NPZ = {
    "empty": (b"", "not a zip archive"),
    "random bytes": (np.random.default_rng(0).bytes(256), "not a zip archive"),
    "half": (_SAVED[:len(_SAVED) // 2], "not a zip file"),
    "npy": (zipfile.ZipFile(io.BytesIO(_SAVED)).read("a.npy"), "not a zip archive"),
    "txt member": (_zip("notes.txt", b"hello"),
                   "'notes.txt' is not a floating-point array (not an .npy member)"),
    "object": (_npz(a=np.array([None], dtype=object)), "Object arrays cannot be loaded"),
    "V8": (_npz(a=np.zeros(2, dtype="V8")), "'a' is not a floating-point array (dtype |V8)"),
    "M8": (_npz(a=np.zeros(2, dtype="<M8[ns]")),
           "'a' is not a floating-point array (dtype datetime64[ns])"),
    "U2": (_npz(a=np.zeros(2, dtype="<U2")), "'a' is not a floating-point array (dtype <U2)"),
    "int": (_npz(a=np.zeros(2, dtype=np.int64)),
            "'a' is not a floating-point array (dtype int64)"),
    "shape 1e21": (_zip("a.npy", _npy_header((10**21,))), "too large"),
}


class TestWeightsIO:
    def test_round_trip_through_container(self, tmp_path):
        cfg = DecoderConfig(num_layers=2, channels=8, state_dim=8, corr_dim=4,
                            ffn_dim=16, heads=2, num_states=3, num_classes=4)
        w1 = decoder_weights_init(PrngStream(1), cfg)
        flat = flatten_weights(w1)
        path = tmp_path / "weights.npz"
        save_npz(path, flat)
        assert list(tmp_path.iterdir()) == [path]   # no sidecar, no temp file
        w2 = decoder_weights_init(PrngStream(99), cfg)   # different values
        unflatten_weights(w2, load_npz(path))
        flat2 = flatten_weights(w2)
        assert set(flat) == set(flat2)
        for name in flat:
            np.testing.assert_array_equal(np.asarray(flat[name]),
                                          np.asarray(flat2[name]), err_msg=name)

    def test_dtypes_and_byte_order_kept(self, tmp_path):
        arrays = {"a": np.arange(6, dtype=">f8").reshape(2, 3), "b": np.float32([1, 2])}
        path = tmp_path / "w.npz"
        save_npz(path, arrays)
        loaded = load_npz(path)
        assert {k: v.dtype for k, v in loaded.items()} == {k: v.dtype for k, v in arrays.items()}
        np.testing.assert_array_equal(loaded["a"], arrays["a"])
        np.testing.assert_array_equal(loaded["b"], arrays["b"])

    @pytest.mark.parametrize("name", ["file", "allow_pickle"])
    def test_savez_parameter_name_refused(self, tmp_path, name):
        with pytest.raises(ValueError, match="'file' and 'allow_pickle' are np.savez parameters"):
            save_npz(tmp_path / "w.npz", {name: np.zeros(2)})
        assert list(tmp_path.iterdir()) == []

    def test_shape_mismatch_named(self):
        cfg = DecoderConfig(num_layers=1, channels=8, state_dim=8, corr_dim=4,
                            ffn_dim=16, heads=2, num_states=2, num_classes=3)
        w = decoder_weights_init(PrngStream(2), cfg)
        flat = flatten_weights(w)
        flat["head.obj.bias"] = np.zeros((1, 1))
        with pytest.raises(ValueError, match=r"shape mismatch at head\.obj\.bias"):
            unflatten_weights(w, flat)

    @pytest.mark.parametrize("value", [0.0, 1e-300, 1e3])
    def test_positive_transition_rate_named(self, value):
        cfg = DecoderConfig(num_layers=2, channels=8, state_dim=8, corr_dim=4,
                            ffn_dim=16, heads=2, num_states=2, num_classes=3)
        w = decoder_weights_init(PrngStream(2), cfg)
        flat = {name: arr.copy() for name, arr in flatten_weights(w).items()}
        flat["layers.1.ibs.backward.a_vec"][3] = value
        if value == 0.0:  # non-positive: loads
            unflatten_weights(w, flat)
            assert w.layers[1].ibs.backward.a_vec[3] == 0.0
            return
        with pytest.raises(ValueError, match=r"weight layers\.1\.ibs\.backward\.a_vec "
                                             r"must be <= 0 \(a scan transition rate\)"):
            unflatten_weights(w, flat)

    def test_name_mismatch_rejected(self, tmp_path):
        cfg = DecoderConfig(num_layers=1, channels=8, state_dim=8, corr_dim=4,
                            ffn_dim=16, heads=2, num_states=2, num_classes=3)
        w = decoder_weights_init(PrngStream(2), cfg)
        flat = flatten_weights(w)
        flat.pop(sorted(flat)[0])
        with pytest.raises(ValueError):
            unflatten_weights(w, flat)


class TestRunConfig:
    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"num_layers": 2, "bogus_key": 1}))
        with pytest.raises(ValueError, match="unknown config keys"):
            load_run_config(str(path), {})

    def test_flag_overrides_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"num_layers": 2, "seed": 5}))
        cfg, seed = load_run_config(str(path), {"num_layers": 4})
        assert cfg.num_layers == 4
        assert seed == 5

    def test_defaults_without_file(self):
        cfg, seed = load_run_config(None, {})
        assert cfg.num_layers == 6
        assert seed == 0


def unwritable_targets(tmp_path):
    """Output paths no file can be written to, with the message naming each:
    one in a missing directory, and an existing directory."""
    (tmp_path / "existing_dir").mkdir()
    return [(tmp_path / "missing" / "dir" / "s.npz", "[Errno 2] No such file or directory"),
            (tmp_path / "existing_dir", "[Errno 21] Is a directory")]


class TestCliGenScene:
    def test_writes_header_and_sidecar(self, tmp_path):
        code, out, _ = run_cli("gen-scene", "--boxes", "3", "--seed", "7",
                               "-o", str(tmp_path / "scene.npz"))
        assert code == 0
        scene = synth_scene(num_boxes=3, seed=7)
        with np.load(tmp_path / "scene.npz") as npz:
            assert sorted(npz.files) == ["colors", "positions"]
            for name in npz.files:
                assert npz[name].dtype == np.float64
            assert npz["positions"].shape == (3 * 128 + 256, 3)
            np.testing.assert_array_equal(npz["positions"], scene.positions)
            np.testing.assert_array_equal(npz["colors"], scene.colors)
        assert (tmp_path / "scene.boxes.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        for name in ("a.npz", "b.npz"):
            code, _, _ = run_cli("gen-scene", "--boxes", "2", "--seed", "3",
                                 "-o", str(tmp_path / name))
            assert code == 0
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_empty_scene_usage_error(self, tmp_path):
        code, _, err = run_cli("gen-scene", "--boxes", "0", "--noise", "0",
                               "-o", str(tmp_path / "x.npz"))
        assert code == 2
        assert "error" in err.lower()

    @pytest.mark.parametrize("extent", ["inf", "nan"])
    def test_non_finite_extent_named(self, tmp_path, extent):
        code, _, err = run_cli("gen-scene", "--extent", extent,
                               "-o", str(tmp_path / "x.npz"))
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: extent must be finite")

    @pytest.mark.parametrize("fmt, name", [("binary", "x.npz"), ("text", "x.txt")])
    def test_extent_past_float32_written(self, tmp_path, fmt, name):
        # 1e39 is finite in float64, which both formats hold
        code, _, err = run_cli("gen-scene", "--extent", "1e39", "--format", fmt,
                               "-o", str(tmp_path / name))
        assert code == 0, err
        assert err == ""
        positions, _ = read_points(tmp_path / name)
        assert np.isfinite(positions).all() and np.abs(positions).max() > 1e38

    @pytest.mark.parametrize("fmt", ["binary", "text"])
    def test_unwritable_output_named(self, tmp_path, fmt):
        for target, message in unwritable_targets(tmp_path):
            code, out, err = run_cli("gen-scene", "--format", fmt, "-o", str(target))
            assert code == 2
            assert out == ""
            assert err.splitlines() == [f"error: {message}: '{target}'"]
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_negative_seed_named(self, tmp_path):
        code, out, err = run_cli("gen-scene", "--seed", "-5", "-o", str(tmp_path / "x.npz"))
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: seed must be >= 0, got -5"]
        assert list(tmp_path.iterdir()) == []


class TestCliSerialize:
    def test_single_point(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("0.1 0.2 0.3\n")
        code, out, _ = run_cli("serialize", str(path))
        assert code == 0
        assert out.strip() == "0"

    def test_orders_differ_on_lattice(self, tmp_path):
        lines = [f"{x} {y} {z}" for x in range(3) for y in range(3) for z in range(3)]
        path = tmp_path / "lattice.txt"
        path.write_text("\n".join(lines) + "\n")
        _, out_xyz, _ = run_cli("serialize", str(path), "--order", "xyz", "--bits", "2")
        _, out_zyx, _ = run_cli("serialize", str(path), "--order", "zyx", "--bits", "2")
        assert out_xyz != out_zyx

    def test_invalid_order(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("0 0 0\n")
        code, _, _ = run_cli("serialize", str(path), "--order", "abc")
        assert code == 2

    def test_score_flag(self, tmp_path):
        lines = [f"{i} 0 0" for i in range(10)]
        path = tmp_path / "line.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli("serialize", str(path), "--score")
        assert code == 0
        assert "locality_score" in out

    def test_text_field_not_a_number_names_its_line(self, tmp_path):
        path = tmp_path / "cloud.txt"
        path.write_text("1 2 3\n4 x 6\n")
        code, out, err = run_cli("serialize", str(path))
        assert code == 2
        assert out == ""
        assert err.strip() == f"error: {path}:2: could not convert string to float: 'x'"

    @pytest.mark.parametrize("knn", ["0", "-2"])
    def test_score_rejects_knn_below_one(self, tmp_path, knn):
        path = tmp_path / "line.txt"
        path.write_text("".join(f"{i} 0 0\n" for i in range(10)))
        code, out, err = run_cli("serialize", str(path), "--score", "--knn", knn)
        assert code == 2
        assert out == ""
        assert err.strip() == f"error: --knn must be >= 1, got {knn}"


class TestCliDemo:
    @pytest.fixture()
    def scene_path(self, tmp_path):
        code, _, _ = run_cli("gen-scene", "--boxes", "2", "--points-per-box", "24",
                             "--noise", "32", "--seed", "5",
                             "-o", str(tmp_path / "scene.npz"))
        assert code == 0
        return str(tmp_path / "scene.npz")

    def test_contract(self, scene_path):
        code, out, _ = run_cli("demo", scene_path, "--layers", "2", "--states", "4",
                               "--channels", "16", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        det_lines = [json.loads(l) for l in lines[:-1]]
        assert len(det_lines) == 2 * 4
        for d in det_lines:
            assert set(d) == {"layer", "center", "size", "yaw", "class", "score"}
            assert all(s > 0 for s in d["size"])
        summary = json.loads(lines[-1])["summary"]
        assert summary["objectness_focal_loss"] >= 0
        assert np.isfinite(summary["objectness_focal_loss"])

    @pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 12.0 GiB for an array"),
                                     MemoryError()])
    def test_out_of_memory_exits_2(self, exc, monkeypatch, capsys):
        def raises(args):
            raise exc
        monkeypatch.setattr(cli_mod, "_demo_lines", raises)
        code = main(["demo", "scene.npz", "--states", "4"])
        captured = capsys.readouterr()
        err_lines = [l for l in captured.err.splitlines() if l.strip()]
        assert code == 2
        assert captured.out == ""
        assert len(err_lines) == 1 and err_lines[0].startswith("error: out of memory")
        assert str(exc) in err_lines[0]

    def test_over_memory_budget_exits_2(self, scene_path, monkeypatch, capsys):
        import dest3d.decoder as decoder_mod

        # room for the weights, not for the layer's arrays
        cfg = DecoderConfig(num_layers=1, num_states=4, channels=16)
        weights = sum(a.nbytes for a in flatten_weights(
            decoder_weights_init(PrngStream(0), cfg)).values())
        need = decoder_mod.issm._layer_bytes(len(read_points(scene_path)[0]), cfg.num_states,
                                             cfg.channels, cfg.state_dim, cfg.corr_dim,
                                             cfg.kernel_size)
        assert weights < need - 1
        monkeypatch.setattr(decoder_mod, "_physical_memory", lambda: need - 1)
        code = main(["demo", scene_path, "--layers", "1", "--states", "4",
                     "--channels", "16"])
        captured = capsys.readouterr()
        err_lines = [l for l in captured.err.splitlines() if l.strip()]
        assert code == 2
        assert captured.out == ""
        assert len(err_lines) == 1 and err_lines[0].startswith("error: out of memory (M=")
        assert "K=4 states" in err_lines[0]

    def test_weights_over_memory_budget_exit_2(self, scene_path, monkeypatch, capsys):
        import dest3d.decoder as decoder_mod

        monkeypatch.setattr(decoder_mod, "_physical_memory", lambda: 2**20)
        code = main(["demo", scene_path, "--layers", "1000", "--states", "4",
                     "--channels", "16"])
        captured = capsys.readouterr()
        err_lines = [l for l in captured.err.splitlines() if l.strip()]
        assert code == 2
        assert captured.out == ""
        assert len(err_lines) == 1 and err_lines[0].startswith(
            "error: out of memory (1000 layers need about ")
        assert "MiB for their weights, more than the 1 MiB of physical memory" in err_lines[0]

    def test_deterministic_stdout(self, scene_path):
        args = ("demo", scene_path, "--layers", "2", "--states", "4",
                "--channels", "16", "--seed", "1")
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2

    @pytest.fixture()
    def saved(self, scene_path, tmp_path):
        """A one-layer demo run's args, the w.npz it saved and its stdout."""
        args = ("demo", scene_path, "--layers", "1", "--states", "3",
                "--channels", "16", "--seed", "2")
        wpath = tmp_path / "w.npz"
        code, out, _ = run_cli(*args, "--save-weights", str(wpath))
        assert code == 0
        return args, wpath, out

    @staticmethod
    def _run_with(saved, arrays):
        """Save arrays over the fixture's w.npz and rerun its demo on them."""
        args, wpath, _ = saved
        save_npz(wpath, arrays)
        return run_cli(*args, "--weights", str(wpath))

    def test_weights_round_trip_changes_nothing(self, saved):
        args, wpath, out1 = saved
        assert sorted(p.name for p in wpath.parent.iterdir()) == [
            "scene.boxes.json", "scene.npz", "w.npz"]
        _, out2, _ = run_cli(*args, "--weights", str(wpath))
        assert out1 == out2

    def test_unwritable_save_weights_named(self, scene_path, tmp_path):
        before = sorted(tmp_path.rglob("*"))
        for target, message in unwritable_targets(tmp_path):
            code, out, err = run_cli("demo", scene_path, "--layers", "1", "--states", "3",
                                     "--channels", "16", "--save-weights", str(target))
            assert code == 2
            assert out == ""
            assert err.splitlines() == [f"error: {message}: '{target}'"]
        assert sorted(tmp_path.rglob("*")) == sorted(before + [tmp_path / "existing_dir"])

    def test_saved_weights_byte_identical_reruns(self, saved, tmp_path):
        args, wpath, _ = saved
        again = tmp_path / "again.npz"
        code, _, _ = run_cli(*args, "--save-weights", str(again))
        assert code == 0
        assert again.read_bytes() == wpath.read_bytes()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_named(self, scene_path, tmp_path, where):
        args = ["demo", scene_path, "--layers", "1", "--states", "3", "--channels", "16"]
        if where == "flag":
            args += ["--seed", "-1"]
        else:
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps({"seed": -1}))
            args += ["--config", str(cfg_path)]
        code, out, err = run_cli(*args)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: seed must be >= 0, got -1"]

    def test_config_file(self, scene_path, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"num_layers": 1, "num_states": 3,
                                        "channels": 16, "seed": 9}))
        code, out, _ = run_cli("demo", scene_path, "--config", str(cfg_path))
        assert code == 0
        assert len(out.strip().splitlines()) == 3 + 1

    def test_non_finite_weight_exit_2(self, saved):
        arrays = load_npz(saved[1])
        arrays["point_obj_out.weight"][0, 0] = np.nan
        code, out, err = self._run_with(saved, arrays)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "point_obj_out.weight" in err

    def test_positive_transition_rate_exit_2(self, saved):
        # loaded, a_vec = 1e3 made numpy print warnings and the boxes
        # overflow; refused at load it is one line
        arrays = load_npz(saved[1])
        arrays["layers.0.ibs.forward.a_vec"][:] = 1e3
        code, out, err = self._run_with(saved, arrays)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: weight layers.0.ibs.forward.a_vec must be <= 0 "
                                    "(a scan transition rate), got 1000"]

    @pytest.mark.parametrize("entry, edit, named", [
        # the table extent, a constant, stored as if it were a weight
        ("layers.0.table.extent", 0.0, "extra=['layers.0.table.extent']"),
        # a scalar weight stored with two values
        ("layers.0.ibs.alpha_raw", [0.0, 0.0], "shape mismatch at layers.0.ibs.alpha_raw"),
        ("layers.0.table.extent", -1.0, "extra=['layers.0.table.extent']"),
    ])
    def test_malformed_container_exit_2(self, saved, entry, edit, named):
        arrays = load_npz(saved[1])
        arrays[entry] = np.array(edit)
        code, out, err = self._run_with(saved, arrays)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert named in err

    @pytest.mark.parametrize("kind", sorted(MALFORMED_NPZ))
    def test_malformed_weight_file_exit_2(self, scene_path, tmp_path, capsys, kind):
        payload, reason = MALFORMED_NPZ[kind]
        wpath = tmp_path / "w.npz"
        wpath.write_bytes(payload)
        code = main(["demo", scene_path, "--layers", "1", "--states", "3",
                     "--channels", "16", "--weights", str(wpath)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: {wpath}: ") and reason in captured.err

    @pytest.mark.parametrize("names,message", [
        (["head.obj.weight"], "error: initial detection score contains non-finite values"),
        (["point_obj_hidden.weight", "point_obj_out.weight"],
         "error: point objectness contains non-finite values"),
        (["head.cls.weight"],
         "error: initial detection class_logits contains non-finite values"),
    ])
    def test_overflowing_finite_weights_exit_2(self, saved, names, message):
        arrays = load_npz(saved[1])
        for name in names:
            arrays[name][:] = 1e308
        code, out, err = self._run_with(saved, arrays)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == message
        assert "Traceback" not in err

    @pytest.mark.parametrize("name,message", [
        ("head.offset.weight", "error: initial detection center contains non-finite values"),
        ("head.size.weight", "error: initial detection size contains non-finite values"),
        ("head.yaw_sin.weight", "error: initial detection yaw contains non-finite values"),
        ("layers.0.ibs.out_h.weight",
         "error: layer 0 detection center contains non-finite values"),
    ])
    def test_overflowing_box_names_its_source(self, saved, name, message):
        arrays = load_npz(saved[1])
        arrays[name][:] = 1e308
        code, out, err = self._run_with(saved, arrays)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == message
        assert "Traceback" not in err
        # numpy's warnings come as single "warning: ..." lines, each once,
        # without the echoed source line
        warn_lines = err.splitlines()[:-1]
        assert warn_lines and all(l.startswith("warning: ") for l in warn_lines)
        assert len(set(warn_lines)) == len(warn_lines)
        assert ".py:" not in err

    @pytest.mark.parametrize("doc, key", [
        ([], "JSON object"),
        ({"seed": None}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"num_states": 2.5}, "num_states"),
        ({"kernel_size": 2.5}, "kernel_size"),
        ({"serialization_bits": 2.0}, "serialization_bits"),
        ({"serialization_bits": 17}, "serialization_bits"),
        ({"channels": 0}, "channels"),
        ({"corr_dim": 0}, "corr_dim"),
        ({"ffn_dim": 0}, "ffn_dim"),
        ({"heads": 0}, "heads"),
        ({"num_states": True}, "num_states"),
        ({"num_classes": 0}, "num_classes"),
        ({"glu_x": 1}, "glu_x"),
    ])
    def test_malformed_config_exit_2(self, scene_path, tmp_path, doc, key):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(doc))
        code, out, err = run_cli("demo", scene_path, "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc, message", [
        ({}, "must be a JSON list"),
        ([1], "box 0: expected an object"),
        ([{"center": [0, 0, 0]}], "box 0: size must be a list of 3 numbers"),
        ([{"center": [0, 0], "size": [1, 1, 1], "yaw": 0}],
         "box 0: center must be a list of 3 numbers"),
        ([{"center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0},
          {"center": [0, 0, 0], "size": [1, 1, 1], "yaw": "a"}], "box 1: yaw must be a number"),
        ([{"center": [0, 0, 0], "size": [1, 1, 1], "yaw": None}], "box 0: yaw must be a number"),
        ([{"center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0, "class_id": "x"}],
         "box 0: class_id must be an int or null"),
        ([{"center": [0, 0, 0], "size": [1, -1, 1], "yaw": 0}],
         "box 0: box size must be positive"),
    ])
    def test_malformed_box_sidecar_exit_2(self, scene_path, doc, message):
        boxes_sidecar_path(scene_path).write_text(json.dumps(doc))
        code, out, err = run_cli("demo", scene_path, "--layers", "1", "--states", "3",
                                 "--channels", "16")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["demo", "serialize"])
    @pytest.mark.parametrize("kind", sorted(MALFORMED_NPZ) + ["extra key", "weights"])
    def test_malformed_cloud_exit_2(self, tmp_path, capsys, command, kind):
        path = tmp_path / "cloud.npz"
        if kind == "extra key":
            save_npz(path, {"positions": np.zeros((4, 3)), "normals": np.zeros((4, 3))})
            reason = "missing=[] extra=['normals']"
        elif kind == "weights":
            cfg = DecoderConfig(num_layers=1, num_states=3, channels=16)
            arrays = flatten_weights(decoder_weights_init(PrngStream(0), cfg))
            save_npz(path, arrays)
            reason = f"missing=['positions'] extra={sorted(arrays)[:4]}\n"
        else:
            payload, reason = MALFORMED_NPZ[kind]
            path.write_bytes(payload)
            # without a zip signature the file is read, and refused, as text
            reason = {"empty": ": no points found", "random bytes": "codec can't decode",
                      "npy": "codec can't decode"}.get(kind, reason)
        args = ["--layers", "1", "--states", "3", "--channels", "16"] if command == "demo" else []
        code = main([command, str(path), *args])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: {path}") and reason in captured.err

    @pytest.mark.parametrize("command, name", [
        ("demo", "positions"), ("demo", "colors"), ("serialize", "positions")])
    def test_non_finite_npz_cloud_exit_2(self, tmp_path, command, name):
        arrays = {"positions": np.arange(24.0).reshape(8, 3), "colors": np.zeros((8, 3))}
        arrays[name][1, 2] = np.inf
        path = tmp_path / "cloud.npz"
        save_npz(path, arrays)
        args = ["--layers", "1", "--states", "3", "--channels", "16"] if command == "demo" else []
        code, out, err = run_cli(command, str(path), *args)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {name} contains non-finite values"]

    @pytest.mark.parametrize("shape", [(), (5,), (0, 3), (4, 2)])
    def test_misshapen_npz_positions_exit_2(self, tmp_path, capsys, shape):
        path = tmp_path / "cloud.npz"
        save_npz(path, {"positions": np.zeros(shape)})
        code = main(["demo", str(path), "--layers", "1", "--states", "3", "--channels", "16"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")

    def test_non_finite_text_colors_exit_2(self, tmp_path):
        path = tmp_path / "cloud.txt"
        path.write_text("".join(f"{i} {i % 3} {i % 5} 0.5 nan 0.5\n" for i in range(8)))
        code, out, err = run_cli("demo", str(path), "--layers", "1", "--states", "3",
                                 "--channels", "16")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: colors contains non-finite values"]

    @pytest.mark.parametrize("where", ["config", "sidecar", "weights"])
    def test_invalid_json_exit_2(self, scene_path, tmp_path, where):
        truncated = '{"num_layers": 2,'
        args = ["demo", scene_path, "--layers", "1", "--states", "3", "--channels", "16"]
        if where == "config":
            path = tmp_path / "run.json"
            path.write_text(truncated)
            args += ["--config", str(path)]
        elif where == "sidecar":
            path = boxes_sidecar_path(scene_path)
            path.write_text(truncated)
        else:  # half of a saved weight container
            path = tmp_path / "w.npz"
            cfg = DecoderConfig(num_layers=1, num_states=3, channels=16)
            save_npz(path, flatten_weights(decoder_weights_init(PrngStream(0), cfg)))
            path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
            args += ["--weights", str(path)]
        code, out, err = run_cli(*args)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")
        assert "Traceback" not in err

    def test_unknown_config_key_exit_2(self, scene_path, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"frobnicate": True}))
        code, _, _ = run_cli("demo", scene_path, "--config", str(cfg_path))
        assert code == 2


class TestCliVerify:
    def test_single_suite_json(self):
        code, out, _ = run_cli("verify", "--suite", "attn_recurrence",
                               "--seeds", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["suite"] == "attn_recurrence"
        assert doc[0]["pass"] is True

    def test_negative_control(self):
        code, out, _ = run_cli("verify", "--suite", "scan_chunked", "--seeds", "2",
                               "--inject-error")
        assert code == 1
        assert "FAIL" in out

    def test_failing_suites_still_print_valid_json(self, capsys):
        # every suite fails, delay_monotone on a check computed in numpy
        # scalars; the output must stay JSON
        assert main(["verify", "--json", "--inject-error"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [r["suite"] for r in doc] == list(SUITE_NAMES)
        assert all(r["pass"] is False for r in doc)

    def test_json_reports_only_the_gated_error(self, capsys):
        assert main(["verify", "--json", "--seeds", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["suite"] for r in doc] == list(SUITE_NAMES)
        for r in doc:
            assert set(r) == {"suite", "max_abs_err", "cases", "tolerance", "pass"}

    def test_unknown_suite_exit_2(self):
        code, _, _ = run_cli("verify", "--suite", "bogus")
        assert code == 2


class TestCliBench:
    def test_small_run(self):
        code, out, err = run_cli("bench", "--m-list", "64,128", "--repeats", "3")
        assert code == 0
        assert err == ""
        lines = out.strip().splitlines()
        assert len([l for l in lines if l.strip() and l.lstrip()[0].isdigit()]) == 2
        assert len([l for l in lines if l.startswith("decoder layer log-log slope: ")]) == 1

    @pytest.mark.parametrize("args,named", [
        (("--m-list", "64"), "at least two sizes"),
        (("--m-list", "64,64"), "strictly ascending"),
        (("--m-list", "128,64"), "strictly ascending"),
        (("--m-list", "0,64"), "sizes must be >= 16, the decoder's states, got 0"),
        (("--m-list", "8,64"), "sizes must be >= 16, the decoder's states, got 8"),
    ])
    def test_rejects_sizes_it_cannot_fit(self, args, named, monkeypatch, capsys):
        # run in-process; every case is refused before the timing child starts
        def no_child(*args, **kw):
            raise AssertionError("the timing process started")
        monkeypatch.setattr(subprocess, "run", no_child)
        code = main(["bench", "--m-list", "64,128", "--repeats", "3", *args])
        out, err = capsys.readouterr()
        err_lines = [l for l in err.splitlines() if l.strip()]
        assert code == 2
        assert out == ""
        assert len(err_lines) == 1 and err_lines[0].startswith("error:")
        assert named in err_lines[0]

    def test_sizes_beyond_physical_memory_exit_2(self):
        # refused before the timing process allocates anything
        code, out, err = run_cli("bench", "--m-list", "1000000000,2000000000")
        err_lines = [l for l in err.splitlines() if l.strip()]
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert len(err_lines) == 1 and err_lines[0].startswith("error: out of memory (sizes ")

    @pytest.mark.parametrize("returncode,stderr,named", [
        # what a kill by the OS's out-of-memory handler looks like
        (-9, "", "error: complexity_bench timing process was killed by signal 9"),
        (1, "Traceback (most recent call last):\n  ...\nMemoryError\n",
         "error: complexity_bench timing process exited with status 1: MemoryError"),
    ])
    def test_failed_timing_process_exit_2(self, returncode, stderr, named, monkeypatch,
                                          capsys):
        monkeypatch.setattr(subprocess, "run", lambda cmd, **kw: subprocess.CompletedProcess(
            cmd, returncode, "", stderr))
        code = main(["bench", "--m-list", "64,128", "--repeats", "3"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.splitlines() == [named]

    def test_no_stderr_without_threadpoolctl(self, monkeypatch, capsys):
        # None in sys.modules makes any import of threadpoolctl raise, so the
        # run shows that bench neither needs it nor warns about its absence
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        code = main(["bench", "--m-list", "64,128", "--repeats", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert "slope" in captured.out


def test_readme_cli_block_runs(tmp_path):
    """Every dest3d line of README's CLI block but bench exits 0, in order."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("dest3d ") and not line.startswith("dest3d bench")]
    assert [c[1] for c in commands] == ["gen-scene", "serialize", "demo", "verify", "verify"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "dest3d", *argv[1:]], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)
