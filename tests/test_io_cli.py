import json
import struct
import subprocess
import sys

import numpy as np
import pytest

import dest3d.cli as cli_mod
import dest3d.verify as verify_mod
from dest3d.cli import load_run_config, main
from dest3d.decoder import DecoderConfig, decoder_weights_init
from dest3d.geometry import Box3D
from dest3d.numerics import PrngStream
from dest3d.sceneio import (
    MAGIC,
    boxes_sidecar_path,
    read_boxes_json,
    read_destpc,
    read_points,
    read_text_points,
    write_boxes_json,
    write_destpc,
    write_text_points,
)
from dest3d.weights_io import flatten_weights, load_weights, save_weights, unflatten_weights


def run_cli(*args, cwd=None):
    proc = subprocess.run([sys.executable, "-m", "dest3d.cli", *args],
                          capture_output=True, text=True, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr


class TestSceneIO:
    def test_binary_round_trip(self, tmp_path):
        rng = PrngStream(0)
        pos = rng.normal((20, 3))
        col = rng.uniform((20, 3))
        path = tmp_path / "cloud.destpc"
        write_destpc(path, pos, col)
        pos2, col2 = read_destpc(path)
        np.testing.assert_allclose(pos2, pos, atol=1e-6)  # f32 storage
        np.testing.assert_allclose(col2, col, atol=1e-6)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "cloud.destpc"
        write_destpc(path, np.zeros((7, 3)))
        raw = path.read_bytes()
        assert raw[:8] == MAGIC
        m, has_color = struct.unpack_from("<IB3x", raw, 8)
        assert m == 7 and has_color == 0
        assert len(raw) == 16 + 7 * 12

    @pytest.mark.parametrize("field", ["positions", "colors"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1e39])
    def test_not_finite_in_float32_refused(self, tmp_path, field, value):
        arrays = {"positions": np.zeros((2, 3)), "colors": np.zeros((2, 3))}
        arrays[field][1, 2] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite in float32"):
            write_destpc(tmp_path / "x.destpc", **arrays)
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.destpc"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 20)
        with pytest.raises(ValueError):
            read_destpc(path)

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
        bin_path, txt_path = tmp_path / "a.destpc", tmp_path / "b.txt"
        write_destpc(bin_path, pos)
        write_text_points(txt_path, pos)
        np.testing.assert_allclose(read_points(bin_path)[0], pos, atol=1e-6)
        np.testing.assert_allclose(read_points(txt_path)[0], pos, atol=1e-8)

    def test_boxes_sidecar_round_trip(self, tmp_path):
        boxes = [Box3D(center=np.array([1.0, 2, 3]), size=np.ones(3), yaw=0.5,
                       class_id=4)]
        path = boxes_sidecar_path(tmp_path / "scene.destpc")
        write_boxes_json(path, boxes)
        loaded = read_boxes_json(path)
        assert len(loaded) == 1
        np.testing.assert_allclose(loaded[0].center, boxes[0].center)
        assert loaded[0].class_id == 4

    def test_no_temp_litter(self, tmp_path):
        write_destpc(tmp_path / "x.destpc", np.zeros((2, 3)))
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestWeightsIO:
    def test_round_trip_through_container(self, tmp_path):
        cfg = DecoderConfig(num_layers=2, channels=8, state_dim=8, corr_dim=4,
                            ffn_dim=16, heads=2, num_states=3, num_classes=4)
        w1 = decoder_weights_init(PrngStream(1), cfg)
        flat = flatten_weights(w1)
        path = tmp_path / "weights.bin"
        save_weights(path, flat)
        assert (tmp_path / "weights.manifest.json").exists()
        w2 = decoder_weights_init(PrngStream(99), cfg)   # different values
        unflatten_weights(w2, load_weights(path))
        flat2 = flatten_weights(w2)
        assert set(flat) == set(flat2)
        for name in flat:
            np.testing.assert_array_equal(np.asarray(flat[name]),
                                          np.asarray(flat2[name]), err_msg=name)

    def test_manifest_offsets(self, tmp_path):
        arrays = {"a": np.arange(6, dtype=np.float64).reshape(2, 3),
                  "b": np.float32([1, 2])}
        path = tmp_path / "w.bin"
        save_weights(path, arrays)
        manifest = json.loads((tmp_path / "w.manifest.json").read_text())
        assert manifest["a"]["shape"] == [2, 3]
        assert manifest["a"]["offset"] == 0
        assert manifest["b"]["offset"] == 48
        loaded = load_weights(path)
        np.testing.assert_array_equal(loaded["a"], arrays["a"])
        np.testing.assert_array_equal(loaded["b"], arrays["b"])

    @pytest.mark.parametrize("field,value,message", [
        ("offset", 10_000, "outside the 60-byte file"),
        ("offset", -8, "outside the 60-byte file"),
        ("nbytes", 40, "nbytes 40 != 6 x 8 bytes"),
        ("dtype", "no-such-dtype", "bad field"),
        ("shape", "ab", "bad field"),
        ("shape", [-6], "nbytes 48 != -6 x 8 bytes"),
        ("dtype", "V8", "dtype 'V8' is not a floating-point type"),
        ("dtype", "<M8[ns]", r"dtype '<M8\[ns\]' is not a floating-point type"),
        ("dtype", "O", "dtype 'O' is not a floating-point type"),
        ("shape", [6.0], r"bad field shape \[6.0\] is not a list of ints"),
        ("shape", [True], r"bad field shape \[True\] is not a list of ints"),
        ("shape", None, "bad field shape None is not a list of ints"),
        ("shape", [-2, -3], r"shape \[-2, -3\] has a negative dimension"),
        ("offset", 8.7, "bad field offset 8.7 and nbytes 48 must be ints"),
        ("offset", True, "bad field offset True and nbytes 48 must be ints"),
        ("offset", "0", "bad field offset '0' and nbytes 48 must be ints"),
        ("offset", 1.0, "bad field offset 1.0 and nbytes 48 must be ints"),
        ("nbytes", 48.0, "bad field offset 0 and nbytes 48.0 must be ints"),
        ("nbytes", "48", "bad field offset 0 and nbytes '48' must be ints"),
    ])
    def test_bad_manifest_entry_named(self, tmp_path, field, value, message):
        path = tmp_path / "w.bin"
        save_weights(path, {"a": np.arange(6, dtype=np.float64),
                            "b": np.float32([1, 2, 3])})
        mpath = tmp_path / "w.manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["a"][field] = value
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"entry 'a'.*{message}"):
            load_weights(path)

    def test_manifest_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(path, {"a": np.arange(6, dtype=np.float64)})
        (tmp_path / "w.manifest.json").write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_weights(path)

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
        from dest3d.cli import UsageError
        with pytest.raises(UsageError):
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


class TestCliGenScene:
    def test_writes_header_and_sidecar(self, tmp_path):
        code, out, _ = run_cli("gen-scene", "--boxes", "3", "--seed", "7",
                               "-o", str(tmp_path / "scene.destpc"))
        assert code == 0
        raw = (tmp_path / "scene.destpc").read_bytes()
        assert raw[:8] == MAGIC
        m, _ = struct.unpack_from("<IB3x", raw, 8)
        assert m == 3 * 128 + 256
        assert (tmp_path / "scene.boxes.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        for name in ("a.destpc", "b.destpc"):
            code, _, _ = run_cli("gen-scene", "--boxes", "2", "--seed", "3",
                                 "-o", str(tmp_path / name))
            assert code == 0
        assert (tmp_path / "a.destpc").read_bytes() == (tmp_path / "b.destpc").read_bytes()

    def test_empty_scene_usage_error(self, tmp_path):
        code, _, err = run_cli("gen-scene", "--boxes", "0", "--noise", "0",
                               "-o", str(tmp_path / "x.destpc"))
        assert code == 2
        assert "error" in err.lower()

    @pytest.mark.parametrize("extent", ["inf", "nan"])
    def test_non_finite_extent_named(self, tmp_path, extent):
        code, _, err = run_cli("gen-scene", "--extent", extent,
                               "-o", str(tmp_path / "x.destpc"))
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: extent must be finite")

    def test_extent_past_float32_refused_before_writing(self, tmp_path):
        # 1e39 is finite in f64 but not in DESTPC1's float32: nothing is
        # written, and numpy's cast warning is not printed
        code, out, err = run_cli("gen-scene", "--extent", "1e39",
                                 "-o", str(tmp_path / "x.destpc"))
        assert code == 2
        assert out == ""
        assert "Traceback" not in err and "warning" not in err.lower()
        assert err.splitlines() == [
            "error: positions must be finite in float32 (DESTPC1 stores float32, "
            "|value| <= 3.403e+38)"]
        assert list(tmp_path.iterdir()) == []
        # the text format holds the same scene
        code, _, err = run_cli("gen-scene", "--extent", "1e39", "--format", "text",
                               "-o", str(tmp_path / "x.txt"))
        assert code == 0, err
        positions, _ = read_text_points(tmp_path / "x.txt")
        assert np.isfinite(positions).all() and np.abs(positions).max() > 1e38


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
                             "-o", str(tmp_path / "scene.destpc"))
        assert code == 0
        return str(tmp_path / "scene.destpc")

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
        code = main(["demo", "scene.destpc", "--states", "4"])
        captured = capsys.readouterr()
        err_lines = [l for l in captured.err.splitlines() if l.strip()]
        assert code == 2
        assert captured.out == ""
        assert len(err_lines) == 1 and err_lines[0].startswith("error: out of memory")
        assert str(exc) in err_lines[0]

    def test_over_memory_budget_exits_2(self, scene_path, monkeypatch, capsys):
        import dest3d.decoder as decoder_mod

        monkeypatch.setattr(decoder_mod, "_physical_memory", lambda: 1)
        code = main(["demo", scene_path, "--layers", "1", "--states", "4",
                     "--channels", "16"])
        captured = capsys.readouterr()
        err_lines = [l for l in captured.err.splitlines() if l.strip()]
        assert code == 2
        assert captured.out == ""
        assert len(err_lines) == 1 and err_lines[0].startswith("error: out of memory (M=")
        assert "K=4 states" in err_lines[0]

    def test_deterministic_stdout(self, scene_path):
        args = ("demo", scene_path, "--layers", "2", "--states", "4",
                "--channels", "16", "--seed", "1")
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2

    def test_weights_round_trip_changes_nothing(self, scene_path, tmp_path):
        wpath = str(tmp_path / "w.bin")
        args = ("demo", scene_path, "--layers", "1", "--states", "3",
                "--channels", "16", "--seed", "2")
        _, out1, _ = run_cli(*args, "--save-weights", wpath)
        _, out2, _ = run_cli(*args, "--weights", wpath)
        assert out1 == out2

    def test_config_file(self, scene_path, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"num_layers": 1, "num_states": 3,
                                        "channels": 16, "seed": 9}))
        code, out, _ = run_cli("demo", scene_path, "--config", str(cfg_path))
        assert code == 0
        assert len(out.strip().splitlines()) == 3 + 1

    def test_non_finite_weight_exit_2(self, scene_path, tmp_path):
        wpath = tmp_path / "w.bin"
        args = ("demo", scene_path, "--layers", "1", "--states", "3",
                "--channels", "16", "--seed", "2")
        assert run_cli(*args, "--save-weights", str(wpath))[0] == 0
        arrays = load_weights(wpath)
        arrays["point_obj_out.weight"][0, 0] = np.nan
        save_weights(wpath, arrays)
        code, out, err = run_cli(*args, "--weights", str(wpath))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "point_obj_out.weight" in err

    def test_positive_transition_rate_exit_2(self, scene_path, tmp_path):
        # loaded, a_vec = 1e3 made numpy print warnings and the second
        # layer's boxes overflow; refused at load it is one line
        wpath = tmp_path / "w.bin"
        args = ("demo", scene_path, "--layers", "2", "--states", "3",
                "--channels", "16", "--seed", "2")
        assert run_cli(*args, "--save-weights", str(wpath))[0] == 0
        arrays = load_weights(wpath)
        arrays["layers.1.ibs.forward.a_vec"][:] = 1e3
        save_weights(wpath, arrays)
        code, out, err = run_cli(*args, "--weights", str(wpath))
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: weight layers.1.ibs.forward.a_vec must be <= 0 "
                                    "(a scan transition rate), got 1000"]

    def test_manifest_offset_past_end_exit_2(self, scene_path, tmp_path):
        wpath = tmp_path / "w.bin"
        args = ("demo", scene_path, "--layers", "1", "--states", "3",
                "--channels", "16", "--seed", "2")
        assert run_cli(*args, "--save-weights", str(wpath))[0] == 0
        mpath = tmp_path / "w.manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["head.obj.bias"]["offset"] = wpath.stat().st_size
        mpath.write_text(json.dumps(manifest))
        code, out, err = run_cli(*args, "--weights", str(wpath))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "'head.obj.bias'" in err

    @pytest.mark.parametrize("entry, edit, named", [
        # a manifest shape that is not a list of ints
        ("head.obj.bias", {"shape": [1.0]}, "'head.obj.bias': bad field shape"),
        # a scalar weight stored with two values
        ("layers.0.ibs.alpha_raw", {"shape": [2], "nbytes": 16},
         "shape mismatch at layers.0.ibs.alpha_raw"),
        # the table extent, a constant, stored as if it were a weight
        ("layers.0.table.extent", 0.0, "extra=['layers.0.table.extent']"),
        ("layers.0.table.extent", -1.0, "extra=['layers.0.table.extent']"),
        # offsets that int() would truncate (8.7) or read from byte 1 (true, 1.0)
        ("head.obj.bias", {"offset": 8.7}, "'head.obj.bias': bad field offset 8.7"),
        ("head.obj.bias", {"offset": True}, "'head.obj.bias': bad field offset True"),
        ("head.obj.bias", {"offset": "0"}, "'head.obj.bias': bad field offset '0'"),
        ("head.obj.bias", {"offset": 1.0}, "'head.obj.bias': bad field offset 1.0"),
    ])
    def test_malformed_container_exit_2(self, scene_path, tmp_path, entry, edit, named):
        wpath = tmp_path / "w.bin"
        args = ("demo", scene_path, "--layers", "1", "--states", "3",
                "--channels", "16", "--seed", "2")
        assert run_cli(*args, "--save-weights", str(wpath))[0] == 0
        if isinstance(edit, dict):
            mpath = tmp_path / "w.manifest.json"
            manifest = json.loads(mpath.read_text())
            manifest[entry].update(edit)
            mpath.write_text(json.dumps(manifest))
        else:
            arrays = load_weights(wpath)
            arrays[entry] = np.array(edit)
            save_weights(wpath, arrays)
        code, out, err = run_cli(*args, "--weights", str(wpath))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert named in err

    @pytest.mark.parametrize("dtype", ["V8", "<M8[ns]", "O"])
    def test_non_float_manifest_dtype_exit_2(self, scene_path, tmp_path, dtype):
        wpath = tmp_path / "w.bin"
        args = ("demo", scene_path, "--layers", "1", "--states", "3",
                "--channels", "16", "--seed", "2")
        assert run_cli(*args, "--save-weights", str(wpath))[0] == 0
        mpath = tmp_path / "w.manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["head.obj.bias"]["dtype"] = dtype
        mpath.write_text(json.dumps(manifest))
        code, out, err = run_cli(*args, "--weights", str(wpath))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "'head.obj.bias'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("names,message", [
        (["head.obj.weight"], "error: layer 0 detection score contains non-finite values"),
        (["point_obj_hidden.weight", "point_obj_out.weight"],
         "error: point objectness contains non-finite values"),
    ])
    def test_overflowing_finite_weights_exit_2(self, scene_path, tmp_path, names, message):
        wpath = tmp_path / "w.bin"
        args = ("demo", scene_path, "--layers", "1", "--states", "3",
                "--channels", "16", "--seed", "2")
        assert run_cli(*args, "--save-weights", str(wpath))[0] == 0
        arrays = load_weights(wpath)
        for name in names:
            arrays[name][:] = 1e308
        save_weights(wpath, arrays)
        code, out, err = run_cli(*args, "--weights", str(wpath))
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
    def test_overflowing_box_names_its_source(self, scene_path, tmp_path, name, message):
        wpath = tmp_path / "w.bin"
        args = ("demo", scene_path, "--layers", "1", "--states", "3",
                "--channels", "16", "--seed", "2")
        assert run_cli(*args, "--save-weights", str(wpath))[0] == 0
        arrays = load_weights(wpath)
        arrays[name][:] = 1e308
        save_weights(wpath, arrays)
        code, out, err = run_cli(*args, "--weights", str(wpath))
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

    def test_unknown_suite_exit_2(self):
        code, _, _ = run_cli("verify", "--suite", "bogus")
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "-1e-3", "inf"])
    def test_bad_tolerance_exit_2(self, tol):
        code, out, err = run_cli("verify", "--suite", "scan_chunked", "--seeds", "1",
                                 f"--tol={tol}")
        assert code == 2
        assert "FAIL" not in out
        assert err.startswith("error: tol must be finite and >= 0")


class TestCliBench:
    def test_small_run(self):
        code, out, err = run_cli("bench", "--m-list", "64,128", "--k", "2",
                                 "--e", "4", "--repeats", "3")
        assert code == 0
        assert err == ""
        lines = out.strip().splitlines()
        assert len([l for l in lines if l.strip() and l.lstrip()[0].isdigit()]) == 2
        assert "slope" in out

    @pytest.mark.parametrize("args,named", [
        (("--m-list", "64"), "at least two sizes"),
        (("--m-list", "64,64"), "strictly ascending"),
        (("--m-list", "128,64"), "strictly ascending"),
        (("--m-list", "0,64"), "sizes must be >= 1, got 0"),
        (("--k", "0"), "k must be >= 1, got 0"),
        (("--e", "0"), "e must be >= 1, got 0"),
        (("--threads", "0"), "threads must be >= 1, got 0"),
        (("--threads", "-1"), "threads must be >= 1, got -1"),
        (("--threads", "3"), "threads must be <= 2, the CPUs this process may run on, got 3"),
    ])
    def test_rejects_sizes_it_cannot_fit(self, args, named, monkeypatch, capsys):
        # run in-process, with two CPUs forced, so --threads 3 is refused on
        # any machine; every case is refused before the timing child starts
        monkeypatch.setattr(verify_mod, "_cpu_count", lambda: 2)

        def no_child(*args, **kw):
            raise AssertionError("the timing process started")
        monkeypatch.setattr(subprocess, "run", no_child)
        code = main(["bench", "--m-list", "64,128", "--k", "2", "--e", "4",
                     "--repeats", "3", *args])
        out, err = capsys.readouterr()
        err_lines = [l for l in err.splitlines() if l.strip()]
        assert code == 2
        assert out == ""
        assert len(err_lines) == 1 and err_lines[0].startswith("error:")
        assert named in err_lines[0]

    def test_sizes_beyond_physical_memory_exit_2(self):
        # refused before the timing process allocates anything
        code, out, err = run_cli("bench", "--m-list", "1000000000,2000000000", "--k", "64")
        err_lines = [l for l in err.splitlines() if l.strip()]
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert len(err_lines) == 1 and err_lines[0].startswith("error: out of memory (sizes ")

    def test_no_stderr_without_threadpoolctl(self, monkeypatch, capsys):
        # None in sys.modules makes any import of threadpoolctl raise, so the
        # run shows that bench neither needs it nor warns about its absence
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        code = main(["bench", "--m-list", "64,128", "--k", "2", "--e", "4",
                     "--repeats", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert "slope" in captured.out
