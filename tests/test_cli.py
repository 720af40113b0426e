import io
import logging
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from dmmaction import SynthSpec, dmm, extract_sample, generate_synthetic_dataset, read_manifest
from dmmaction.cli import main
from dmmaction.config import config_to_text
from dmmaction.videoio import read_image
from conftest import desk_config, run_python_in_c_locale


def _run(argv):
    """Run the CLI in-process, returning (exit code, captured stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Synth a dataset and train a plan once; later tests reuse both."""
    root = tmp_path_factory.mktemp("cliws")
    cfg_path = root / "desk.cfg"
    cfg_path.write_text(config_to_text(desk_config()))
    data = root / "data"
    code, synth_out = _run(
        ["synth", "--out", str(data), "--seed", "1", "--actions", "slide,bob",
         "--subjects", "4", "--cameras", "1", "--frames", "20"]
    )
    assert code == 0
    manifest = data / "manifest.tsv"
    plan = root / "plan"
    code, train_out = _run(
        ["train", "--manifest", str(manifest), "--out", str(plan),
         "--config", str(cfg_path)]
    )
    assert code == 0
    return SimpleNamespace(
        root=root,
        cfg=cfg_path,
        manifest=manifest,
        plan=plan,
        synth_out=synth_out,
        train_out=train_out,
    )


class TestSynth:
    def test_prints_manifest_path(self, tmp_path):
        code, out = _run(
            ["synth", "--out", str(tmp_path / "d"), "--seed", "3",
             "--actions", "slide,bob", "--subjects", "2", "--cameras", "1",
             "--frames", "6", "--width", "32", "--height", "24"]
        )
        assert code == 0
        printed = Path(out.strip())
        assert printed == tmp_path / "d" / "manifest.tsv"
        assert len(read_manifest(printed)) == 4

    def test_defaults_are_synth_spec_defaults(self, tmp_path):
        code, _ = _run(["synth", "--out", str(tmp_path / "cli")])
        assert code == 0
        generate_synthetic_dataset(tmp_path / "lib", SynthSpec(), seed=0)
        cli = sorted(p.relative_to(tmp_path / "cli") for p in (tmp_path / "cli").rglob("*"))
        lib = sorted(p.relative_to(tmp_path / "lib") for p in (tmp_path / "lib").rglob("*"))
        assert cli == lib
        assert Path("manifest.tsv") in cli
        for rel in cli:
            a, b = tmp_path / "cli" / rel, tmp_path / "lib" / rel
            assert a.is_file() == b.is_file()
            if a.is_file():
                assert a.read_bytes() == b.read_bytes(), rel

    def test_single_action_exits_nonzero(self, tmp_path):
        code, _ = _run(
            ["synth", "--out", str(tmp_path / "d"), "--actions", "slide"]
        )
        assert code == 2


class TestTrain:
    def test_summary_line(self, ws):
        assert f"trained 7 of 7 streams on 4 samples -> {ws.plan}" in ws.train_out

    def test_plan_layout(self, ws):
        assert (ws.plan / "config.txt").is_file()
        assert (ws.plan / "labels.txt").is_file()
        # one model file per (pose, window, angle) slot and per appearance stream
        assert len(list((ws.plan / "streams").glob("*.models"))) == 3

    def test_unknown_subject_exits_nonzero(self, ws, tmp_path):
        code, _ = _run(
            ["train", "--manifest", str(ws.manifest), "--out", str(tmp_path),
             "--config", str(ws.cfg), "--train-subjects", "s99"]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "split, flag",
        [
            ("cross-subject", "--train-cameras"),
            ("cross-view", "--train-subjects"),
            ("one-third", "--train-subjects"),
            ("two-thirds", "--train-cameras"),
        ],
    )
    def test_flag_the_split_does_not_use_exits_two_with_one_error_line(
        self, ws, tmp_path, caplog, command, split, flag
    ):
        if command == "train":
            where = ["--out", str(tmp_path / "plan"), "--config", str(ws.cfg)]
        else:
            where = ["--plan", str(ws.plan)]
        with caplog.at_level(logging.ERROR):
            code, out = _run(
                [command, "--manifest", str(ws.manifest), *where, "--split", split, flag, "s00"]
            )
        assert code == 2
        assert out == ""
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [r.getMessage() for r in errors] == [
            f"the {split} protocol does not use {flag[2:].replace('-', '_')}"
        ]
        assert not (tmp_path / "plan").exists()


@pytest.fixture(scope="module")
def umlaut_ws(ws, tmp_path_factory):
    """A one-stream plan trained on ws's records with the label bob spelt b\u00f6b."""
    root = tmp_path_factory.mktemp("umlaut")
    rows = []
    for rec in read_manifest(ws.manifest):
        label = "b\u00f6b" if rec.label == "bob" else rec.label
        rows.append(f"{rec.depth_path}\t-\t{label}\t{rec.subject}\t{rec.camera}\t{rec.pose}")
    manifest = root / "manifest.tsv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = root / "small.cfg"
    cfg.write_text(config_to_text(desk_config(planes=("xy",), angles=(0.0,), rgb_windows=())))
    code, _ = _run(["train", "--manifest", str(manifest), "--out", str(root / "plan"),
                    "--config", str(cfg)])
    assert code == 0
    return SimpleNamespace(manifest=manifest, plan=root / "plan")


class TestEval:
    def test_csv_and_text_report(self, ws, tmp_path):
        csv_path = tmp_path / "report.csv"
        code, out = _run(
            ["eval", "--manifest", str(ws.manifest), "--plan", str(ws.plan),
             "--out", str(csv_path)]
        )
        assert code == 0
        assert "cross-subject" in out
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("overall_accuracy,")
        assert any(line.startswith("n_test,4") for line in lines)

    def test_csv_written_as_utf8_under_c_locale(self, umlaut_ws, tmp_path):
        csv_path = tmp_path / "report.csv"
        done = run_python_in_c_locale(
            "-m", "dmmaction.cli", "eval", "--manifest", str(umlaut_ws.manifest),
            "--plan", str(umlaut_ws.plan), "--out", str(csv_path),
        )
        assert done.returncode == 0, done.stderr
        assert "truth\\prediction,b\u00f6b,slide" in csv_path.read_text(encoding="utf-8")
        # stdout is ASCII here: the label it cannot encode comes out escaped
        assert "b\\xf6b" in done.stdout

    def test_csv_optional(self, ws, tmp_path):
        code, out = _run(
            ["eval", "--manifest", str(ws.manifest), "--plan", str(ws.plan)]
        )
        assert code == 0
        assert out
        assert list(tmp_path.iterdir()) == []


class TestClassify:
    def test_non_ascii_label_under_c_locale(self, umlaut_ws):
        done = run_python_in_c_locale(
            "-m", "dmmaction.cli", "classify", "--manifest", str(umlaut_ws.manifest),
            "--plan", str(umlaut_ws.plan),
        )
        assert done.returncode == 0, done.stderr
        labels = {line.split("\t")[1] for line in done.stdout.splitlines()}
        assert labels <= {"b\\xf6b", "slide"} and "b\\xf6b" in labels

    def test_single_record_line(self, ws):
        code, out = _run(
            ["classify", "--manifest", str(ws.manifest), "--plan", str(ws.plan),
             "--index", "0"]
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        path, label, peak = lines[0].split("\t")
        assert path == str(read_manifest(ws.manifest)[0].depth_path)
        assert label in ("slide", "bob")
        assert 0.0 < float(peak) <= 1.0

    def test_all_records(self, ws):
        code, out = _run(
            ["classify", "--manifest", str(ws.manifest), "--plan", str(ws.plan)]
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8
        assert all(line.split("\t")[1] in ("slide", "bob") for line in lines)


class TestExtract:
    def test_npz_per_sample(self, ws, tmp_path):
        mini = ws.manifest.parent / "mini.tsv"
        mini.write_text(ws.manifest.read_text().splitlines()[0] + "\n")
        out = tmp_path / "feats"
        code, _ = _run(
            ["extract", "--manifest", str(mini), "--out", str(out),
             "--config", str(ws.cfg)]
        )
        assert code == 0
        files = sorted(out.glob("*.npz"))
        assert [f.name for f in files] == ["sample_0000.npz"]
        # One array per slot clip: the three plane streams of a depth slot
        # share one concatenated vector, stored once.
        want = extract_sample(read_manifest(mini)[0], desk_config()).features
        with np.load(files[0]) as npz:
            assert list(want) == ["standing/dmm/w5/a0", "standing/dmm/w5/a30", "standing/rgb/r10"]
            keys = [f"{slot}|{j}" for slot, feats in want.items() for j in range(len(feats))]
            assert npz.files == keys
            for slot, feats in want.items():
                for j, f in enumerate(feats):
                    got = npz[f"{slot}|{j}"]
                    assert got.dtype == np.float64
                    assert got.shape == ((64,) if "/rgb/" in slot else (192,))
                    assert got.tobytes() == f.tobytes()


class TestRenderDmm:
    def test_full_window(self, ws, tmp_path):
        depth = read_manifest(ws.manifest)[0].depth_path
        out = tmp_path / "dmm.ppm"
        code, printed = _run(
            ["render-dmm", "--depth", str(depth), "--out", str(out),
             "--config", str(ws.cfg), "--plane", "xy", "--window", "all"]
        )
        assert code == 0
        assert printed.strip() == str(out)
        img = read_image(out)
        assert img.shape == (32, 32, 3)
        assert img.max() > 0

    def test_numeric_window(self, ws, tmp_path):
        depth = read_manifest(ws.manifest)[0].depth_path
        out = tmp_path / "w5.ppm"
        code, _ = _run(
            ["render-dmm", "--depth", str(depth), "--out", str(out),
             "--config", str(ws.cfg), "--plane", "yz", "--window", "5",
             "--t", "3"]
        )
        assert code == 0
        assert read_image(out).shape == (32, 32, 3)


class TestRenderDmmMatchesPipeline:
    @pytest.mark.parametrize("bypass", [False, True])
    def test_image_equals_extracted_template(self, ws, tmp_path, bypass):
        cfg = desk_config(angles=(30.0,), bypass_view_synthesis=bypass)
        cfg_path = tmp_path / "a30.cfg"
        cfg_path.write_text(config_to_text(cfg))
        rec = read_manifest(ws.manifest)[0]
        assert rec.crop_path is None
        out = tmp_path / "dmm.ppm"
        code, _ = _run(
            ["render-dmm", "--depth", str(rec.depth_path), "--out", str(out),
             "--config", str(cfg_path), "--plane", "yz", "--window", "5",
             "--angle", "30", "--t", "3"]
        )
        assert code == 0

        # Each template is accumulated, then rendered: the i-th render is
        # the image of the i-th accumulation's (plane, window, start).
        keys, images = [], []
        real_accumulate, real_render = dmm.accumulate_ramdmm, dmm.render_template

        def accumulate(maps, weights, t, window, **kwargs):
            keys.append((maps[0].plane, window, t))
            return real_accumulate(maps, weights, t, window, **kwargs)

        def render(grid, size):
            images.append(real_render(grid, size))
            return images[-1]

        with mock.patch.object(dmm, "accumulate_ramdmm", accumulate), mock.patch.object(
            dmm, "render_template", render
        ):
            extract_sample(rec, cfg)
        assert len(keys) == len(images)
        rendered = dict(zip(keys, images))
        assert read_image(out).tobytes() == rendered[("yz", 5, 3)].tobytes()


class TestBadArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--index", "99"],
            ["classify", "--index", "-1"],
            ["render-dmm", "--window", "abc"],
            ["render-dmm", "--windows", "5,x"],
            ["render-dmm", "--angles", "0,x"],
        ],
        ids=["index-99", "index-negative", "window-abc", "windows-5x", "angles-0x"],
    )
    def test_exits_two_with_one_error_line(self, ws, tmp_path, caplog, argv):
        command, *flags = argv
        if command == "classify":
            argv = [command, "--manifest", str(ws.manifest), "--plan", str(ws.plan), *flags]
        else:
            depth = read_manifest(ws.manifest)[0].depth_path
            argv = [command, "--depth", str(depth), "--out", str(tmp_path / "o.ppm"), *flags]
        with caplog.at_level(logging.ERROR):
            code, out = _run(argv)
        assert code == 2
        assert out == ""
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert errors[0].exc_info is None
        assert "\n" not in errors[0].getMessage()
        assert not (tmp_path / "o.ppm").exists()


class TestCollidingAngles:
    def test_angles_sharing_a_stream_id_rejected(self, ws, tmp_path, caplog):
        out = tmp_path / "feats"
        with caplog.at_level(logging.ERROR):
            code, printed = _run(
                ["extract", "--manifest", str(ws.manifest), "--out", str(out),
                 "--config", str(ws.cfg), "--angles", "15,15.000001"]
            )
        assert code == 2
        assert printed == ""
        assert "collide in stream ids" in caplog.text
        assert not out.exists()


class TestParser:
    def test_no_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_help_exits_clean(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
