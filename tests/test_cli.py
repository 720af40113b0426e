import argparse
import io
import logging
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from dmmaction import (
    SynthSpec,
    build_streams,
    dmm,
    extract_sample,
    generate_synthetic_dataset,
    load_plan,
    pipeline,
    read_manifest,
    resolve_split,
    save_plan,
    train,
)
from dmmaction.cli import build_parser, main
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


def _tree_bytes(root: Path) -> dict[Path, bytes]:
    """Every file under root, by its relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestRetrainFromASavedConfig:
    """A plan the CLI trained holds its config; training on that config
    again, as a library call, writes nothing, the plan included."""

    @pytest.fixture
    def plan_dir(self, ws, tmp_path):
        cfg = tmp_path / "two-planes.cfg"
        cfg.write_text(
            config_to_text(desk_config(planes=("xy", "yz"), angles=(0.0,), rgb_windows=()))
        )
        code, _ = _run(["train", "--manifest", str(ws.manifest), "--out",
                        str(tmp_path / "plan"), "--config", str(cfg)])
        assert code == 0
        return tmp_path / "plan"

    def test_train_writes_nothing_to_disk(self, ws, plan_dir, tmp_path, monkeypatch):
        records = read_manifest(ws.manifest)
        split = resolve_split(records, "cross-subject")
        before = _tree_bytes(tmp_path)
        monkeypatch.chdir(tmp_path)
        with mock.patch.object(pipeline, "save_plan", wraps=save_plan) as save:
            train(records, split, load_plan(plan_dir).cfg)
        assert save.call_count == 0
        assert _tree_bytes(tmp_path) == before

    def test_retrain_leaves_the_plan_byte_identical(self, ws, plan_dir):
        records = read_manifest(ws.manifest)
        split = resolve_split(records, "cross-subject")
        before = _tree_bytes(plan_dir)
        cfg = replace(load_plan(plan_dir).cfg, planes=("xy",))
        assert set(train(records, split, cfg).svm) == {"standing/dmm/xy/w5/a0"}
        assert _tree_bytes(plan_dir) == before


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
        want = extract_sample(read_manifest(mini)[0], build_streams(desk_config())).features
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


    def test_start_past_the_last_map_pair_exits_two(self, ws, tmp_path, caplog):
        depth = read_manifest(ws.manifest)[0].depth_path
        out = tmp_path / "late.ppm"
        with caplog.at_level(logging.ERROR):
            code, printed = _run(
                ["render-dmm", "--depth", str(depth), "--out", str(out),
                 "--config", str(ws.cfg), "--window", "all", "--t", "999"]
            )
        assert code == 2
        assert printed == ""
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [r.getMessage() for r in errors] == [
            "start index 999 is past the last map pair of 20 maps"
        ]
        assert not out.exists()


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
            extract_sample(rec, build_streams(cfg))
        assert len(keys) == len(images)
        rendered = dict(zip(keys, images))
        assert read_image(out).tobytes() == rendered[("yz", 5, 3)].tobytes()


_MISSING = "<missing>"


class TestBadArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--index", "99"],
            ["classify", "--index", "-1"],
            ["render-dmm", "--window", "abc"],
            ["extract", "--windows", "5,x"],
            ["extract", "--angles", "0,x"],
            ["eval", "--manifest", _MISSING],
            ["classify", "--plan", _MISSING],
            ["extract", "--config", _MISSING],
            ["render-dmm", "--depth", _MISSING],
            ["extract", "--angles", ""],
            ["extract", "--windows", ""],
            ["eval", "--pose-bank", ""],
            ["eval", "--train-subjects", ""],
        ],
        ids=["index-99", "index-negative", "window-abc", "windows-5x", "angles-0x",
             "missing-manifest", "missing-plan", "missing-config", "missing-depth",
             "angles-empty", "windows-empty", "pose-bank-empty", "train-subjects-empty"],
    )
    def test_exits_two_with_one_error_line(self, ws, tmp_path, caplog, argv):
        command, *flags = argv
        dest = tmp_path / "out"
        opts = {
            "classify": {"--manifest": ws.manifest, "--plan": ws.plan},
            "eval": {"--manifest": ws.manifest, "--plan": ws.plan, "--out": dest},
            "extract": {"--manifest": ws.manifest, "--out": dest, "--config": ws.cfg},
            "render-dmm": {"--depth": read_manifest(ws.manifest)[0].depth_path, "--out": dest},
        }[command]
        # Each flag given replaces the command's own; _MISSING is a path
        # that does not exist.
        for flag, value in zip(flags[::2], flags[1::2]):
            opts[flag] = tmp_path / "missing" / "x" if value == _MISSING else value
        argv = [command, *(str(part) for item in opts.items() for part in item)]
        with caplog.at_level(logging.ERROR):
            code, out = _run(argv)
        assert code == 2
        assert out == ""
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert errors[0].exc_info is None
        assert "\n" not in errors[0].getMessage()
        assert not dest.exists()


class TestPoseBankWithoutRecords:
    @pytest.mark.parametrize("command", ["extract", "train", "eval", "classify"])
    def test_exits_two_naming_the_bank_and_manifest(self, ws, tmp_path, caplog, command):
        dest = tmp_path / "out"
        where = {
            "extract": ["--out", str(dest), "--config", str(ws.cfg)],
            "train": ["--out", str(dest), "--config", str(ws.cfg)],
            "eval": ["--plan", str(ws.plan), "--out", str(dest)],
            "classify": ["--plan", str(ws.plan)],
        }[command]
        with caplog.at_level(logging.ERROR):
            code, out = _run(
                [command, "--manifest", str(ws.manifest), *where, "--pose-bank", "sitting"]
            )
        assert code == 2
        assert out == ""
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [r.getMessage() for r in errors] == [
            f"manifest {ws.manifest} has no record in pose bank 'sitting'"
        ]
        assert not dest.exists()


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


# Every subcommand's options: each one is read by its command.
_OPTIONS = {
    "synth": ["--out", "--seed", "--actions", "--subjects", "--cameras", "--frames",
              "--width", "--height", "--noise", "--jitter"],
    "extract": ["--manifest", "--out", "--config", "--seed", "--pose-bank", "--angles",
                "--windows"],
    "train": ["--manifest", "--out", "--config", "--seed", "--pose-bank", "--angles",
              "--windows", "--split", "--train-subjects", "--train-cameras"],
    "eval": ["--manifest", "--plan", "--out", "--pose-bank", "--split", "--train-subjects",
             "--train-cameras"],
    "classify": ["--manifest", "--plan", "--index", "--pose-bank"],
    "render-dmm": ["--depth", "--out", "--plane", "--window", "--angle", "--t", "--config"],
}

# Required options, with values that parse, of the commands that lost flags.
_REQUIRED = {
    "eval": ["--manifest", "m.tsv", "--plan", "plan"],
    "classify": ["--manifest", "m.tsv", "--plan", "plan"],
    "render-dmm": ["--depth", "d.bin", "--out", "o.ppm"],
}


class TestParser:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        (subparsers,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        got = {
            name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
            for name, p in subparsers.choices.items()
        }
        assert got == _OPTIONS
        assert sum(map(len, got.values())) == 45

    @pytest.mark.parametrize(
        "command, flag",
        [
            (command, flag)
            for command, removed in (
                ("eval", ("--config", "--seed", "--angles", "--windows")),
                ("classify", ("--config", "--seed", "--angles", "--windows")),
                ("render-dmm", ("--seed", "--pose-bank", "--angles", "--windows")),
            )
            for flag in removed
        ],
    )
    def test_flag_the_command_does_not_read_exits_two(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, *_REQUIRED[command], flag, "5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_help_exits_clean(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
