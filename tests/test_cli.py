"""Tests for the command-line pipeline and config parsing."""

import csv
import io
import multiprocessing
import os
import stat
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from mammoscope import cli
from mammoscope.config import load_config, parse_config
from mammoscope.errors import ConfigError

SMALL_CONFIG = """\
# desk-scale run
wavelet.filter = haar
wavelet.levels = 2
cv.k = 2
cv.seed = 11
phantom.size = 48
phantom.count_per_class = 6
phantom.seed = 77
phantom.mass_radius = 8
"""


@pytest.fixture()
def workdir(tmp_path):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(SMALL_CONFIG)
    return tmp_path, str(cfg)


def run(argv):
    return cli.main(argv)


_EXTRACT_ONE = cli._extract_one
DEAD_IMAGE = "phantom_0005_normal.pgm"


def _extract_or_die(path, cfg):
    """Stands in for ``cli._extract_one``; a module-level name, so workers can unpickle it."""
    if path.endswith(DEAD_IMAGE):
        os._exit(3)
    return _EXTRACT_ONE(path, cfg)


class _InlineExecutor:
    """Stands in for ``ProcessPoolExecutor``: records ``max_workers`` and runs each task at once."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestConfig:
    def test_defaults_when_no_file(self):
        cfg = load_config(None)
        assert cfg.preprocess.threshold == 0.1
        assert cfg.features.filter == "daub4"
        assert cfg.features.levels == 3
        assert cfg.cv_folds == 5

    def test_parse_and_override(self):
        cfg = parse_config(SMALL_CONFIG)
        assert cfg.features.filter == "haar"
        assert cfg.features.levels == 2
        assert cfg.phantom.count_per_class == 6

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("wavelet.depth = 3")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config("wavelet.filter = sym8")
        with pytest.raises(ConfigError):
            parse_config("preprocess.orient = yes")
        with pytest.raises(ConfigError):
            parse_config("classifier.threshold = 1.5")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("cv.k = 2\ncv.k = 3")

    def test_missing_file_is_exit_2(self, tmp_path):
        status = run(["phantom", "--config", str(tmp_path / "nope.cfg"),
                      "--out", str(tmp_path / "out")])
        assert status == 2


class TestPhantomCommand:
    def test_generates_files(self, workdir):
        tmp_path, cfg = workdir
        out = tmp_path / "images"
        assert run(["phantom", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "manifest.csv").exists()
        assert len(list(out.glob("*.pgm"))) == 12

    def test_unwritable_out_dir_is_exit_2(self, workdir, capsys):
        tmp_path, cfg = workdir
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        status = run(["phantom", "--config", cfg, "--out", str(blocker / "sub")])
        assert status == 2
        assert "error" in capsys.readouterr().err


class TestExtractCommand:
    def test_extract_and_determinism(self, workdir):
        tmp_path, cfg = workdir
        out = tmp_path / "images"
        run(["phantom", "--config", cfg, "--out", str(out)])
        feats_a = tmp_path / "a.csv"
        feats_b = tmp_path / "b.csv"
        assert run(["extract", "--config", cfg, "--manifest", str(out / "manifest.csv"),
                    "--out", str(feats_a)]) == 0
        assert run(["extract", "--config", cfg, "--manifest", str(out / "manifest.csv"),
                    "--out", str(feats_b)]) == 0
        text = feats_a.read_text()
        assert text == feats_b.read_text()
        lines = text.strip().splitlines()
        assert len(lines) == 13  # header + 12 rows
        assert lines[0].startswith("id,label,wll_mean")

    def test_missing_image_partial_failure(self, workdir, capsys):
        tmp_path, cfg = workdir
        out = tmp_path / "images"
        run(["phantom", "--config", cfg, "--out", str(out)])
        manifest = out / "manifest.csv"
        manifest.write_text(manifest.read_text() + "missing.pgm,normal\n")
        feats = tmp_path / "f.csv"
        status = run(["extract", "--config", cfg, "--manifest", str(manifest),
                      "--out", str(feats)])
        assert status == 1
        assert "missing.pgm" in capsys.readouterr().err
        assert len(feats.read_text().strip().splitlines()) == 13  # failed row dropped

    def test_bad_manifest_is_exit_2(self, workdir):
        tmp_path, cfg = workdir
        bad = tmp_path / "bad.csv"
        bad.write_text("file,class\nx.pgm,normal\n")
        assert run(["extract", "--config", cfg, "--manifest", str(bad),
                    "--out", str(tmp_path / "f.csv")]) == 2

    def test_undecodable_manifest_is_exit_2(self, workdir, capsys):
        tmp_path, cfg = workdir
        out = tmp_path / "images"
        run(["phantom", "--config", cfg, "--out", str(out)])
        manifest = out / "manifest.csv"
        manifest.write_bytes(manifest.read_bytes() + b"caf\xe9.pgm,normal\n")
        feats = tmp_path / "f.csv"
        capsys.readouterr()
        assert run(["extract", "--config", cfg, "--manifest", str(manifest),
                    "--out", str(feats)]) == 2
        assert not feats.exists()
        err = capsys.readouterr().err
        assert f"cannot read manifest {manifest}" in err and "Traceback" not in err

    def test_manifest_field_over_csv_limit_is_exit_2(self, workdir, capsys):
        tmp_path, cfg = workdir
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"path,label\n{'a' * (csv.field_size_limit() + 1)}.pgm,normal\n")
        feats = tmp_path / "f.csv"
        assert run(["extract", "--config", cfg, "--manifest", str(manifest),
                    "--out", str(feats)]) == 2
        assert not feats.exists()
        err = capsys.readouterr().err
        assert f"cannot parse manifest {manifest}: field larger than field limit" in err
        assert "Traceback" not in err

    def test_jobs_flag_matches_serial(self, workdir):
        tmp_path, cfg = workdir
        out = tmp_path / "images"
        run(["phantom", "--config", cfg, "--out", str(out)])
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        run(["extract", "--config", cfg, "--manifest", str(out / "manifest.csv"),
             "--out", str(serial)])
        run(["extract", "--config", cfg, "--manifest", str(out / "manifest.csv"),
             "--out", str(parallel), "--jobs", "2"])
        assert serial.read_text() == parallel.read_text()

    def test_jobs_flag_matches_serial_on_failure(self, workdir, capsys):
        tmp_path, cfg = workdir
        out = tmp_path / "images"
        run(["phantom", "--config", cfg, "--out", str(out)])
        manifest = out / "manifest.csv"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(lines[:4] + ["missing.pgm,normal\n"] + lines[4:]))
        results = []
        for jobs in ("1", "2"):
            feats = tmp_path / f"jobs{jobs}.csv"
            capsys.readouterr()
            status = run(["extract", "--config", cfg, "--manifest", str(manifest),
                          "--out", str(feats), "--jobs", jobs])
            results.append((status, capsys.readouterr().err, feats.read_bytes()))
        assert results[0] == results[1]
        status, err, data = results[0]
        assert status == 1
        assert err.startswith("extract failed for missing.pgm: ")
        assert err.count("\n") == 1
        assert len(data.decode().splitlines()) == 13  # header + 12 rows

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_exit_2_before_reading(self, workdir, capsys, jobs):
        tmp_path, cfg = workdir
        feats = tmp_path / "f.csv"
        status = run(["extract", "--config", str(tmp_path / "no.cfg"), "--manifest",
                      str(tmp_path / "no.csv"), "--out", str(feats), "--jobs", jobs])
        assert status == 2
        assert not feats.exists()
        err = capsys.readouterr().err
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"

    @pytest.mark.parametrize("jobs, workers", [("64", 12), ("12", 12), ("3", 3)])
    def test_pool_has_no_more_workers_than_images(self, workdir, monkeypatch, jobs, workers):
        tmp_path, cfg = workdir
        out = tmp_path / "images"
        run(["phantom", "--config", cfg, "--out", str(out)])
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        run(["extract", "--config", cfg, "--manifest", str(out / "manifest.csv"),
             "--out", str(serial)])
        monkeypatch.setattr(_InlineExecutor, "sizes", [])
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _InlineExecutor)
        assert run(["extract", "--config", cfg, "--manifest", str(out / "manifest.csv"),
                    "--out", str(pooled), "--jobs", jobs]) == 0
        assert _InlineExecutor.sizes == [workers]
        assert pooled.read_bytes() == serial.read_bytes()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers see the patched extractor only when forked",
    )
    def test_dead_worker_is_a_failure_line(self, workdir, capsys, monkeypatch):
        tmp_path, cfg = workdir
        out = tmp_path / "images"
        run(["phantom", "--config", cfg, "--out", str(out)])
        ids = [row.split(",")[0] for row in (out / "manifest.csv").read_text().splitlines()[1:]]
        monkeypatch.setattr(cli, "_extract_one", _extract_or_die)
        feats = tmp_path / "f.csv"
        capsys.readouterr()
        status = run(["extract", "--config", cfg, "--manifest", str(out / "manifest.csv"),
                      "--out", str(feats), "--jobs", "2"])
        assert status == 1
        err = capsys.readouterr().err
        assert f"extract failed for {DEAD_IMAGE}: worker process died\n" in err
        assert "Traceback" not in err
        died = [line.split(" ")[3][:-1] for line in err.splitlines()]
        assert all(line.endswith(": worker process died") for line in err.splitlines())
        kept = [row.split(",")[0] for row in feats.read_text().splitlines()[1:]]
        assert kept  # of the five images before the dead one, at most one is in flight
        assert sorted(kept + died) == sorted(ids)
        assert DEAD_IMAGE not in kept


def _pipeline_to_features(workdir):
    tmp_path, cfg = workdir
    out = tmp_path / "images"
    feats = tmp_path / "features.csv"
    run(["phantom", "--config", cfg, "--out", str(out)])
    run(["extract", "--config", cfg, "--manifest", str(out / "manifest.csv"),
         "--out", str(feats)])
    return feats


def _with_nonfinite(feats, tmp_path, token="nan"):
    """Copy of the feature CSV with one value of its second row replaced."""
    lines = feats.read_text().splitlines()
    cells = lines[2].split(",")
    cells[3] = token
    lines[2] = ",".join(cells)
    bad = tmp_path / f"{token}.csv"
    bad.write_text("\n".join(lines) + "\n")
    return bad, cells[0]


class TestNonFiniteFeatures:
    def test_train_rejects_nan_and_writes_nothing(self, workdir, tmp_path, capsys):
        _, cfg = workdir
        bad, row_id = _with_nonfinite(_pipeline_to_features(workdir), tmp_path)
        model = tmp_path / "m.txt"
        assert run(["train", "--config", cfg, "--features", str(bad),
                    "--out", str(model)]) == 2
        assert not model.exists()
        assert repr(row_id) in capsys.readouterr().err

    def test_predict_rejects_inf_and_writes_nothing(self, workdir, tmp_path, capsys):
        _, cfg = workdir
        feats = _pipeline_to_features(workdir)
        model = tmp_path / "m.txt"
        assert run(["train", "--config", cfg, "--features", str(feats),
                    "--out", str(model)]) == 0
        bad, row_id = _with_nonfinite(feats, tmp_path, "-inf")
        pred = tmp_path / "pred.csv"
        assert run(["predict", "--features", str(bad), "--model", str(model),
                    "--out", str(pred)]) == 2
        assert not pred.exists()
        assert repr(row_id) in capsys.readouterr().err

    def test_evaluate_rejects_nan_and_writes_nothing(self, workdir, tmp_path, capsys):
        _, cfg = workdir
        bad, row_id = _with_nonfinite(_pipeline_to_features(workdir), tmp_path)
        roc_csv = tmp_path / "roc.csv"
        assert run(["evaluate", "--config", cfg, "--features", str(bad),
                    "--roc-csv", str(roc_csv)]) == 2
        assert not roc_csv.exists()
        assert repr(row_id) in capsys.readouterr().err


def _small_csv(header="id,label,a,b", n_rows=12):
    rows = [header]
    for i in range(n_rows):
        label = "suspicious" if i % 2 else "normal"
        rows.append(f"r{i},{label},{i % 5 + 0.5 * (i % 2)},{(i * 7) % 11 / 3}")
    return "\n".join(rows) + "\n"


def _small_csv_with_row(index, row):
    lines = _small_csv().splitlines()
    lines[index + 1] = row
    return "\n".join(lines) + "\n"


def _command(command, cfg, features, tmp_path, out_dir=None):
    """argv for one table-reading command, and the output files it may write."""
    out_dir = out_dir or tmp_path
    if command == "train":
        outs = [out_dir / "m.txt"]
        return ["train", "--config", cfg, "--features", str(features), "--out", str(outs[0])], outs
    if command == "predict":
        good = tmp_path / "good.csv"
        good.write_text(_small_csv())
        model = tmp_path / "good_model.txt"
        assert run(["train", "--config", cfg, "--features", str(good), "--out", str(model)]) == 0
        outs = [out_dir / "pred.csv"]
        return ["predict", "--features", str(features), "--model", str(model),
                "--out", str(outs[0])], outs
    outs = [out_dir / "roc.csv", out_dir / "roc.svg"]
    return ["evaluate", "--config", cfg, "--features", str(features),
            "--roc-csv", str(outs[0]), "--roc-svg", str(outs[1])], outs


class TestMalformedFeatureCsv:
    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    @pytest.mark.parametrize(
        "text, message",
        [
            (_small_csv("id,label,a,a"), "duplicate feature names ['a']"),
            ("id,label,a,b\n", "no rows"),
            ("id,label,a,b\n\n\n", "no rows"),
            (_small_csv_with_row(3, "r3,normal,1,2,3"), "row 'r3' (data row 4)"),
            (_small_csv_with_row(3, "r3,normal,1"), "row 'r3' (data row 4)"),
            (_small_csv_with_row(3, "r3,normal,,2"), "''"),
            (_small_csv_with_row(3, "r3,normal,abc,2"), "'abc'"),
            (_small_csv_with_row(3, "r3,normal,1_0,2"), "'1_0'"),
            (_small_csv_with_row(3, "r3,suspiciousX,1,2"), "unknown label 'suspiciousX'"),
            (_small_csv() + 'cut,normal,1,"2\n', "row 'cut' (data row 13): quoted field never"),
            (_small_csv_with_row(3, 'r3,normal,"1"2,2'),
             "row 'r3' (data row 4): text after closing quote"),
        ],
        ids=["duplicate-name", "header-only", "header-and-blank-lines", "too-many-values",
             "too-few-values", "empty-field", "garbage-token", "digit-separator", "bad-label",
             "open-quote-at-end", "text-after-closing-quote"],
    )
    def test_rejected_with_exit_2_and_nothing_written(
        self, workdir, tmp_path, capsys, command, text, message
    ):
        _, cfg = workdir
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        argv, outputs = _command(command, cfg, bad, tmp_path)
        capsys.readouterr()
        assert run(argv) == 2
        assert not any(p.exists() for p in outputs)
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    def test_undecodable_csv_is_exit_2(self, workdir, tmp_path, capsys, command):
        _, cfg = workdir
        bad = tmp_path / "bad.csv"
        bad.write_bytes(_small_csv().encode("ascii") + b"r\xff,normal,1,2\n")
        argv, outputs = _command(command, cfg, bad, tmp_path)
        capsys.readouterr()
        assert run(argv) == 2
        assert not any(p.exists() for p in outputs)
        captured = capsys.readouterr()
        assert f"cannot read features {bad}" in captured.err
        assert captured.out == ""


class TestOutputWrites:
    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    def test_missing_output_directory_is_exit_2(self, workdir, tmp_path, capsys, command):
        _, cfg = workdir
        feats = tmp_path / "f.csv"
        feats.write_text(_small_csv())
        argv, outputs = _command(command, cfg, feats, tmp_path, out_dir=tmp_path / "nodir")
        capsys.readouterr()
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert f"cannot write {outputs[0]}" in captured.err
        assert captured.out == ""  # evaluate prints no report it could not finish

    def test_extract_missing_output_directory_is_exit_2(self, workdir, capsys):
        tmp_path, cfg = workdir
        out = tmp_path / "images"
        run(["phantom", "--config", cfg, "--out", str(out)])
        target = tmp_path / "nodir" / "f.csv"
        assert run(["extract", "--config", cfg, "--manifest", str(out / "manifest.csv"),
                    "--out", str(target)]) == 2
        assert f"cannot write {target}" in capsys.readouterr().err

    def test_failed_replace_keeps_previous_file(self, workdir, tmp_path, monkeypatch):
        _, cfg = workdir
        feats = tmp_path / "f.csv"
        feats.write_text(_small_csv())
        model = tmp_path / "m.txt"
        model.write_text("previous model\n")
        before = sorted(os.listdir(tmp_path))

        def failing_replace(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(cli.os, "replace", failing_replace)
        assert run(["train", "--config", cfg, "--features", str(feats),
                    "--out", str(model)]) == 2
        assert model.read_text() == "previous model\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_output_replaces_existing_file_whole(self, workdir, tmp_path):
        _, cfg = workdir
        feats = tmp_path / "f.csv"
        feats.write_text(_small_csv())
        model = tmp_path / "m.txt"
        model.write_text("x" * 100_000)
        assert run(["train", "--config", cfg, "--features", str(feats),
                    "--out", str(model)]) == 0
        assert model.read_text().startswith("nbmodel v1\n")
        assert sorted(os.listdir(tmp_path)) == ["f.csv", "m.txt", "pipeline.cfg"]

    def test_pipe_target_is_written_in_place(self, workdir, tmp_path):
        _, cfg = workdir
        feats = tmp_path / "f.csv"
        feats.write_text(_small_csv())
        fifo = tmp_path / "model.fifo"
        os.mkfifo(fifo)
        received = []

        def reader():
            with open(fifo, "rb") as f:
                received.append(f.read())

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        assert run(["train", "--config", cfg, "--features", str(feats),
                    "--out", str(fifo)]) == 0
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert received[0].startswith(b"nbmodel v1\n")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)


class TestTrainPredict:
    def test_train_then_predict(self, workdir):
        tmp_path, cfg = workdir
        feats = _pipeline_to_features(workdir)
        model = tmp_path / "model.txt"
        assert run(["train", "--config", cfg, "--features", str(feats),
                    "--out", str(model)]) == 0
        assert model.read_text().startswith("nbmodel v1\n")
        pred = tmp_path / "pred.csv"
        assert run(["predict", "--features", str(feats), "--model", str(model),
                    "--out", str(pred)]) == 0
        lines = pred.read_text().strip().splitlines()
        assert lines[0] == "id,score,label"
        assert len(lines) == 13
        for line in lines[1:]:
            _, score, label = line.rsplit(",", 2)
            assert 0.0 < float(score) < 1.0
            assert label in ("normal", "suspicious")

    def test_quoted_ids_survive_predict(self, workdir, tmp_path):
        _, cfg = workdir
        lines = _small_csv().splitlines()
        lines[1] = '"a,b"' + lines[1][2:]
        lines[2] = '"say ""hi"""' + lines[2][2:]
        feats = tmp_path / "quoted.csv"
        feats.write_text("\n".join(lines) + "\n")
        model = tmp_path / "model.txt"
        pred = tmp_path / "pred.csv"
        assert run(["train", "--config", cfg, "--features", str(feats),
                    "--out", str(model)]) == 0
        assert run(["predict", "--features", str(feats), "--model", str(model),
                    "--out", str(pred)]) == 0
        rows = list(csv.reader(io.StringIO(pred.read_text())))
        assert rows[0] == ["id", "score", "label"]
        assert all(len(r) == 3 for r in rows)
        assert [r[0] for r in rows[1:4]] == ["a,b", 'say "hi"', "r2"]

    def test_non_ascii_id_through_every_command(self, workdir, tmp_path, capsys):
        _, cfg = workdir
        out = tmp_path / "images"
        run(["phantom", "--config", cfg, "--out", str(out)])
        manifest = out / "manifest.csv"
        lines = manifest.read_text().splitlines()
        first = lines[1].split(",")[0]
        (out / first).rename(out / "é.pgm")
        lines[1] = lines[1].replace(first, "é.pgm")
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        feats, model, pred = tmp_path / "f.csv", tmp_path / "m.txt", tmp_path / "p.csv"
        assert run(["extract", "--config", cfg, "--manifest", str(manifest),
                    "--out", str(feats)]) == 0
        assert feats.read_text(encoding="utf-8").splitlines()[1].startswith("é.pgm,")
        assert run(["train", "--config", cfg, "--features", str(feats),
                    "--out", str(model)]) == 0
        assert run(["predict", "--features", str(feats), "--model", str(model),
                    "--out", str(pred)]) == 0
        assert pred.read_text(encoding="utf-8").splitlines()[1].startswith("é.pgm,")
        assert run(["evaluate", "--config", cfg, "--features", str(feats)]) == 0
        assert "cases       : 12" in capsys.readouterr().out

    @pytest.mark.parametrize("threshold", ["7", "1", "0", "-0.5", "nan"])
    def test_predict_threshold_outside_unit_interval(self, workdir, capsys, threshold):
        tmp_path, cfg = workdir
        feats = _pipeline_to_features(workdir)
        model = tmp_path / "model.txt"
        run(["train", "--config", cfg, "--features", str(feats), "--out", str(model)])
        pred = tmp_path / "pred.csv"
        assert run(["predict", "--features", str(feats), "--model", str(model),
                    "--threshold", threshold, "--out", str(pred)]) == 2
        assert not pred.exists()
        assert "must lie in (0, 1)" in capsys.readouterr().err

    def test_selection_recorded_in_model(self, workdir, tmp_path):
        _, cfg_path = workdir
        feats = _pipeline_to_features(workdir)
        cfg_select = tmp_path / "sel.cfg"
        cfg_select.write_text(SMALL_CONFIG + "select.k = 3\n")
        model = tmp_path / "model_sel.txt"
        assert run(["train", "--config", str(cfg_select), "--features", str(feats),
                    "--out", str(model)]) == 0
        gauss_lines = [l for l in model.read_text().splitlines() if l.startswith("gauss")]
        assert len(gauss_lines) == 2 * 3  # two classes, three selected features

    def test_train_single_class_is_exit_2(self, workdir, tmp_path):
        _, cfg = workdir
        feats = _pipeline_to_features(workdir)
        lines = feats.read_text().splitlines()
        only_normal = [lines[0]] + [l for l in lines[1:] if ",normal," in l]
        bad = tmp_path / "one_class.csv"
        bad.write_text("\n".join(only_normal) + "\n")
        assert run(["train", "--config", cfg, "--features", str(bad),
                    "--out", str(tmp_path / "m.txt")]) == 2


class TestEvaluateCommand:
    def test_full_report_and_roc(self, workdir, capsys, tmp_path):
        _, cfg = workdir
        feats = _pipeline_to_features(workdir)
        roc_csv = tmp_path / "roc.csv"
        roc_svg = tmp_path / "roc.svg"
        status = run(["evaluate", "--config", cfg, "--features", str(feats),
                      "--roc-csv", str(roc_csv), "--roc-svg", str(roc_svg)])
        assert status == 0
        report = capsys.readouterr().out
        for key in ("confusion", "sensitivity", "specificity", "auc"):
            assert key in report
        assert roc_csv.read_text().startswith("threshold,fpr,tpr")
        assert roc_svg.read_text().startswith("<svg")

    def test_deterministic_report(self, workdir, capsys):
        _, cfg = workdir
        feats = _pipeline_to_features(workdir)
        capsys.readouterr()  # drop pipeline chatter
        run(["evaluate", "--config", cfg, "--features", str(feats)])
        first = capsys.readouterr().out
        run(["evaluate", "--config", cfg, "--features", str(feats)])
        second = capsys.readouterr().out
        assert first == second

    def test_single_class_is_exit_2(self, workdir, tmp_path):
        _, cfg = workdir
        feats = _pipeline_to_features(workdir)
        lines = feats.read_text().splitlines()
        only_normal = [lines[0]] + [l for l in lines[1:] if ",normal," in l]
        bad = tmp_path / "one_class.csv"
        bad.write_text("\n".join(only_normal) + "\n")
        assert run(["evaluate", "--config", cfg, "--features", str(bad)]) == 2
