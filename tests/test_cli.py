"""Tests for the command-line pipeline and config parsing."""

import ast
import contextlib
import csv
import io
import json
import multiprocessing
import os
import select
import shutil
import signal
import stat
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mammoscope import bayes, cli, evaluation
from mammoscope.config import load_config, parse_config, read_text
from mammoscope.errors import MammoscopeError
from mammoscope.features import LABELS, FeatureVector, table_from_csv
from mammoscope.imgio import GrayImage, write_pgm

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


_EXTRACT_FEATURES = cli.extract_features
OUT_OF_MEMORY = (
    "Unable to allocate 16.0 GiB for an array with shape (65536, 32769) and data type float64"
)


def _extract_or_run_out(img, cfg):
    """Stands in for ``cli.extract_features``: an image wider than tall cannot be allocated,
    as a 16 x 40,000 image's log-magnitude map over a 65,536-point padding cannot be."""
    if img.width > img.height:
        raise MemoryError(OUT_OF_MEMORY)
    return _EXTRACT_FEATURES(img, cfg)


class _InlineExecutor:
    """Stands in for ``ProcessPoolExecutor``: records ``max_workers`` and runs each task at
    once, in this process, so without the worker initializer."""

    sizes: list = []

    def __init__(self, max_workers, **options):
        self.sizes.append(max_workers)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self):
        pass


def _read_manifest(path: Path) -> list[tuple[str, str]]:
    """Reference: the manifest reader ``extract`` had before it shared the feature CSV's.

    One strict ``csv.reader`` pass; blank rows skipped; a ``path,label`` header, then
    rows of a path and a known label, at least one of them.
    """
    try:
        records = list(csv.reader(io.StringIO(read_text(path, "manifest")), strict=True))
    except csv.Error as exc:
        raise MammoscopeError(f"cannot parse manifest {path}: {exc}") from None
    if not records:
        raise MammoscopeError(f"manifest {path} is empty")
    if records[0] != ["path", "label"]:
        raise MammoscopeError(f"manifest {path} must have header path,label")
    rows = []
    for row in records[1:]:
        if not row:
            continue
        if len(row) != 2 or row[1] not in LABELS:
            raise MammoscopeError(f"bad manifest row {row!r}")
        rows.append((row[0], row[1]))
    if not rows:
        raise MammoscopeError(f"manifest {path} lists no images")
    return rows


def _extract_a_constant(path, cfg):
    """Stands in for ``cli._extract_one`` where only the manifest's rows matter."""
    return FeatureVector(("f",), np.zeros(1))


# csv's field limit while some examples run: the longest label, "suspicious", fits
FIELD_LIMIT = 12
LONG = "a" * FIELD_LIMIT
MANIFEST_HEADER = st.sampled_from([
    "path,label\n", "path,label\r\n", "\ufeffpath,label\n", '"path",label\n', "path,label",
    "path,label,x\n", "path,label,\n", "path\n", "id,label\n", "", "\n",
])
GOOD_PATH = st.sampled_from([
    "a.pgm", "é.pgm", "日本", "#c", "", " x ", "a\x00b", 'a"b', '"a,b.pgm"', '"say ""hi"""',
    '"two\nlines"', '"\r\n"', LONG, f'"{LONG}"', LONG + "a",
])
GOOD_LABEL = st.sampled_from(["normal", "suspicious", '"normal"', '"suspicious"'])
BAD_ROW = st.one_of(
    st.builds("{},{}\n".format, st.sampled_from(['"x"y', '"x" ', '"open', f'"{LONG}"a']),
              GOOD_LABEL),
    st.builds("{},{}\n".format, GOOD_PATH, st.sampled_from(
        ['"suspicious', '"normal"x', "Normal", "normal ", "normal\x00", "benign", ""])),
    st.builds("{},{}{}\n".format, GOOD_PATH, GOOD_LABEL,
              st.sampled_from([",", ",extra", ",1.0,2.0", ',"'])),
    st.sampled_from([" \n", "\x00\n", "#\n", '"\n', ",\n", "normal\n", "a\rb,normal\n"]),
)


@st.composite
def manifest_bodies(draw):
    """Rows the reference reads at csv's default field limit, with at most one it
    rejects somewhere among them."""
    extra = draw(st.sampled_from(["", "", ",1.0"]))  # a feature column on every good row
    rows = draw(st.lists(
        st.one_of(
            st.builds("{},{}{}{}".format, GOOD_PATH, GOOD_LABEL, st.just(extra),
                      st.sampled_from(["\n", "\r\n", "\r"])),
            st.sampled_from(["\n", "\r\n"]),
        ),
        max_size=5,
    ))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(BAD_ROW))
    body = "".join(rows)
    return body.rstrip("\r\n") if draw(st.booleans()) else body


class TestManifestReader:
    """``extract`` reads a manifest as a feature CSV with no feature columns."""

    # the one manifest file and the patched extractor serve every example
    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        header=st.one_of(st.just("path,label\n"), MANIFEST_HEADER),
        body=manifest_bodies(),
        limit=st.sampled_from([None, FIELD_LIMIT]),
    )
    def test_accepts_what_the_csv_reader_accepted(self, tmp_path, monkeypatch, header, body,
                                                  limit):
        """Same (path, label) rows where the reference reads the manifest, exit 2 where not."""
        monkeypatch.setattr(cli, "_extract_one", _extract_a_constant)
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes((header + body).encode("utf-8"))
        feats = tmp_path / "features.csv"
        feats.unlink(missing_ok=True)
        default_limit = csv.field_size_limit(limit) if limit else None
        try:
            try:
                expected = _read_manifest(manifest)
            except MammoscopeError:
                expected = None
            status = run(["extract", "--manifest", str(manifest), "--out", str(feats)])
        finally:
            if default_limit is not None:
                csv.field_size_limit(default_limit)
        if expected is None:
            assert status == 2
            assert not feats.exists()
        else:
            assert status == 0
            rows = list(csv.reader(io.StringIO(feats.read_bytes().decode("utf-8"))))
            assert [tuple(row[:2]) for row in rows[1:]] == expected


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
        with pytest.raises(MammoscopeError, match="unknown key"):
            parse_config("wavelet.depth = 3")

    def test_bad_value(self):
        with pytest.raises(MammoscopeError, match="wavelet.filter: expected one of"):
            parse_config("wavelet.filter = sym8")
        with pytest.raises(MammoscopeError, match="phantom.artifact_label: expected on/off"):
            parse_config("phantom.artifact_label = yes")
        with pytest.raises(MammoscopeError, match="classifier.threshold must lie in"):
            parse_config("classifier.threshold = 1.5")

    def test_duplicate_key(self):
        with pytest.raises(MammoscopeError, match="duplicate"):
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

    @pytest.mark.parametrize("size", [10**30, 10**400], ids=["huge", "past-the-float-range"])
    def test_unrenderable_size_is_exit_2_and_writes_nothing(self, workdir, capsys, size):
        tmp_path, _ = workdir
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(SMALL_CONFIG.replace("phantom.size = 48", f"phantom.size = {size}"))
        out = tmp_path / "images"
        assert run(["phantom", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot render phantom set: ")
        assert not out.exists()

    def test_out_of_memory_is_exit_2_and_writes_nothing(self, workdir, capsys, monkeypatch):
        tmp_path, cfg = workdir

        def out_of_memory(phantom_cfg):
            raise MemoryError("simulated allocation failure")

        monkeypatch.setattr(cli.phantom, "render_set", out_of_memory)
        out = tmp_path / "images"
        assert run(["phantom", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: cannot render phantom set: simulated allocation failure\n"
        assert not out.exists()

    @pytest.mark.parametrize("error", [MemoryError, ValueError])
    def test_later_render_failure_is_exit_2_and_writes_no_manifest(
        self, workdir, capsys, monkeypatch, error
    ):
        tmp_path, cfg = workdir
        render_image = cli.phantom.render_image

        def fail_at_3(phantom_cfg, index):
            if index == 3:
                raise error("simulated failure")
            return render_image(phantom_cfg, index)

        monkeypatch.setattr(cli.phantom, "render_image", fail_at_3)
        out = tmp_path / "images"
        assert run(["phantom", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: cannot render phantom set: simulated failure\n"
        assert sorted(p.name for p in out.iterdir()) == [
            f"phantom_{index:04d}_normal.pgm" for index in range(3)
        ]

    def test_failed_rerun_leaves_no_manifest_of_two_sets(self, workdir, capsys, monkeypatch):
        """Images 0-2 of seed 78 replace those of seed 77; no manifest lists that mix."""
        tmp_path, _ = workdir
        six = SMALL_CONFIG.replace("phantom.count_per_class = 6", "phantom.count_per_class = 3")
        first, second = tmp_path / "77.cfg", tmp_path / "78.cfg"
        first.write_text(six)
        second.write_text(six.replace("phantom.seed = 77", "phantom.seed = 78"))
        out = tmp_path / "images"
        assert run(["phantom", "--config", str(first), "--out", str(out)]) == 0
        assert len(list(out.glob("*.pgm"))) == 6
        render_image = cli.phantom.render_image

        def fail_at_3(phantom_cfg, index):
            if index == 3:
                raise MemoryError("simulated allocation failure")
            return render_image(phantom_cfg, index)

        monkeypatch.setattr(cli.phantom, "render_image", fail_at_3)
        capsys.readouterr()
        assert run(["phantom", "--config", str(second), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: cannot render phantom set: simulated allocation failure\n"
        )
        assert not (out / "manifest.csv").exists()
        assert len(list(out.glob("*.pgm"))) == 6

    def test_renders_and_writes_one_image_at_a_time(self, tmp_path):
        """24 float64 images of 256 x 256 take 12 MiB if held together."""
        cfg = tmp_path / "phantom.cfg"
        cfg.write_text("phantom.size = 256\nphantom.count_per_class = 12\n")
        tracemalloc.start()
        try:
            assert run(["phantom", "--config", str(cfg), "--out", str(tmp_path / "images")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(list((tmp_path / "images").glob("*.pgm"))) == 24
        assert peak < 6 * 2**20


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
        assert err == (f"error: bad manifest {manifest}: row <unreadable> (data row 1): "
                       f"field larger than field limit ({csv.field_size_limit()})\n")

    @pytest.mark.parametrize("edit, reason", [
        pytest.param(
            lambda text: text.replace("phantom_0000_normal.pgm", '"phantom_0000_normal".pgm'),
            "row 'phantom_0000_normal.pgm' (data row 1): text after closing quote",
            id="text-after-closing-quote",
        ),
        pytest.param(
            lambda text: text + 'x.pgm,"normal',
            "row 'x.pgm' (data row 13): quoted field never closes", id="quote-never-closed",
        ),
        pytest.param(  # the label csv reads, 'normal\n', is not named
            lambda text: text + 'x.pgm,"normal\n',
            "row 'x.pgm' (data row 13): quoted field never closes", id="quote-before-label",
        ),
        pytest.param(  # nor are the three fields csv reads
            lambda text: text + '"x"y.pgm,normal,abc\n',
            "row 'xy.pgm' (data row 13): text after closing quote", id="quote-before-field-count",
        ),
    ])
    def test_malformed_manifest_quoting_is_exit_2(self, workdir, capsys, edit, reason):
        tmp_path, cfg = workdir
        out = tmp_path / "images"
        run(["phantom", "--config", cfg, "--out", str(out)])
        manifest = out / "manifest.csv"
        manifest.write_text(edit(manifest.read_text()))
        feats = tmp_path / "f.csv"
        capsys.readouterr()
        assert run(["extract", "--config", cfg, "--manifest", str(manifest),
                    "--out", str(feats)]) == 2
        assert not feats.exists()
        assert capsys.readouterr().err == f"error: bad manifest {manifest}: {reason}\n"

    def test_quoted_manifest_path_extracts(self, workdir):
        tmp_path, cfg = workdir
        out = tmp_path / "images"
        run(["phantom", "--config", cfg, "--out", str(out)])
        (out / "phantom_0000_normal.pgm").rename(out / "a,b.pgm")
        manifest = out / "quoted.csv"
        manifest.write_text(
            'path,label\n"a,b.pgm",normal\nphantom_0006_suspicious.pgm,suspicious\n'
        )
        feats = tmp_path / "f.csv"
        assert run(["extract", "--config", cfg, "--manifest", str(manifest),
                    "--out", str(feats)]) == 0
        rows = list(csv.reader(io.StringIO(feats.read_text())))
        assert [row[:2] for row in rows[1:]] == [
            ["a,b.pgm", "normal"], ["phantom_0006_suspicious.pgm", "suspicious"]
        ]

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_permuted_manifest_permutes_the_rows(self, workdir, jobs):
        """Each row depends on its own image only: a manifest in another order gives the
        same rows in that order, serial or pooled."""
        tmp_path, cfg = workdir
        out = tmp_path / "images"
        run(["phantom", "--config", cfg, "--out", str(out)])
        manifest = (out / "manifest.csv").read_text().splitlines()
        order = np.random.default_rng(3).permutation(len(manifest) - 1) + 1
        permuted = [manifest[0], *(manifest[i] for i in order)]
        (out / "permuted.csv").write_text("\n".join(permuted) + "\n")
        serial, shuffled = tmp_path / "serial.csv", tmp_path / "permuted.csv"
        assert run(["extract", "--config", cfg, "--manifest", str(out / "manifest.csv"),
                    "--out", str(serial)]) == 0
        assert run(["extract", "--config", cfg, "--manifest", str(out / "permuted.csv"),
                    "--out", str(shuffled), "--jobs", jobs]) == 0
        rows = serial.read_text().splitlines()
        assert shuffled.read_text().splitlines() == [rows[0], *(rows[i] for i in order)]

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
        """Only the image that kills its worker fails; the rest keep their serial rows."""
        tmp_path, cfg = workdir
        out = tmp_path / "images"
        run(["phantom", "--config", cfg, "--out", str(out)])
        serial = tmp_path / "serial.csv"
        run(["extract", "--config", cfg, "--manifest", str(out / "manifest.csv"),
             "--out", str(serial)])
        monkeypatch.setattr(cli, "_extract_one", _extract_or_die)
        feats = tmp_path / "f.csv"
        capsys.readouterr()
        status = run(["extract", "--config", cfg, "--manifest", str(out / "manifest.csv"),
                      "--out", str(feats), "--jobs", "2"])
        assert status == 1
        assert capsys.readouterr().err == f"extract failed for {DEAD_IMAGE}: worker process died\n"
        lines = serial.read_text().splitlines()
        expected = [line for line in lines if not line.startswith(DEAD_IMAGE)]
        assert feats.read_text().splitlines() == expected
        assert len(expected) == 12  # header + the other 11 rows, in manifest order

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers see the patched extractor only when forked",
    )
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_image_too_large_to_allocate_is_a_failure_line(
        self, workdir, capsys, monkeypatch, jobs
    ):
        """A MemoryError in one image is that image's failure line and exit 1, not a traceback."""
        tmp_path, cfg = workdir
        out = tmp_path / "images"
        run(["phantom", "--config", cfg, "--out", str(out)])
        manifest = out / "manifest.csv"
        serial = tmp_path / "serial.csv"
        run(["extract", "--config", cfg, "--manifest", str(manifest), "--out", str(serial)])
        (out / "wide.pgm").write_bytes(write_pgm(GrayImage(np.ones((16, 40))), binary=True))
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(lines[:4] + ["wide.pgm,normal\n"] + lines[4:]))
        monkeypatch.setattr(cli, "extract_features", _extract_or_run_out)
        feats = tmp_path / "f.csv"
        capsys.readouterr()
        status = run(["extract", "--config", cfg, "--manifest", str(manifest),
                      "--out", str(feats), "--jobs", jobs])
        assert status == 1
        assert capsys.readouterr().err == f"extract failed for wide.pgm: {OUT_OF_MEMORY}\n"
        assert feats.read_bytes() == serial.read_bytes()


# Runs in a fresh interpreter: argv[1] is a JSON list of CLI argvs, then the extract argv.
# Prints, as its last line, the scipy modules loaded after each step, and the ones the
# parent holds when extract builds its pool (stubbed, so tasks run inline).
_SCIPY_PROBE = """
import json, sys
from concurrent.futures import Future

def loaded():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")

seen = {}
import mammoscope
seen["import mammoscope"] = loaded()
from mammoscope import cli
seen["import mammoscope.cli"] = loaded()
*commands, extract = json.loads(sys.argv[1])
for argv in commands:
    assert cli.main(argv) == 0, argv
    seen[argv[0]] = loaded()

class Executor:
    def __init__(self, max_workers, **options):
        seen["pool"] = [name for name in ("scipy.fft", "scipy.ndimage") if name in sys.modules]
    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future
    def shutdown(self):
        pass

cli.ProcessPoolExecutor = Executor
assert cli.main(extract) == 0
print(json.dumps(seen))
"""


class TestScipyImport:
    def test_only_extract_loads_scipy(self, workdir):
        """Table commands never import scipy; ``extract --jobs 2`` imports it before the pool.

        Needs a fresh interpreter: this one already holds scipy from other test modules.
        """
        tmp_path, cfg = workdir
        feats, model = tmp_path / "f.csv", tmp_path / "m.txt"
        feats.write_text(_small_csv())
        images = tmp_path / "images"
        argvs = [
            ["phantom", "--config", cfg, "--out", str(images)],
            ["train", "--features", str(feats), "--out", str(model)],
            ["predict", "--features", str(feats), "--model", str(model),
             "--out", str(tmp_path / "p.csv")],
            ["evaluate", "--config", cfg, "--features", str(feats)],
            ["extract", "--config", cfg, "--manifest", str(images / "manifest.csv"),
             "--out", str(tmp_path / "x.csv"), "--jobs", "2"],
        ]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(argvs)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {
            "import mammoscope": [],
            "import mammoscope.cli": [],
            "phantom": [],
            "train": [],
            "predict": [],
            "evaluate": [],
            "pool": ["scipy.fft", "scipy.ndimage"],
        }


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


def _unloadable_csv(case):
    """A 12-row feature CSV that parses, but whose trained model would not load."""
    labels = [("normal", "suspicious")[i % 2] for i in range(12)]
    if case == "no-features":
        return "id,label\n" + "".join(f"r{i},{label}\n" for i, label in enumerate(labels))
    if case == "overflow":
        return "id,label,a\n" + "".join(
            f"r{i},{label},{('1e308', '-1e308')[i // 2 % 2]}\n" for i, label in enumerate(labels)
        )
    header = {"non-ascii-name": "id,label,a,é", "space-in-name": 'id,label,a,"a b"',
              "empty-name": 'id,label,a,""'}[case]
    return _small_csv(header)


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
            ('id,label\nx,"normal\n', "row 'x' (data row 1): quoted field never closes"),
            ('id,label,a\n"x"y,normal,abc\n', "row 'xy' (data row 1): text after closing quote"),
        ],
        ids=["duplicate-name", "header-only", "header-and-blank-lines", "too-many-values",
             "too-few-values", "empty-field", "garbage-token", "digit-separator", "bad-label",
             "open-quote-at-end", "text-after-closing-quote", "quote-before-label",
             "quote-before-value"],
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

    @pytest.mark.parametrize("stale", [False, True])
    @pytest.mark.parametrize("missing", [0, 1])
    def test_evaluate_writes_both_roc_files_or_neither(self, workdir, capsys, missing, stale):
        """With one ROC path in a missing directory, the other keeps its old bytes or stays
        absent, and no temporary file is left behind."""
        tmp_path, cfg = workdir
        feats = tmp_path / "f.csv"
        feats.write_text(_small_csv())
        paths = [tmp_path / "roc.csv", tmp_path / "roc.svg"]
        paths[missing] = tmp_path / "nodir" / paths[missing].name
        other = paths[1 - missing]
        if stale:
            other.write_text("previous\n")
        before = sorted(os.listdir(tmp_path))
        assert run(["evaluate", "--config", cfg, "--features", str(feats),
                    "--roc-csv", str(paths[0]), "--roc-svg", str(paths[1])]) == 2
        assert f"cannot write {paths[missing]}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before
        assert other.exists() == stale and (not stale or other.read_text() == "previous\n")

    @pytest.mark.parametrize("svg_path", ["roc.out", "./roc.out", "here/roc.out"])
    def test_two_roc_flags_naming_one_file_is_exit_2(self, workdir, capsys, monkeypatch, svg_path):
        """Both ROC tables cannot go to one file: exit 2 before anything is written, also when
        the two spellings differ or one goes through a symlinked directory."""
        tmp_path, cfg = workdir
        feats = tmp_path / "f.csv"
        feats.write_text(_small_csv())
        (tmp_path / "roc.out").write_text("previous\n")
        os.symlink(".", tmp_path / "here")
        before = sorted(os.listdir(tmp_path))
        monkeypatch.chdir(tmp_path)
        assert run(["evaluate", "--config", cfg, "--features", str(feats),
                    "--roc-csv", "roc.out", "--roc-svg", svg_path]) == 2
        err = "error: --roc-csv and --roc-svg name one file: roc.out\n"
        assert capsys.readouterr() == ("", err)
        assert sorted(os.listdir(tmp_path)) == before
        assert (tmp_path / "roc.out").read_text() == "previous\n"

    def test_two_devices_on_one_pipe_are_two_outputs(self, workdir):
        """``/dev/stdout`` and ``/dev/stderr`` lead to one pipe under ``2>&1``, but they are two
        names, each written in place: both ROC tables arrive."""
        tmp_path, cfg = workdir
        feats = tmp_path / "f.csv"
        feats.write_text(_small_csv())
        proc = subprocess.run(
            [sys.executable, "-m", "mammoscope.cli", "evaluate", "--config", cfg, "--features",
             str(feats), "--roc-csv", "/dev/stdout", "--roc-svg", "/dev/stderr"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=_fresh_env(),
            timeout=120)
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout.startswith("threshold,fpr,tpr\n")
        assert "</svg>" in proc.stdout and "auc         : " in proc.stdout

    def test_pipe_is_written_only_once_every_other_output_is_staged(self, workdir, capsys):
        """A FIFO target is written in place, but after every temporary file: when the other
        ROC file cannot be written, nothing reaches the FIFO. The error names the target, not
        its temporary file, so two runs print the same."""
        tmp_path, cfg = workdir
        feats = tmp_path / "f.csv"
        feats.write_text(_small_csv())
        fifo, svg = tmp_path / "roc.fifo", tmp_path / "nodir" / "r.svg"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so a writer's open does not block
        try:
            errors = []
            for _ in range(2):
                assert run(["evaluate", "--config", cfg, "--features", str(feats),
                            "--roc-csv", str(fifo), "--roc-svg", str(svg)]) == 2
                errors.append(capsys.readouterr().err)
            assert os.read(reader, 1 << 16) == b""
        finally:
            os.close(reader)
        assert errors == [f"error: cannot write {svg}: No such file or directory\n"] * 2

    @pytest.mark.parametrize("empty", ["--roc-csv", "--roc-svg"])
    def test_empty_roc_path_is_exit_2(self, workdir, capsys, monkeypatch, empty):
        """An empty ROC path is a path that cannot be written, as ``train --out ""`` is: exit 2,
        and the other ROC file is not written."""
        tmp_path, cfg = workdir
        feats = tmp_path / "f.csv"
        feats.write_text(_small_csv())
        other = {"--roc-csv": "--roc-svg", "--roc-svg": "--roc-csv"}[empty]
        before = sorted(os.listdir(tmp_path))
        monkeypatch.chdir(tmp_path)
        assert run(["evaluate", "--config", cfg, "--features", str(feats),
                    empty, "", other, "roc.out"]) == 2
        assert capsys.readouterr() == ("", "error: cannot write : Is a directory\n")
        assert sorted(os.listdir(tmp_path)) == before

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

    def test_failed_replace_keeps_previous_phantom_set(self, workdir, monkeypatch):
        tmp_path, cfg = workdir
        out = tmp_path / "images"
        assert run(["phantom", "--config", cfg, "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        other = tmp_path / "other.cfg"  # another seed, so any file written through would differ
        other.write_text(SMALL_CONFIG.replace("phantom.seed = 77", "phantom.seed = 78"))

        def failing_replace(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(cli.os, "replace", failing_replace)
        assert run(["phantom", "--config", str(other), "--out", str(out)]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

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


def _held_extract(tmp_path, cfg, jobs):
    """``extract`` started in its own session on a manifest whose first image is a FIFO,
    and the FIFO's write end, opened once the run (or one of its workers) opens it to
    read: from then on the run is mid-way, and stays so until the FIFO closes."""
    images = tmp_path / "images"
    assert run(["phantom", "--config", cfg, "--out", str(images)]) == 0
    os.mkfifo(images / "held.pgm")
    manifest = images / "manifest.csv"
    manifest.write_text(manifest.read_text().replace("label\n", "label\nheld.pgm,normal\n", 1))
    proc = subprocess.Popen(
        [sys.executable, "-m", "mammoscope.cli", "extract", "--config", cfg, "--manifest",
         str(manifest), "--out", str(tmp_path / "f.csv"), "--jobs", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_fresh_env(),
        start_new_session=True)
    held = []
    opener = threading.Thread(
        target=lambda: held.append(os.open(images / "held.pgm", os.O_WRONLY)), daemon=True)
    opener.start()
    opener.join(timeout=60)
    if not held:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the run never opened its FIFO")
    return proc, held[0]


def _stop(proc, fifo):
    """Kill whatever is left of the run's group, then close the FIFO and the run's pipes."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)  # only a run that fails its test leaves one
    os.close(fifo)
    proc.communicate()


class TestInterrupt:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("sig, to_group", [
        (signal.SIGINT, True), (signal.SIGTERM, False), (signal.SIGTERM, True),
    ], ids=["SIGINT-to-group", "SIGTERM-to-run", "SIGTERM-to-group"])
    def test_interrupted_run_stops_at_once(self, workdir, jobs, sig, to_group):
        """SIGINT to the process group, as Ctrl-C sends, or SIGTERM to the run or its group:
        the run stops within seconds, with one line, no output and no live process."""
        tmp_path, cfg = workdir
        proc, fifo = _held_extract(tmp_path, cfg, jobs)
        before = sorted(os.listdir(tmp_path))
        try:
            (os.killpg if to_group else os.kill)(proc.pid, sig)
            out, err = proc.communicate(timeout=5)
            assert (proc.returncode, out, err) == (128 + sig, "", "error: interrupted\n")
            assert sorted(os.listdir(tmp_path)) == before  # no feature CSV, no temporary file
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)  # the workers are gone too
        finally:
            _stop(proc, fifo)

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
    def test_interrupt_between_renames_waits_for_the_last(self, workdir, capsys, monkeypatch, sig):
        """A stop signal that comes once the first ROC file is renamed into place still
        leaves both files new, and the run still exits as interrupted."""
        tmp_path, cfg = workdir
        feats = tmp_path / "f.csv"
        feats.write_text(_small_csv())

        def evaluate(roc_csv, roc_svg):
            return run(["evaluate", "--config", cfg, "--features", str(feats),
                        "--roc-csv", str(roc_csv), "--roc-svg", str(roc_svg)])

        fresh = [tmp_path / "fresh.csv", tmp_path / "fresh.svg"]
        assert evaluate(*fresh) == 0
        roc = [tmp_path / "roc.csv", tmp_path / "roc.svg"]
        for path in roc:
            path.write_text("previous\n")
        before = sorted(os.listdir(tmp_path))
        renamed, replace = [], os.replace

        def replace_then_stop(src, dst):
            replace(src, dst)
            renamed.append(dst)
            if len(renamed) == 1:
                signal.raise_signal(sig)

        monkeypatch.setattr(cli.os, "replace", replace_then_stop)
        capsys.readouterr()
        assert evaluate(*roc) == 128 + sig
        assert capsys.readouterr().err == "error: interrupted\n"
        assert [p.read_bytes() for p in roc] == [p.read_bytes() for p in fresh]
        assert sorted(os.listdir(tmp_path)) == before  # no temporary file

    def test_interrupt_during_a_failed_rename_is_still_delivered(
        self, workdir, capsys, monkeypatch
    ):
        """A rename that fails after a stop signal came leaves the old files and no temporary
        file, and the run exits as interrupted, not as a write error."""
        tmp_path, cfg = workdir
        feats = tmp_path / "f.csv"
        feats.write_text(_small_csv())
        roc = [tmp_path / "roc.csv", tmp_path / "roc.svg"]
        for path in roc:
            path.write_text("previous\n")
        before = sorted(os.listdir(tmp_path))

        def stop_then_fail(src, dst):
            signal.raise_signal(signal.SIGINT)
            raise OSError("simulated rename failure")

        monkeypatch.setattr(cli.os, "replace", stop_then_fail)
        assert run(["evaluate", "--config", cfg, "--features", str(feats),
                    "--roc-csv", str(roc[0]), "--roc-svg", str(roc[1])]) == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert [p.read_text() for p in roc] == ["previous\n"] * 2
        assert sorted(os.listdir(tmp_path)) == before

    def test_pool_forks_under_a_forkserver_default(self, workdir):
        """Under a forkserver default start method too, a worker's parent is the run, so its
        exit watcher keeps it: ``--jobs 2`` writes what ``--jobs 1`` writes."""
        tmp_path, cfg = workdir
        images = tmp_path / "images"
        assert run(["phantom", "--config", cfg, "--out", str(images)]) == 0
        argv = ["extract", "--config", cfg, "--manifest", str(images / "manifest.csv")]
        assert run([*argv, "--out", str(tmp_path / "serial.csv")]) == 0
        argv += ["--out", str(tmp_path / "pooled.csv"), "--jobs", "2"]
        script = ("import multiprocessing, sys\n"
                  "multiprocessing.set_start_method('forkserver')\n"
                  "from mammoscope import cli\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, env=_fresh_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_worker_exits_when_its_parent_dies(self, workdir):
        """A worker blocked on its image exits once the run is killed outright."""
        tmp_path, cfg = workdir
        proc, fifo = _held_extract(tmp_path, cfg, "2")
        watch = select.poll()
        watch.register(fifo, 0)  # POLLERR comes once the FIFO's reader has closed it
        try:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=5)
            assert watch.poll(5000) == [(fifo, select.POLLERR)]
        finally:
            _stop(proc, fifo)


class TestTrainPredict:
    @pytest.mark.parametrize("select_k", [None, 3])
    def test_model_file_is_the_saved_fit(self, workdir, select_k):
        """``train`` writes what ``evaluation.fit`` returns, selection or not."""
        tmp_path, cfg = workdir
        if select_k is not None:
            with open(cfg, "a") as f:
                f.write(f"select.k = {select_k}\n")
        feats = _pipeline_to_features(workdir)
        model = tmp_path / "model.nb"
        assert run(["train", "--config", cfg, "--features", str(feats), "--out", str(model)]) == 0
        fitted = evaluation.fit(table_from_csv(read_text(feats, "features")), load_config(cfg))
        assert len(fitted.feature_names) == (select_k or 8)
        assert model.read_bytes() == bayes.save_model(fitted)

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

    @pytest.mark.parametrize("edit", ["permuted", "extra", "permuted-and-extra"])
    def test_predictions_ignore_column_order_and_extra_columns(self, workdir, edit):
        """``predict`` reads the model's columns by name, so neither the order of a feature
        CSV's columns nor columns the model does not name change a byte of its output."""
        tmp_path, cfg = workdir
        feats = _pipeline_to_features(workdir)
        model = tmp_path / "model.nb"
        assert run(["train", "--config", cfg, "--features", str(feats), "--out", str(model)]) == 0
        rows = list(csv.reader(io.StringIO(feats.read_text())))
        columns = list(range(2, len(rows[0])))
        if "permuted" in edit:
            columns = np.random.default_rng(4).permutation(columns).tolist()
        table = [[row[0], row[1], *(row[c] for c in columns)] for row in rows]
        if "extra" in edit:
            for i, row in enumerate(table):
                row[3:3] = ["extra_a", "extra_b"] if i == 0 else [repr(0.25 * i), "-1.5"]
                row.append("extra_c" if i == 0 else repr(-float(i)))
        edited = tmp_path / "edited.csv"
        with open(edited, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(table)
        outputs = [tmp_path / "pred.csv", tmp_path / "pred-edited.csv"]
        for features, pred in zip((feats, edited), outputs):
            assert run(["predict", "--features", str(features), "--model", str(model),
                        "--out", str(pred)]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

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

    @pytest.mark.parametrize("config, threshold", [
        ("classifier.threshold = 0.3\n", 0.3),
        ("classifier.threshold = 0.7\n", 0.7),
        (None, 0.5),
    ])
    def test_predict_threshold_source(self, tmp_path, config, threshold):
        """``predict`` decides at the config's ``classifier.threshold``; without a config, 0.5."""
        feats, model, pred = tmp_path / "f.csv", tmp_path / "m.txt", tmp_path / "p.csv"
        feats.write_text(_small_csv())
        assert run(["train", "--features", str(feats), "--out", str(model)]) == 0
        argv = ["predict", "--features", str(feats), "--model", str(model), "--out", str(pred)]
        if config is not None:
            (tmp_path / "predict.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "predict.cfg")]
        assert run(argv) == 0
        rows = list(csv.reader(io.StringIO(pred.read_text())))[1:]
        labels = [label for _, _, label in rows]
        assert labels == ["suspicious" if float(s) >= threshold else "normal" for _, s, _ in rows]
        assert labels.count("suspicious") == {0.3: 9, 0.5: 6, 0.7: 2}[threshold]

    def test_predict_bad_config_is_exit_2(self, tmp_path, capsys):
        feats, model, pred = tmp_path / "f.csv", tmp_path / "m.txt", tmp_path / "p.csv"
        feats.write_text(_small_csv())
        assert run(["train", "--features", str(feats), "--out", str(model)]) == 0
        (tmp_path / "predict.cfg").write_text("classifier.threshold = 1.5\n")
        assert run(["predict", "--features", str(feats), "--model", str(model),
                    "--config", str(tmp_path / "predict.cfg"), "--out", str(pred)]) == 2
        assert "classifier.threshold must lie in (0, 1)" in capsys.readouterr().err
        assert not pred.exists()

    def test_predict_has_no_threshold_flag(self, tmp_path, capsys):
        """The threshold has one source, the config: ``--threshold`` is a usage error."""
        pred = tmp_path / "p.csv"
        with pytest.raises(SystemExit) as exc:
            run(["predict", "--features", "f.csv", "--model", "m.txt",
                 "--threshold", "0.3", "--out", str(pred)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threshold 0.3" in capsys.readouterr().err
        assert not pred.exists()

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

    @pytest.mark.parametrize(
        "command, case, select",
        [pytest.param("train", case, "", id=case) for case in
         ["non-ascii-name", "space-in-name", "empty-name", "no-features", "overflow"]]
        + [pytest.param("evaluate", case, "", id=f"evaluate-{case}")
           for case in ["no-features", "overflow"]]
        + [pytest.param(command, case, "select.k = 1\n", id=f"{command}-{case}-select-k")
           for command in ["train", "evaluate"] for case in ["no-features", "overflow"]],
    )
    def test_unloadable_model_is_exit_2_and_not_written(
        self, workdir, tmp_path, capsys, command, case, select
    ):
        _, cfg = workdir
        if select:
            cfg = tmp_path / "sel.cfg"
            cfg.write_text(SMALL_CONFIG + select)
        feats = tmp_path / "f.csv"
        feats.write_text(_unloadable_csv(case), encoding="utf-8")
        argv, outputs = _command(command, str(cfg), feats, tmp_path)
        assert run(argv) == 2
        assert not any(p.exists() for p in outputs)
        captured = capsys.readouterr()
        assert captured.err.count("error: ") == 1
        assert "Traceback" not in captured.err
        # 1e308 overflows numpy's variance; the model check rejects the inf, and no warning shows
        assert "Warning" not in captured.err
        assert captured.out == ""

    def test_predict_on_overflowing_rows_is_quiet_and_unchanged(self, workdir, tmp_path, capsys):
        _, cfg = workdir
        feats = tmp_path / "big.csv"
        feats.write_text("id,label,a,b\n" + "".join(  # _small_csv with every a at 1e308
            f"r{i},{('normal', 'suspicious')[i % 2]},1e308,{(i * 7) % 11 / 3}\n" for i in range(12)
        ))
        argv, (pred,) = _command("predict", cfg, feats, tmp_path)
        capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr().err == ""
        # pinned bytes: silencing numpy's warnings must not move a score
        assert pred.read_bytes() == (
            b"id,score,label\nr0,0.3719540431257001,normal\nr1,0.5745102466304783,suspicious\n"
            b"r2,0.4200639775759401,normal\nr3,0.7375215915980102,suspicious\n"
            b"r4,0.526628430370209,suspicious\nr5,0.3977301442286104,normal\n"
            b"r6,0.6821203028409036,suspicious\nr7,0.48457051688353997,normal\n"
            b"r8,0.38176990590717347,normal\nr9,0.6269723467614755,suspicious\n"
            b"r10,0.4489833255381699,normal\nr11,0.3719540431257001,normal\n"
        )

    @pytest.mark.parametrize(
        "old, new",
        [
            ("prior normal 0.5", "prior normal nan"),
            ("a 1.6666666666666667 ", "a nan "),
            (" 2.222222222222222\n", " nan\n"),
            ("prior normal 0.5\n", "prior normal 0.3\nprior normal 0.5\n"),
        ],
        ids=["nan-prior", "nan-mean", "nan-variance", "repeated-prior"],
    )
    def test_unscorable_model_file_is_exit_2(self, workdir, tmp_path, capsys, old, new):
        _, cfg = workdir
        feats = tmp_path / "f.csv"
        feats.write_text(_small_csv())
        argv, (pred,) = _command("predict", cfg, feats, tmp_path)
        model = Path(argv[argv.index("--model") + 1])
        text = model.read_text()
        assert text.count(old) == 1  # the normal class's prior, or its mean or variance of a
        model.write_text(text.replace(old, new))
        capsys.readouterr()
        assert run(argv) == 2
        assert not pred.exists()
        captured = capsys.readouterr()
        assert captured.err.count("error: ") == 1
        assert "Traceback" not in captured.err and "Warning" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("newline, tail", [("\r", ""), ("\n", "\r\r")],
                             ids=["cr-only", "cr-cr-tail"])
    def test_cr_line_endings_train_like_lf(self, workdir, tmp_path, newline, tail):
        _, cfg = workdir
        models = []
        for name, text in [("lf", _small_csv()),
                           ("cr", _small_csv().replace("\n", newline) + tail)]:
            feats, model = tmp_path / f"{name}.csv", tmp_path / f"{name}.txt"
            feats.write_bytes(text.encode("ascii"))
            assert run(["train", "--config", cfg, "--features", str(feats),
                        "--out", str(model)]) == 0
            models.append(model.read_bytes())
        assert models[0] == models[1]


def _outcome(call, output, capsys):
    """Exit code, stdout, stderr and output bytes of one in-process ``cli.main`` call."""
    try:
        code = run(call)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, output.read_bytes() if output else None


def _fresh_env():
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _fresh_outcome(call, output):
    """The same, for the command run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-m", "mammoscope.cli", *call],
                          capture_output=True, text=True, env=_fresh_env(), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr, output.read_bytes() if output else None


class TestParserBuiltOnce:
    def test_each_call_acts_as_in_a_fresh_process(self, tmp_path, capsys):
        """``main`` builds its parser once per process. A call that argparse rejects and
        one that sets ``--config`` leave nothing behind: every call's exit code,
        streams and output match the same command run in a fresh interpreter."""
        feats, model, cfg = tmp_path / "f.csv", tmp_path / "m.txt", tmp_path / "p.cfg"
        feats.write_text(_small_csv())
        cfg.write_text("classifier.threshold = 0.3\n")
        predict = ["predict", "--features", str(feats), "--model", str(model)]
        at_03, at_05 = tmp_path / "p03.csv", tmp_path / "p05.csv"
        calls = [
            (["train", "--features", str(feats), "--out", str(model)], model),
            (predict + ["--config", str(cfg)], None),  # no --out
            (predict + ["--config", str(cfg), "--out", str(at_03)], at_03),
            (predict + ["--out", str(at_05)], at_05),
        ]
        in_process = [_outcome(call, output, capsys) for call, output in calls]
        assert cli._build_parser() is cli._build_parser()
        assert [code for code, *_ in in_process] == [0, 2, 0, 0]
        assert "the following arguments are required: --out" in in_process[1][2]
        suspicious = [data.decode().count(",suspicious\n") for *_, data in in_process[2:]]
        assert suspicious == [9, 6]
        for path in (model, at_03, at_05):
            path.unlink()
        assert [_fresh_outcome(call, output) for call, output in calls] == in_process


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


BOM = b"\xef\xbb\xbf"


def _runs_without_and_with_bom(source, argv, outputs, capsys):
    """Exit status, stdout and output bytes of ``argv``, run on ``source`` as it is and
    then with a UTF-8 byte-order mark in front; an output directory counts as its files."""
    text = source.read_bytes()
    runs = []
    for prefix in (b"", BOM):
        source.write_bytes(prefix + text)
        for out in outputs:
            if out.is_dir():
                shutil.rmtree(out)
            else:
                out.unlink(missing_ok=True)
        capsys.readouterr()
        status = run(argv)
        files = [f for out in outputs for f in (sorted(out.glob("*")) or [out]) if f.exists()]
        runs.append((status, capsys.readouterr().out, {f.name: f.read_bytes() for f in files}))
    return runs


class TestByteOrderMark:
    """A UTF-8 byte-order mark on a text input changes no output byte."""

    def test_config(self, workdir, capsys):
        tmp_path, cfg = workdir
        out = tmp_path / "images"
        argv = ["phantom", "--config", cfg, "--out", str(out)]
        plain, marked = _runs_without_and_with_bom(Path(cfg), argv, [out], capsys)
        assert plain[0] == 0 and len(plain[2]) == 13 and plain == marked

    def test_manifest(self, workdir, capsys):
        tmp_path, cfg = workdir
        out = tmp_path / "images"
        assert run(["phantom", "--config", cfg, "--out", str(out)]) == 0
        feats = tmp_path / "features.csv"
        argv = ["extract", "--config", cfg, "--manifest", str(out / "manifest.csv"),
                "--out", str(feats)]
        plain, marked = _runs_without_and_with_bom(out / "manifest.csv", argv, [feats], capsys)
        assert plain[0] == 0 and plain[2] and plain == marked

    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    def test_feature_csv(self, workdir, tmp_path, capsys, command):
        _, cfg = workdir
        feats = tmp_path / "features.csv"
        feats.write_text(_small_csv())
        argv, outputs = _command(command, cfg, feats, tmp_path)
        plain, marked = _runs_without_and_with_bom(feats, argv, outputs, capsys)
        assert plain[0] == 0 and len(plain[2]) == len(outputs) and plain == marked


def _writes_a_file(call: ast.Call) -> bool:
    """``.write_bytes``/``.write_text``, or an ``open`` whose mode may write."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    if name in ("write_bytes", "write_text"):
        return True
    if name != "open":
        return False
    index = 1 if isinstance(func, ast.Name) else 0  # open(file, mode) or path.open(mode)
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[index] if len(call.args) > index else ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wxa+"))


def _file_writes(source: str) -> list[str]:
    """Name of the innermost function around each file write in ``source``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and _writes_a_file(node):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


class TestOneWriter:
    @pytest.mark.parametrize("source, writes", [
        ("Path(p).write_bytes(b'')", True),
        ("p.write_text('x')", True),
        ("open(p, 'w')", True),
        ("open(p, mode='ab')", True),
        ("open(p, 'r+b')", True),
        ("p.open('x')", True),
        ("open(p, m)", True),
        ("open(p)", False),
        ("open(p, 'rb')", False),
        ("p.open()", False),
        ("Path(p).read_bytes()", False),
    ])
    def test_detector(self, source, writes):
        assert _file_writes(source) == (["<module>"] if writes else [])

    def test_write_output_is_the_only_writer(self):
        writers = {
            path.name: _file_writes(path.read_text(encoding="utf-8"))
            for path in sorted(Path(cli.__file__).parent.glob("*.py"))
        }
        assert writers.pop("cli.py") == ["_write_output", "_write_output"]
        assert writers == {name: [] for name in writers}
