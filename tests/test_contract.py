"""The CLI contract under hostile inputs.

A small valid working set is made by the CLI itself: a config naming every
key, ten 32x32 phantoms with their manifest, the feature CSV and the model.
Each example mutates one input file one way: a byte is flipped, the file is
cut short, or a hostile token is inserted. The command that reads the file
then either exits 0 (or 1, for ``extract``) with outputs that parse back and
a rerun that gives the same bytes, or exits 2 with one ``error:`` line and
every file left as it was. ``extract`` exits 1 without writing when no
image could be extracted.
"""

import contextlib
import csv
import io
import math
import warnings
import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mammoscope import cli, config
from mammoscope.bayes import load_model
from mammoscope.errors import MammoscopeError
from mammoscope.features import LABELS, SUSPICIOUS, table_from_csv
from mammoscope.imgio import read_pgm, to_gray, write_pgm

VALID_CONFIG = b"""\
preprocess.threshold = 0.1
wavelet.filter = daub4
wavelet.levels = 3
features.mode = default8
select.k = 2
classifier.threshold = 0.5
cv.k = 5
cv.seed = 0
phantom.size = 32
phantom.count_per_class = 5
phantom.seed = 7
phantom.noise_sigma = 0.02
phantom.mass_amplitude = 0.3
phantom.mass_radius = 4
phantom.microcalc_count = 8
phantom.microcalc_amplitude = 0.5
phantom.artifact_label = off
"""

# the file's first image is the one mutated; the second stays valid, so extract reaches exit 1
MANIFEST = b"path,label\na.pgm,normal\nb.pgm,suspicious\n"

COMMON = [b"nan", b"inf", b"-inf", b"1e308", b"-1e308", b"1_0", b"9" * 5000,
          b"\r", b"\n", b"\x00", b"\xff\xfe", b"\x80", b"\xef\xbb\xbf"]
CONFIG_TOKENS = COMMON + [b"\ncv.k = 3\n", b"\npreprocess.orient = on\n",
                          b"\npreprocess.artifact_removal = off\n", b"="]
TABLE_TOKENS = COMMON + [b'"', b",", b"1e-320", b"normal", b"suspicious",
                         b"\nx,normal\n", b"\nid,label\n"]
MODEL_TOKENS = COMMON + [b"0", b"-1", b"1e-300", b"\nprior normal 0.5\n",
                         b"\ngauss normal wll_std 1.0 1.0\n", b"nbmodel v2\n", b"gauss"]
MANIFEST_TOKENS = COMMON + [b'"', b",", b"normal", b"suspicious", b"\npath,label\n",
                           b"\nb.pgm,suspicious\n", b"\nmissing.pgm,normal\n", b"\n.,normal\n"]
PGM_TOKENS = COMMON + [b"-1", b"+1", b"0" * 30 + b"7", b"9" * 19, b"9" * 30, b"0" * 4301,
                       b"#", b"\n# c\n", b"P2", b"P5", b"65536", b"99999 99999", b" "]

STALE = b"stale output\n"
NOTHING_EXTRACTED = "error: no image could be extracted\n"


@st.composite
def mutated(draw, base, tokens, head=0):
    """``base`` with one byte flipped, cut short, or with one of ``tokens``
    inserted; a nonzero ``head`` draws about half the positions from its first bytes."""
    how = draw(st.sampled_from(["flip", "truncate", "insert"]))
    positions = st.integers(0, len(base))
    if head:
        positions = st.one_of(st.integers(0, head), positions)
    at = min(draw(positions), len(base) - (how == "flip"))
    if how == "flip":
        return base[:at] + bytes([base[at] ^ draw(st.integers(1, 255))]) + base[at + 1:]
    if how == "truncate":
        return base[:at]
    return base[:at] + draw(st.sampled_from(tokens)) + base[at:]


def run(argv):
    """``cli.main`` in-process: exit status, stdout, stderr and any warnings raised."""
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue(), caught


def files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def check(directory, argv, inputs, outputs, stale):
    """Run ``argv`` on ``inputs`` in the emptied ``directory`` and check the contract.

    With ``stale`` each output name already holds old bytes. Returns the exit
    status, stdout, stderr and the written outputs, which the caller parses.
    """
    for p in directory.iterdir():
        p.unlink()
    for name, data in {**inputs, **dict.fromkeys(outputs if stale else (), STALE)}.items():
        (directory / name).write_bytes(data)
    before = files(directory)
    argv = [str(directory / a) if a in inputs or a in outputs else a for a in argv]
    status, out, err, caught = run(argv)
    assert status in (0, 1, 2)
    assert "Traceback" not in err and "Warning" not in err
    assert caught == []
    if status == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    if status == 2 or err.endswith(NOTHING_EXTRACTED):
        assert files(directory) == before
        return status, out, err, {}
    after = files(directory)
    assert after.keys() == before.keys() | set(outputs)
    assert run(argv)[:3] == (status, out, err)
    assert files(directory) == after
    return status, out, err, {name: after[name] for name in outputs}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The working set, as the CLI writes it: config, phantoms, manifest, features, model."""
    d = tmp_path_factory.mktemp("valid")
    (d / "run.cfg").write_bytes(VALID_CONFIG)
    for argv in (["phantom", "--out", str(d)],
                 ["extract", "--manifest", str(d / "manifest.csv"), "--out", str(d / "features.csv")],
                 ["train", "--features", str(d / "features.csv"), "--out", str(d / "model.nb")]):
        assert run([*argv, "--config", str(d / "run.cfg")])[:3:2] == (0, "")
    return files(d)


def test_valid_config_names_every_key():
    keys = [line.split(b"=")[0].strip().decode() for line in VALID_CONFIG.splitlines()]
    assert keys == list(config._KEYS)


def train(directory, cfg, features, stale):
    status, out, err, written = check(
        directory, ["train", "--config", "run.cfg", "--features", "features.csv", "--out", "model.nb"],
        {"run.cfg": cfg, "features.csv": features}, ["model.nb"], stale)
    if status != 2:
        assert status == 0 and err == ""
        load_model(written["model.nb"])
    return status


def predict(directory, cfg, features, model, stale):
    status, out, err, written = check(
        directory, ["predict", "--config", "run.cfg", "--features", "features.csv",
                    "--model", "model.nb", "--out", "predictions.csv"],
        {"run.cfg": cfg, "features.csv": features, "model.nb": model},
        ["predictions.csv"], stale)
    if status != 2:
        assert status == 0 and err == "" and out == ""
        rows = list(csv.reader(io.StringIO(written["predictions.csv"].decode("utf-8"))))
        assert rows[0] == ["id", "score", "label"]
        table = table_from_csv(config.read_text(directory / "features.csv", "features"))
        assert [row[0] for row in rows[1:]] == list(table.ids)
        threshold = config.load_config(directory / "run.cfg").classifier_threshold
        for _, score, label in rows[1:]:
            assert 0.0 < float(score) < 1.0 and label in LABELS
            assert (label == SUSPICIOUS) == (float(score) >= threshold)
    return status


def evaluate(directory, cfg, features, stale):
    status, out, err, written = check(
        directory, ["evaluate", "--config", "run.cfg", "--features", "features.csv",
                    "--roc-csv", "roc.csv", "--roc-svg", "roc.svg"],
        {"run.cfg": cfg, "features.csv": features}, ["roc.csv", "roc.svg"], stale)
    if status != 2:
        assert status == 0 and err == "" and out.count("\n") == 7
        lines = written["roc.csv"].decode("ascii").splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        points = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert points[0] == (math.inf, 0.0, 0.0) and points[-1][1:] == (1.0, 1.0)
        assert ET.fromstring(written["roc.svg"]).tag.endswith("svg")
    return status


def extract(directory, valid, pgm, stale):
    status, out, err, written = check(
        directory, ["extract", "--config", "run.cfg", "--manifest", "manifest.csv",
                    "--out", "features.csv", "--jobs", "1"],
        {"run.cfg": VALID_CONFIG, "manifest.csv": MANIFEST, "a.pgm": pgm,
         "b.pgm": valid["phantom_0005_suspicious.pgm"]},
        ["features.csv"], stale)
    assert status != 2 and out == ""
    if status == 0:
        assert err == ""
    else:
        assert err.startswith("extract failed for a.pgm: ") and err.count("\n") == 1
    table = table_from_csv(written["features.csv"].decode("utf-8"))
    assert table.ids == (("a.pgm",) if status == 0 else ()) + ("b.pgm",)
    return status


def extract_manifest(directory, valid, manifest, stale, cfg=VALID_CONFIG, jobs="1"):
    status, out, err, written = check(
        directory, ["extract", "--config", "run.cfg", "--manifest", "manifest.csv",
                    "--out", "features.csv", "--jobs", jobs],
        {"run.cfg": cfg, "manifest.csv": manifest,
         "a.pgm": valid["phantom_0000_normal.pgm"], "b.pgm": valid["phantom_0005_suspicious.pgm"]},
        ["features.csv"], stale)
    if status == 2:
        return status
    assert out == ""
    listed = table_from_csv(config.read_text(directory / "manifest.csv", "manifest"), key="path")
    if status == 0:
        assert err == ""
        assert table_from_csv(written["features.csv"].decode("utf-8")).ids == listed.ids
    else:
        assert status == 1 and err.startswith("extract failed for ")
        if written:
            ids = table_from_csv(written["features.csv"].decode("utf-8")).ids
            kept = iter(listed.ids)
            assert len(ids) < len(listed.ids) and all(i in kept for i in ids)  # in manifest order
    return status


def phantom(directory, cfg, stale):
    """``phantom`` writing into ``directory`` itself, where its config lies."""
    (directory / "run.cfg").write_bytes(cfg)  # read here only to name the set it should write
    try:
        spec = config.load_config(directory / "run.cfg").phantom
    except MammoscopeError:
        spec = None  # exit 2, which writes nothing
    count = spec.count_per_class if spec else 0
    labels = [LABELS[i >= count] for i in range(2 * count)]
    names = [f"phantom_{i:04d}_{label}.pgm" for i, label in enumerate(labels)]
    status, out, err, written = check(
        directory, ["phantom", "--config", "run.cfg", "--out", str(directory)],
        {"run.cfg": cfg}, [*names, "manifest.csv"], stale)
    if status != 2:
        assert status == 0 and err == ""
        assert out == f"wrote {len(names)} images and manifest to {directory}\n"
        manifest = "".join(f"{name},{label}\n" for name, label in zip(names, labels))
        assert written.pop("manifest.csv").decode("ascii") == "path,label\n" + manifest
        for data in written.values():
            image = read_pgm(data)
            assert (image.width, image.height) == (spec.size, spec.size)
    return status


def test_valid_set_passes_every_command(tmp_path, valid):
    """Unmutated, each command the tests below run exits 0."""
    assert phantom(tmp_path, VALID_CONFIG, True) == 0
    assert extract_manifest(tmp_path, valid, MANIFEST, True) == 0
    assert train(tmp_path, VALID_CONFIG, valid["features.csv"], False) == 0
    assert predict(tmp_path, VALID_CONFIG, valid["features.csv"], valid["model.nb"], True) == 0
    assert evaluate(tmp_path, VALID_CONFIG, valid["features.csv"], True) == 0
    pgm = valid["phantom_0000_normal.pgm"]
    assert extract(tmp_path, valid, pgm, False) == 0
    assert extract(tmp_path, valid, write_pgm(to_gray(read_pgm(pgm))), False) == 0


def contract(examples):
    # one directory serves every example of a test; each example empties it first
    return settings(max_examples=examples, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@contract(300)
@given(cfg=mutated(VALID_CONFIG, CONFIG_TOKENS), stale=st.booleans())
def test_train_exits_0_or_2_under_a_mutated_config(tmp_path, valid, cfg, stale):
    train(tmp_path, cfg, valid["features.csv"], stale)


@contract(150)
@given(cfg=mutated(VALID_CONFIG, CONFIG_TOKENS), stale=st.booleans())
def test_evaluate_under_a_mutated_config(tmp_path, valid, cfg, stale):
    evaluate(tmp_path, cfg, valid["features.csv"], stale)


@contract(100)
@given(cfg=mutated(VALID_CONFIG, CONFIG_TOKENS), stale=st.booleans())
def test_predict_under_a_mutated_config(tmp_path, valid, cfg, stale):
    predict(tmp_path, cfg, valid["features.csv"], valid["model.nb"], stale)


@contract(100)
@given(cfg=mutated(VALID_CONFIG, CONFIG_TOKENS), stale=st.booleans())
def test_phantom_exits_0_or_2_under_a_mutated_config(tmp_path, cfg, stale):
    phantom(tmp_path, cfg, stale)


@pytest.mark.parametrize("jobs", ["1", "2"])
@contract(300)
@given(cfg=mutated(VALID_CONFIG, CONFIG_TOKENS), stale=st.booleans())
def test_extract_under_a_mutated_config(tmp_path, valid, jobs, cfg, stale):
    extract_manifest(tmp_path, valid, MANIFEST, stale, cfg, jobs)


@contract(150)
@given(stale=st.booleans(), data=st.data())
def test_extract_under_a_mutated_manifest(tmp_path, valid, stale, data):
    extract_manifest(tmp_path, valid, data.draw(mutated(MANIFEST, MANIFEST_TOKENS)), stale)


@contract(150)
@given(command=st.sampled_from([train, predict, evaluate]), stale=st.booleans(), data=st.data())
def test_table_commands_under_a_mutated_feature_csv(tmp_path, valid, command, stale, data):
    row = valid["features.csv"].splitlines()[-1]  # inserted again, it repeats an id
    features = data.draw(mutated(valid["features.csv"], TABLE_TOKENS + [b"\n" + row]))
    if command is train:
        train(tmp_path, VALID_CONFIG, features, stale)
    elif command is predict:
        predict(tmp_path, VALID_CONFIG, features, valid["model.nb"], stale)
    else:
        evaluate(tmp_path, VALID_CONFIG, features, stale)


@contract(100)
@given(stale=st.booleans(), data=st.data())
def test_predict_under_a_mutated_model(tmp_path, valid, stale, data):
    model = data.draw(mutated(valid["model.nb"], MODEL_TOKENS))
    predict(tmp_path, VALID_CONFIG, valid["features.csv"], model, stale)


@contract(100)
@given(plain=st.booleans(), stale=st.booleans(), data=st.data())
def test_extract_under_a_mutated_pgm(tmp_path, valid, plain, stale, data):
    pgm = valid["phantom_0000_normal.pgm"]
    if plain:
        pgm = write_pgm(to_gray(read_pgm(pgm)))
    extract(tmp_path, valid, data.draw(mutated(pgm, PGM_TOKENS, head=16)), stale)
