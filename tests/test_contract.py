"""The CLI contract under hostile config files.

A valid config naming every key is mutated one way per example: a byte is
flipped, the file is cut short, or a hostile token is inserted. ``train``
then either succeeds with a model that loads and reruns to the same bytes,
or exits 2 with one ``error:`` line and writes nothing.
"""

import contextlib
import io
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mammoscope import cli, config
from mammoscope.bayes import load_model

VALID_CONFIG = b"""\
preprocess.threshold = 0.1
wavelet.filter = daub4
wavelet.levels = 3
features.mode = default8
select.k = 2
classifier.threshold = 0.5
cv.k = 5
cv.seed = 0
phantom.size = 128
phantom.count_per_class = 20
phantom.seed = 7
phantom.noise_sigma = 0.02
phantom.mass_amplitude = 0.3
phantom.mass_radius = 12
phantom.microcalc_count = 8
phantom.microcalc_amplitude = 0.5
phantom.artifact_label = off
"""

FEATURES = """\
id,label,a,b,c
n1,normal,0.1,1.0,5.0
n2,normal,0.2,1.5,4.0
n3,normal,0.15,0.5,6.0
s1,suspicious,0.9,1.2,5.5
s2,suspicious,0.8,0.7,4.5
s3,suspicious,0.95,1.1,5.0
"""

HOSTILE = [
    b"nan", b"inf", b"1e308", b"1_0", b"9" * 5000, b"\ncv.k = 3\n",
    b"\npreprocess.orient = on\n", b"\npreprocess.artifact_removal = off\n",
    b"\r", b"\x00", b"\xff\xfe", b"\x80", b"=",
]


@st.composite
def mutated_configs(draw):
    text = VALID_CONFIG
    how = draw(st.sampled_from(["flip", "truncate", "insert"]))
    if how == "flip":
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + bytes([text[at] ^ draw(st.integers(1, 255))]) + text[at + 1:]
    at = draw(st.integers(0, len(text)))
    if how == "truncate":
        return text[:at]
    return text[:at] + draw(st.sampled_from(HOSTILE)) + text[at:]


def train(tmp_path, model):
    """``train`` in-process: exit status, stdout, stderr and any warnings raised."""
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        status = cli.main(["train", "--config", str(tmp_path / "run.cfg"),
                           "--features", str(tmp_path / "features.csv"), "--out", str(model)])
    return status, out.getvalue(), err.getvalue(), caught


def test_valid_config_names_every_key():
    keys = [line.split(b"=")[0].strip().decode() for line in VALID_CONFIG.splitlines()]
    assert keys == list(config._KEYS)


# the one directory serves every example; each example rewrites the config first
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=mutated_configs())
def test_train_exits_0_or_2_under_a_mutated_config(tmp_path, cfg):
    (tmp_path / "run.cfg").write_bytes(cfg)
    (tmp_path / "features.csv").write_text(FEATURES)
    model = tmp_path / "model.nb"
    model.unlink(missing_ok=True)
    status, out, err, caught = train(tmp_path, model)
    assert status in (0, 2)
    assert "Traceback" not in err and "Warning" not in err
    assert caught == []
    if status == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["features.csv", "run.cfg"]
        return
    first = model.read_bytes()
    load_model(first)
    assert train(tmp_path, model)[:3] == (0, out, err)
    assert model.read_bytes() == first
