"""Golden digests of the whole CLI pipeline.

``phantom → extract → train → predict → evaluate`` runs in-process through
``cli.main`` at 96² (its spectrum pads to 128²) and at 128², in ``default8``
and in ``extended``. The ``extended`` config sets ``select.k``, so both the
per-fold selection of ``evaluate`` and the selection of ``train`` run.
``extract`` runs under ``--jobs 1`` and ``--jobs 2``, which must write the
same CSV.

The SHA-256 of each output, and of stdout with the run's directory masked,
must equal the digest committed below. So an output that moves, even in
its last ulp, fails here. A change that means to move one names each
changed output in CHANGES.md, with the largest change per column and the
reason, before it updates a digest here.
"""

import contextlib
import hashlib
import io
from importlib.metadata import version

import pytest

from mammoscope import cli

CONFIG = """\
phantom.count_per_class = 10
phantom.seed = 1337
phantom.mass_amplitude = 0.05
phantom.microcalc_amplitude = 0.1
cv.k = 4
cv.seed = 2024
"""
MODES = {
    "default8": "features.mode = default8\n",
    "extended": "features.mode = extended\nselect.k = 6\n",
}

DIGESTS = {
    (96, "default8"): {
        "phantom set": "696c2cd88aaced1d6ec2cf5d734d82d5919cfd538fb096ec5a73a26a588a4596",
        "features.csv": "209b639c848238e3a7459ce0a1ca09c752b6900d8a199d7b12a1f646dfe58905",
        "model.nb": "601da06f60f7224ff02b2d0682aa3649ef370fde3fbdf4459cf924d6d36bcd20",
        "predictions.csv": "a22af1f781b8d6fda7e81f33df029a913d571c627c3be3b7a4a10217980cfedb",
        "roc.csv": "6cb5f2f555be95110a57eb6a98a8e6835babdf551fd46b3c739d3e7db0b85c3c",
        "roc.svg": "e04dcc70cd65c9a4afd7963a4b1af856c082fe5a34de7caf4012c1d2827a4966",
        "stdout": "ca4cb3ed564a6d54f020796fe1d064c9f9e552e71d4e77e4c8353f744cc6a841",
    },
    (96, "extended"): {
        "phantom set": "696c2cd88aaced1d6ec2cf5d734d82d5919cfd538fb096ec5a73a26a588a4596",
        "features.csv": "2d6f056993b35de2f94e5d44bf0abdba9e9588004ee248ea83b95587fb7274f3",
        "model.nb": "069a79fd0f8afda2916246e43918a77f9db0a78f3973fc83cd88f87677e5f25e",
        "predictions.csv": "9afa2bb886c7ed2e46aa74787e0ecc793c84a0e46b73691a32d1df55771db074",
        "roc.csv": "281184ad03ad7558d3bef3ae6dacbdda859e66185e798375f25bc69af47bf7ff",
        "roc.svg": "8589a35185f084d4293c6446e3938cbd5e600efbdbb786c6bf8ba1db8b9f6421",
        "stdout": "6d1c26cc1aecb6005b4604f359dcee612fd39727186c75f4bc7f4344505a1842",
    },
    (128, "default8"): {
        "phantom set": "b0df0965bc9ae9662707cebd4331714b2d8fa95753e86d6dc0d958faca1f2531",
        "features.csv": "2e594fae9d26b862ab7e6a7a258e5b837e26914d30ddb97d7733864a0d7a3ee1",
        "model.nb": "f78554e337e90d399ee04fbc292191461ed88b3cf8eb3831c375e94223aa0ccc",
        "predictions.csv": "7d776c460b3e3495cc683e84ab5ba21330c4684283b9bc2bae6364317aa8988f",
        "roc.csv": "a36fabb75ac7972f10e5fce3a5d6a1b89b5ce868b0293e011a1b5b090f23f449",
        "roc.svg": "3b6943417ff37047bb96dd308e0c4460b736f002d0172c7b3a5e8c56714847f3",
        "stdout": "f9d8c7698bbf9184b78c5106a5a1a3d1712bc1b42e5c34ca9bcb6fb9a75f83e0",
    },
    (128, "extended"): {
        "phantom set": "b0df0965bc9ae9662707cebd4331714b2d8fa95753e86d6dc0d958faca1f2531",
        "features.csv": "ee38db526e739cf25198d038763526e56ef6e6583a4c1e5ea0aa1bd8f137b8fb",
        "model.nb": "f71d9714136a1a6b9d5d1480308b7e6edc16b64d610f8c49da3578c5405341a4",
        "predictions.csv": "8a5899e738420e8428b84299b3a30e40e0e3ba8f31568a66da1ff838958f008e",
        "roc.csv": "98291bbefa4e6530a241279a501c4a9b3baae98151d815e951f8a1196f2b0614",
        "roc.svg": "8589a35185f084d4293c6446e3938cbd5e600efbdbb786c6bf8ba1db8b9f6421",
        "stdout": "f354a625dca55eecae52a989d762c8521cb116be01261888b777d34353e8fd1b",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline(directory, size: int, mode: str) -> dict[str, str]:
    """Run the chain in ``directory``; the SHA-256 of each output and of the masked stdout."""
    cfg = directory / "run.cfg"
    cfg.write_text(CONFIG + f"phantom.size = {size}\nphantom.mass_radius = {size // 8}\n"
                   + MODES[mode])
    images = directory / "images"
    features = {jobs: directory / f"features{jobs}.csv" for jobs in (1, 2)}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in (
            ["phantom", "--out", str(images)],
            *(["extract", "--manifest", str(images / "manifest.csv"), "--out", str(path),
               "--jobs", str(jobs)] for jobs, path in features.items()),
            ["train", "--features", str(features[1]), "--out", str(directory / "model.nb")],
            ["predict", "--features", str(features[1]), "--model", str(directory / "model.nb"),
             "--out", str(directory / "predictions.csv")],
            ["evaluate", "--features", str(features[1]), "--roc-csv", str(directory / "roc.csv"),
             "--roc-svg", str(directory / "roc.svg")],
        ):
            assert cli.main([*argv, "--config", str(cfg)]) == 0, argv
    assert features[2].read_bytes() == features[1].read_bytes(), "--jobs 2 changed the CSV"
    manifest = (images / "manifest.csv").read_text()
    rendered = b"".join(
        line.encode() + b"\n" + (images / line.split(",")[0]).read_bytes()
        for line in manifest.splitlines()[1:]
    )
    return {
        "phantom set": _digest(manifest.encode() + rendered),
        "features.csv": _digest(features[1].read_bytes()),
        **{name: _digest((directory / name).read_bytes())
           for name in ("model.nb", "predictions.csv", "roc.csv", "roc.svg")},
        "stdout": _digest(out.getvalue().replace(str(directory), "<dir>").encode()),
    }


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("size", [96, 128])
def test_pipeline_outputs_match_their_digests(tmp_path, size, mode):
    actual = pipeline(tmp_path, size, mode)
    expected = DIGESTS[size, mode]
    moved = [name for name in expected if actual[name] != expected[name]]
    assert not moved, (
        f"{size}² {mode}: {', '.join(moved)} changed "
        f"(numpy {version('numpy')}, scipy {version('scipy')})"
    )
