"""Workload definitions and helpers shared by the benchmark's processes.

Every process of the benchmark (``run.py``, ``gen.py``, ``runner.py``,
``selftest.py``) is started from the root of a mammoscope checkout and
imports the package from that checkout's ``src/``, never from an
installed copy, so the code measured is the code in the tree.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

MANIFEST = "manifest.csv"
CONFIG = "pipeline.cfg"
TABLE = "table.csv"
META = "inputs.json"


@dataclass(frozen=True)
class ImageSet:
    """A slice of one phantom set, written as PGM files.

    ``indices`` picks phantom indices of a set with ``count_per_class``
    normals followed by as many suspicious images.
    """

    prefix: str
    size: int
    count_per_class: int
    indices: tuple[int, ...]
    maxval: int
    binary: bool
    seed_offset: int
    artifact_label: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    image_sets: tuple[ImageSet, ...]
    config: dict[str, str]
    jobs: int
    # tall synthetic feature table (cv-tall); 0 means train/predict/evaluate
    # run on the workload's own extracted features
    table_rows: int = 0
    informative: int = 0
    shift: float = 0.0
    sample: int = 3  # images per run whose features are recomputed by the checks
    auc_floor: float | None = 0.90


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="large-p5",
            image_sets=(
                ImageSet("p8", 1024, 5, tuple(range(10)), 255, True, 7),
                ImageSet("p12", 1025, 1, (1,), 4095, True, 507),
            ),
            config={
                "features.mode": "default8",
                "wavelet.filter": "daub4",
                "wavelet.levels": "3",
                "cv.k": "5",
            },
            jobs=1,
            sample=2,
        ),
        Workload(
            name="small-p2-extended",
            image_sets=(
                ImageSet("p2", 256, 20, tuple(range(40)), 255, False, 7, True),
            ),
            config={
                "features.mode": "extended",
                "wavelet.filter": "daub4",
                "wavelet.levels": "3",
                "select.k": "8",
                "cv.k": "5",
            },
            jobs=2,
            sample=4,
        ),
        Workload(
            name="cv-tall",
            # the README's default phantom set (40 images of 128^2), so that
            # extract_img_per_s measures real work on every workload
            image_sets=(ImageSet("p5", 128, 20, tuple(range(40)), 255, True, 7),),
            config={
                "features.mode": "extended",
                "wavelet.filter": "daub4",
                "wavelet.levels": "3",
                "select.k": "6",
                "cv.k": "5",
            },
            jobs=1,
            table_rows=20000,
            informative=4,
            shift=0.6,
            sample=3,
            auc_floor=None,
        ),
    )
}


def phantom_seed(seed: int, image_set: ImageSet) -> int:
    """Seed of ``phantom.seed`` for one image set of one benchmark seed."""
    return 1000 * seed + image_set.seed_offset


def config_text(workload: Workload, seed: int) -> str:
    lines = [f"{k} = {v}" for k, v in workload.config.items()]
    lines.append(f"cv.seed = {seed}")
    return "\n".join(lines) + "\n"


def extended_names(levels: int = 3) -> tuple[str, ...]:
    """The 48 feature names of ``extended`` mode at three levels, in CSV order."""
    stats = ("mean", "std", "skew", "kurt")
    names = [f"{p}_{s}" for p in ("wll", "fft") for s in stats]
    for level in range(1, levels + 1):
        for band in ("hl", "lh", "hh"):
            names += [f"w{band}{level}_{s}" for s in stats]
    names += [f"xcorr_{b}" for b in ("ll", "hl", "lh", "hh")]
    return tuple(names)


def use_checkout(root: Path) -> None:
    """Put the checkout's ``src`` first on the import path, or exit 2."""
    src = root / "src"
    if not (src / "mammoscope" / "__init__.py").is_file():
        print(f"perfbench: no mammoscope sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
