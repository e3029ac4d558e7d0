"""Generate one workload's inputs from a seed.

    python3 perfbench/gen.py --workload NAME --seed N --out DIR

Run from the root of a checkout. Writes the phantom PGMs and their
``manifest.csv``, the pipeline config, for cv-tall the synthetic feature
table, and ``inputs.json`` describing what was written. The same seed
writes the same bytes. ``run.py`` times this whole process, interpreter
start and package import included, as the workload's set-up.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import common


def write_images(workload: common.Workload, seed: int, out: Path) -> list[dict]:
    from mammoscope.features import NORMAL, SUSPICIOUS
    from mammoscope.imgio import write_pgm
    from mammoscope.phantom import PhantomConfig, render_image

    images = []
    for s in workload.image_sets:
        cfg = PhantomConfig(
            size=s.size,
            count_per_class=s.count_per_class,
            seed=common.phantom_seed(seed, s),
            artifact_label=s.artifact_label,
        )
        cfg.validate()
        for index in s.indices:
            label = NORMAL if index < s.count_per_class else SUSPICIOUS
            name = f"{s.prefix}_{index:04d}_{label}.pgm"
            data = write_pgm(render_image(cfg, index), maxval=s.maxval, binary=s.binary)
            (out / name).write_bytes(data)
            images.append({"path": name, "label": label, "size": s.size})
    manifest = "path,label\n" + "".join(f"{i['path']},{i['label']}\n" for i in images)
    (out / common.MANIFEST).write_text(manifest, encoding="ascii")
    return images


def write_table(workload: common.Workload, seed: int, out: Path) -> dict:
    """Tall table: independent Gaussian features, a few shifted for suspicious rows.

    Each feature has its own mean and scale; the informative ones move by
    ``shift`` standard deviations, so the Bayes-optimal AUC is
    Phi(||delta|| / sqrt(2)) with ||delta|| = shift * sqrt(informative).
    """
    import numpy as np

    from mammoscope.features import LABELS, FeatureTable, table_to_csv

    rng = np.random.default_rng([seed % 2**63, 48])
    names = common.extended_names()
    n = workload.table_rows
    centers = rng.normal(0.0, 5.0, len(names))
    scales = 10.0 ** rng.uniform(-1.0, 1.0, len(names))
    labels = np.array(LABELS)[rng.permutation(np.arange(n) % 2)]
    informative = np.sort(rng.choice(len(names), workload.informative, replace=False))
    z = rng.standard_normal((n, len(names)))
    z[np.ix_(labels == LABELS[1], informative)] += workload.shift
    table = FeatureTable(
        names,
        tuple(f"row{i:06d}" for i in range(n)),
        tuple(labels.tolist()),
        centers + scales * z,
    )
    (out / common.TABLE).write_text(table_to_csv(table), encoding="ascii")
    return {
        "rows": n,
        "informative": [names[i] for i in informative],
        "delta_norm": workload.shift * float(np.sqrt(workload.informative)),
    }


def generate(workload: common.Workload, seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    (out / common.CONFIG).write_text(common.config_text(workload, seed), encoding="ascii")
    meta = {"workload": workload.name, "seed": seed}
    meta["images"] = write_images(workload, seed, out)
    if workload.table_rows:
        meta["table"] = write_table(workload, seed, out)
    (out / common.META).write_text(json.dumps(meta, indent=1), encoding="ascii")
    return meta


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    common.use_checkout(Path.cwd())
    generate(common.WORKLOADS[args.workload], args.seed, Path(args.out))


if __name__ == "__main__":
    main()
