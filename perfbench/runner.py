"""Run one workload's stages in-process and check their outputs.

    python3 perfbench/runner.py --workload NAME --seed N --seconds S --trace 0|1 --dir DIR

Run from the root of a checkout, on inputs that ``gen.py`` wrote to
``DIR/inputs``. Prints one JSON object on its last stdout line.

With ``--trace 0`` it repeats whole rounds of the pipeline through
``mammoscope.cli.main(argv)`` in this one process, so the package is
imported once: extract over the manifest, then train, predict and
evaluate. Rounds start while the next one still fits in ``--seconds``.

With ``--trace 1`` it calls the public functions of each module from here,
timing each call, on the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import common

clock = time.perf_counter


class Inputs:
    def __init__(self, workload: common.Workload, seed: int, base: Path):
        self.workload = workload
        self.seed = seed
        self.dir = base / "inputs"
        self.out = base / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.meta = json.loads((self.dir / common.META).read_text())
        self.images = self.meta["images"]
        self.config = self.dir / common.CONFIG
        self.manifest = self.dir / common.MANIFEST
        self.features = self.out / "features.csv"
        # train/predict/evaluate input: the tall table, or the extracted features
        self.table = self.dir / common.TABLE if workload.table_rows else self.features
        self.select_k = int(workload.config["select.k"]) if "select.k" in workload.config else None
        self.folds = int(workload.config["cv.k"])


def call(argv: list) -> tuple[float, int, str, str]:
    """One CLI invocation in this process: (seconds, exit code, stdout, stderr)."""
    from mammoscope import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return clock() - t0, rc, out.getvalue(), err.getvalue()


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Largest resident set of this process or any of its waited-for workers."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def stage_argv(inp: Inputs) -> dict[str, list]:
    """The four pipeline stages as ``mammoscope`` argument lists."""
    w, o = inp.workload, inp.out
    model = o / "model.txt"
    return {
        "extract": ["extract", "--config", inp.config, "--manifest", inp.manifest,
                    "--out", inp.features, "--jobs", w.jobs],
        "train": ["train", "--config", inp.config, "--features", inp.table, "--out", model],
        "predict": ["predict", "--features", inp.table, "--model", model,
                    "--out", o / "predictions.csv"],
        "evaluate": ["evaluate", "--config", inp.config, "--features", inp.table,
                     "--roc-csv", o / "roc.csv", "--roc-svg", o / "roc.svg"],
    }


def run_stages(inp: Inputs, seconds: float) -> tuple[dict, int, int, list[str], dict]:
    o = inp.out
    argv = stage_argv(inp)
    outputs_written = [inp.features, o / "model.txt", o / "predictions.csv", o / "roc.csv", o / "roc.svg"]
    n_images = len(inp.images)
    extract_s, pipeline_s = [], []
    attempted = failed = 0
    notes: list[str] = []
    outputs = set()
    start = clock()
    while True:
        r0 = clock()
        t, rc, _, err = call(argv["extract"])
        attempted += n_images
        failed += n_images if rc == 2 else err.count("extract failed for")
        extract_s.append(t)
        for name in ("train", "predict", "evaluate"):
            _, rc, stdout, err = call(argv[name])
            attempted += 1
            if rc != 0:
                failed += 1
                print(f"perfbench: {name} exited {rc}: {err.strip()}", file=sys.stderr)
        pipeline_s.append(clock() - r0)
        outputs.add((digest(outputs_written), stdout))
        if clock() - start + pipeline_s[-1] > seconds:
            break
    peak = peak_rss_mb()
    if len(outputs) != 1:
        notes.append(f"outputs differ between rounds ({len(outputs)} variants)")
    metrics = {
        "extract_img_per_s": (n_images / statistics.median(extract_s), "img/s"),
        "pipeline_s": (statistics.median(pipeline_s), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    files = {"predictions": o / "predictions.csv", "roc": o / "roc.csv", "svg": o / "roc.svg",
             "evaluate_stdout": stdout}
    print(f"perfbench: {inp.workload.name} rounds={len(pipeline_s)}", file=sys.stderr)
    return metrics, attempted, failed, notes, files


def check_outputs(inp: Inputs, files: dict | None) -> list[str]:
    """Every output check that applies to this workload."""
    import numpy as np

    import checks
    from mammoscope import preprocess
    from mammoscope.config import load_config
    from mammoscope.imgio import GrayImage, read_pgm, to_gray

    w = inp.workload
    cfg = load_config(str(inp.config))
    manifest = [(i["path"], i["label"]) for i in inp.images]
    feature_text = inp.features.read_text()
    names, ids, _, values = checks.read_table(feature_text)
    expected = common.extended_names(cfg.features.levels)
    if cfg.features.mode != "extended":
        expected = expected[:8]
    fails = checks.check_feature_rows(feature_text, manifest, expected)
    # seeded sample: always the first image of each size, then random others
    rng = np.random.default_rng([inp.seed % 2**63, 7])
    sizes = [i["size"] for i in inp.images]
    sample = sorted({sizes.index(s) for s in set(sizes)})
    rest = [i for i in range(len(sizes)) if i not in sample]
    sample += sorted(rng.choice(rest, max(0, w.sample - len(sample)), replace=False).tolist())
    for i in sample:
        image_id = ids[i]
        raw = to_gray(read_pgm((inp.dir / image_id).read_bytes())).pixels
        pre = preprocess.preprocess_pipeline(GrayImage(raw), cfg.preprocess).pixels
        fails += checks.check_preprocessed(image_id, raw, pre, cfg.preprocess.threshold)
        want = checks.reference_features(pre, cfg.features.mode, cfg.features.levels)
        fails += checks.check_features(image_id, dict(zip(names, values[i])), want)
    if files is None:
        return fails
    table_text = inp.table.read_text()
    fails += checks.check_predictions(files["predictions"].read_text(), table_text, inp.select_k)
    bayes = checks.bayes_auc(inp.meta["table"]["delta_norm"]) if w.table_rows else None
    fails += checks.check_evaluate(
        files["evaluate_stdout"], files["roc"].read_text(), files["svg"].read_text(),
        table_text, inp.folds, inp.seed, inp.select_k, w.auc_floor, bayes,
    )
    return fails


# --- traced run ----------------------------------------------------------


def timed(store: dict, key: str, fn, *args):
    t0 = clock()
    result = fn(*args)
    store.setdefault(key, []).append(clock() - t0)
    return result


def run_traced(inp: Inputs, seconds: float) -> tuple[dict, int, int, list[str]]:
    from mammoscope import bayes, cli, evaluation, features, fourier, imgio, phantom, preprocess, wavelet
    from mammoscope.config import load_config

    w = inp.workload
    argv = stage_argv(inp)
    cfg = load_config(str(inp.config))
    filt = wavelet.get_filter(cfg.features.filter)
    sets = {s.prefix: s for s in w.image_sets}
    moment_fns = (features.mean, features.stddev, features.skewness, features.kurtosis)
    per_image: dict[str, list[float]] = {}  # per-round mean over the manifest
    calls: dict[str, list[float]] = {}  # one entry per call
    attempted = failed = 0
    notes: list[str] = []
    padded_px = sum((1 << (i["size"] - 1).bit_length()) ** 2 for i in inp.images)
    bytes_read = sum((inp.dir / i["path"]).stat().st_size for i in inp.images)
    fft_peak = 0.0
    start = clock()
    rounds = 0
    while True:
        r0 = clock()
        step: dict[str, list[float]] = {}
        # pass 1 does what extract does per image, and nothing else
        vectors, preprocessed, work = [], [], 0.0
        for item in inp.images:
            attempted += 1
            t0 = clock()
            data = (inp.dir / item["path"]).read_bytes()
            raw = timed(step, "imgio.read_pgm", imgio.read_pgm, data)
            pre = timed(step, "preprocess.pipeline", preprocess.preprocess_pipeline,
                        imgio.to_gray(raw), cfg.preprocess)
            vectors.append(timed(step, "features.extract", features.extract_features, pre, cfg.features))
            work += clock() - t0
            preprocessed.append(pre)
        # pass 2 times the layers inside extract_features, and set-up's phantom writer
        for item, pre in zip(inp.images, preprocessed):
            prefix, index, _ = item["path"].split("_")
            decomp = timed(step, "wavelet.dwt2d", wavelet.dwt2d, pre.pixels, filt, cfg.features.levels)
            spectrum = timed(step, "fourier.fft2d", fourier.fft2d, pre.pixels)
            if rounds == 0:
                tracemalloc.start()
                fourier.fft2d(pre.pixels)
                fft_peak = max(fft_peak, tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()
            spec_map = timed(step, "fourier.log_magnitude", fourier.log_magnitude, spectrum)
            maps = [decomp.approx, spec_map]
            if cfg.features.mode == "extended":
                maps += [b[name] for b in decomp.details for name in ("HL", "LH", "HH")]
            timed(step, "features.moments", lambda: [fn(m) for m in maps for fn in moment_fns])
            final = {"LL": decomp.approx, **decomp.details[-1]}
            timed(step, "features.xcorr",
                  lambda: [features.cross_correlation(b, spec_map) for b in final.values()])
            image_set = sets[prefix]
            pcfg = phantom.PhantomConfig(
                size=image_set.size, count_per_class=image_set.count_per_class,
                seed=common.phantom_seed(inp.seed, image_set),
                artifact_label=image_set.artifact_label,
            )
            img = timed(step, "phantom.render", phantom.render_image, pcfg, int(index))
            encoded = timed(step, "imgio.write_pgm", imgio.write_pgm, img, image_set.maxval, image_set.binary)
            if encoded != (inp.dir / item["path"]).read_bytes():
                notes.append(f"{item['path']}: the re-rendered phantom's PGM differs from the input")
        del preprocessed, decomp, spectrum, spec_map, maps, final
        for key, v in step.items():
            per_image.setdefault(key, []).append(statistics.fmean(v))

        attempted += 1
        t, rc, _, err = call(argv["extract"])
        if rc != 0:
            failed += 1
            print(f"perfbench: extract exited {rc}: {err.strip()}", file=sys.stderr)
        calls.setdefault("cli.pool_efficiency", []).append(work / (w.jobs * t))
        extracted = features.table_from_csv(inp.features.read_text())
        if [tuple(v.values) for v in vectors] != [tuple(r) for r in extracted.values]:
            notes.append("extract_features differs from the extract stage's CSV rows")

        attempted += 1
        text = inp.table.read_text()
        table = timed(calls, "features.table_from_csv", features.table_from_csv, text)
        if timed(calls, "features.table_to_csv", features.table_to_csv, table) != text:
            notes.append("table_to_csv(table_from_csv(text)) != text")
        chosen = timed(calls, "features.select", features.select_features, table,
                       inp.select_k or len(table.names))
        narrow = table.select_columns(chosen)
        model = timed(calls, "bayes.train", bayes.train, narrow)
        t0 = clock()
        for i in range(narrow.n_rows):
            bayes.classify(model, features.FeatureVector(narrow.names, narrow.values[i]))
        calls.setdefault("bayes.classify_rows_per_s", []).append(narrow.n_rows / (clock() - t0))
        timed(calls, "evaluation.kfold", evaluation.kfold_indices, table, cfg.cv_folds, cfg.cv_seed)
        result = timed(calls, "cli.cross_validation", cli.run_cross_validation, table, cfg)
        curve = timed(calls, "evaluation.roc", evaluation.roc, result.scores, result.truth)
        t0 = clock()
        (inp.out / "roc.csv").write_text(evaluation.roc_to_csv(curve), encoding="ascii")
        (inp.out / "roc.svg").write_text(evaluation.roc_to_svg(curve), encoding="ascii")
        calls.setdefault("evaluation.roc_write", []).append(clock() - t0)

        for name in ("train", "predict", "evaluate"):
            attempted += 1
            t, rc, _, err = call(argv[name])
            if rc != 0:
                failed += 1
                print(f"perfbench: {name} exited {rc}: {err.strip()}", file=sys.stderr)
            calls.setdefault(f"cli.{name}", []).append(t)
        rounds += 1
        if clock() - start + (clock() - r0) > seconds:
            break

    def ms(store, key):
        return (1e3 * statistics.median(store[key]), "ms")

    metrics = {f"{key}_ms": ms(per_image, key) for key in (
        "imgio.read_pgm", "imgio.write_pgm", "preprocess.pipeline", "wavelet.dwt2d",
        "fourier.fft2d", "fourier.log_magnitude", "features.moments", "features.xcorr",
        "features.extract", "phantom.render")}
    metrics.update({f"{key}_ms": ms(calls, key) for key in (
        "features.table_to_csv", "features.table_from_csv", "features.select", "bayes.train",
        "evaluation.kfold", "evaluation.roc", "evaluation.roc_write", "cli.cross_validation")})
    metrics.update({
        "imgio.bytes_read": (bytes_read, "count"),
        "fourier.fft2d_peak_mb": (fft_peak, "MB"),
        "fourier.padded_px": (padded_px, "count"),
        "bayes.classify_rows_per_s": (statistics.median(calls["bayes.classify_rows_per_s"]), "rows/s"),
        "cli.pool_efficiency": (statistics.median(calls["cli.pool_efficiency"]), "ratio"),
        "cli.train_s": (statistics.median(calls["cli.train"]), "s"),
        "cli.predict_rows_per_s": (table.n_rows / statistics.median(calls["cli.predict"]), "rows/s"),
        "cli.evaluate_s": (statistics.median(calls["cli.evaluate"]), "s"),
    })
    print(f"perfbench: {w.name} traced rounds={rounds}", file=sys.stderr)
    return metrics, attempted, failed, notes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    common.use_checkout(Path.cwd())
    inp = Inputs(common.WORKLOADS[args.workload], args.seed, Path(args.dir))
    if args.trace:
        metrics, attempted, failed, notes = run_traced(inp, args.seconds)
        fails = check_outputs(inp, None)
    else:
        metrics, attempted, failed, notes, files = run_stages(inp, args.seconds)
        fails = check_outputs(inp, files)
    for line in notes + fails:
        print(f"perfbench: {line}", file=sys.stderr)
    result = {
        "correct": not fails and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
