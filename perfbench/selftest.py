"""Self-test of the benchmark's checks at toy sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout. For each workload, shrunk to toy sizes,
it generates inputs, runs one round of the stages and requires every
check to pass; then it perturbs one output at a time (a feature value, a
preprocessed pixel, a score, a row order, a printed AUC, a ROC point, an
input file) and requires the matching check to fail, so that no check
passes vacuously. Exits 0 when every expectation holds.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import shutil
import sys
from pathlib import Path

import common

common.use_checkout(Path.cwd())

import checks  # noqa: E402
import gen  # noqa: E402
import runner  # noqa: E402
from mammoscope.config import load_config  # noqa: E402
from mammoscope.imgio import GrayImage, read_pgm, to_gray  # noqa: E402
from mammoscope.preprocess import preprocess_pipeline  # noqa: E402

SEED = 5
W = common.WORKLOADS
TOY = {
    "large-p5": dataclasses.replace(W["large-p5"], image_sets=(
        dataclasses.replace(W["large-p5"].image_sets[0], size=64),
        dataclasses.replace(W["large-p5"].image_sets[1], size=65),
    )),
    "small-p2-extended": dataclasses.replace(W["small-p2-extended"], image_sets=(
        dataclasses.replace(W["small-p2-extended"].image_sets[0], size=64, count_per_class=5,
                            indices=tuple(range(10))),
    )),
    "cv-tall": dataclasses.replace(W["cv-tall"], table_rows=4000, image_sets=(
        dataclasses.replace(W["cv-tall"].image_sets[0], size=64, count_per_class=3,
                            indices=tuple(range(6))),
    )),
}

results: list[tuple[bool, str]] = []


def expect(passes: bool, fails: list[str], what: str) -> None:
    ok = (not fails) if passes else bool(fails)
    detail = "" if ok else f" -- got {fails[:2] if fails else 'no failure'}"
    results.append((ok, what))
    print(f"{'ok  ' if ok else 'FAIL'} {what}{detail}")


def replace_field(text: str, row: int, col: int, value: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    rows[row][col] = value
    return "".join(",".join(r) + "\n" for r in rows)


def swap_rows(text: str, a: int, b: int) -> str:
    lines = text.splitlines(keepends=True)
    lines[a], lines[b] = lines[b], lines[a]
    return "".join(lines)


def image_checks(name: str, inp: runner.Inputs) -> None:
    cfg = load_config(str(inp.config))
    item = inp.images[-1]  # the last image: the odd-sized one on large-p5
    raw = to_gray(read_pgm((inp.dir / item["path"]).read_bytes())).pixels
    pre = preprocess_pipeline(GrayImage(raw), cfg.preprocess).pixels
    t = cfg.preprocess.threshold
    want = checks.reference_features(pre, cfg.features.mode, cfg.features.levels)
    names, ids, _, values = checks.read_table(inp.features.read_text())
    got = dict(zip(names, values[ids.index(item["path"])]))
    expect(True, checks.check_features(item["path"], got, want), f"{name}: features match the recomputation")
    for feature in (names[0], names[5], names[-1]):
        bumped = dict(got, **{feature: got[feature] * (1 + 1e-7) + 1e-11})
        expect(False, checks.check_features(item["path"], bumped, want), f"{name}: perturbed {feature} is caught")
    expect(True, checks.check_preprocessed(item["path"], raw, pre, t), f"{name}: preprocessing properties hold")
    dim = pre * 0.999
    expect(False, checks.check_preprocessed(item["path"], raw, dim, t), f"{name}: brightest pixel != 1.0 is caught")
    stray = pre.copy()
    stray[0, -1] = 0.5  # the upper-right corner lies outside the tissue mask
    expect(False, checks.check_preprocessed(item["path"], raw, stray, t), f"{name}: pixel outside the mask is caught")
    expect(False, checks.check_preprocessed(item["path"], raw, pre[:, ::-1], t), f"{name}: mirrored image is caught")
    manifest = [(i["path"], i["label"]) for i in inp.images]
    text = inp.features.read_text()
    expected = tuple(names)
    expect(True, checks.check_feature_rows(text, manifest, expected), f"{name}: feature rows follow the manifest")
    expect(False, checks.check_feature_rows(swap_rows(text, 1, 2), manifest, expected), f"{name}: swapped feature rows are caught")
    expect(False, checks.check_feature_rows(replace_field(text, 1, 3, "nan"), manifest, expected), f"{name}: non-finite feature is caught")


def stage_checks(name: str, inp: runner.Inputs, files: dict) -> None:
    w = inp.workload
    table = inp.table.read_text()
    pred = files["predictions"].read_text()
    expect(True, checks.check_predictions(pred, table, inp.select_k), f"{name}: scores match the recomputed posterior")
    score = float(pred.splitlines()[1].split(",")[1])
    expect(False, checks.check_predictions(replace_field(pred, 1, 1, repr(score + 1e-6)), table, inp.select_k),
           f"{name}: perturbed score is caught")
    expect(False, checks.check_predictions(swap_rows(pred, 1, 2), table, inp.select_k), f"{name}: swapped prediction rows are caught")
    flipped = "normal" if pred.splitlines()[1].endswith("suspicious") else "suspicious"
    expect(False, checks.check_predictions(replace_field(pred, 1, 2, flipped), table, inp.select_k), f"{name}: flipped label is caught")

    bayes = checks.bayes_auc(inp.meta["table"]["delta_norm"]) if w.table_rows else None
    out, roc, svg = files["evaluate_stdout"], files["roc"].read_text(), files["svg"].read_text()

    def evaluate(out=out, roc=roc, svg=svg, floor=w.auc_floor, bayes=bayes):
        return checks.check_evaluate(out, roc, svg, table, inp.folds, inp.seed, inp.select_k, floor, bayes)

    expect(True, evaluate(), f"{name}: AUC, ROC and confusion match the recomputation")
    auc = checks.parse_evaluate(out)["auc"]
    shifted = f"{float(auc) - 1e-5:.6f}"
    expect(False, evaluate(out=out.replace(f"auc         : {auc}", f"auc         : {shifted}")), f"{name}: perturbed printed AUC is caught")
    middle = len(roc.splitlines()) // 2
    tpr = float(roc.splitlines()[middle].split(",")[2])
    expect(False, evaluate(roc=replace_field(roc, middle, 2, repr(tpr - 1e-3))), f"{name}: perturbed ROC point is caught")
    confusion = checks.parse_evaluate(out)["confusion"]
    tp = int(confusion.split()[0][3:])
    expect(False, evaluate(out=out.replace(f"tp={tp} ", f"tp={tp + 1} ")), f"{name}: wrong confusion count is caught")
    expect(False, evaluate(svg=svg.replace("<polyline", "<path")), f"{name}: SVG without the curve is caught")
    if w.auc_floor is not None:
        expect(False, evaluate(floor=1.01), f"{name}: AUC below the floor is caught")
    if bayes is not None:
        expect(False, evaluate(bayes=bayes + 0.05), f"{name}: AUC far from the Bayes AUC is caught")


def main() -> int:
    scratch = Path.cwd() / ".perfbench" / "selftest"
    try:
        for name, toy in TOY.items():
            base = scratch / name
            shutil.rmtree(base, ignore_errors=True)
            gen.generate(toy, SEED, base / "inputs")
            inp = runner.Inputs(toy, SEED, base)
            _, attempted, failed, notes, files = runner.run_stages(inp, seconds=0)
            expect(True, notes + (["failed operations"] if failed else []), f"{name}: one round runs with no failure")
            expect(True, runner.check_outputs(inp, files), f"{name}: every output check passes")
            image_checks(name, inp)
            stage_checks(name, inp, files)
            broken = inp.dir / inp.images[0]["path"]
            broken.write_bytes(broken.read_bytes()[:40])
            _, _, failed, _, _ = runner.run_stages(inp, seconds=0)
            expect(False, ["counted"] if failed >= 1 else [], f"{name}: a truncated input image counts as failed")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    bad = [what for ok, what in results if not ok]
    print(f"{len(results) - len(bad)}/{len(results)} expectations hold")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
