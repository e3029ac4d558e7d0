"""Output checks against computations made here, not against saved output.

Nothing in this module imports mammoscope. Features are recomputed with
``np.fft.fft2``, a periodic daub4 analysis built from the closed-form taps
and ``scipy.stats`` moments; naive Bayes scores, the CV folds and the AUC
are recomputed from the README's definitions. Every ``check_*`` function
returns a list of failure messages, empty when the output is right.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np
from scipy import ndimage, stats

NORMAL, SUSPICIOUS = "normal", "suspicious"

# relative tolerance of recomputed features, with an absolute floor for
# values near zero; on the benchmark's images the program's features agree
# with these recomputations to 4e-13 relative, so a real fault shows far above
FEATURE_RTOL = 1e-9
FEATURE_ATOL = 1e-12
SCORE_TOL = 1e-9  # posterior scores, absolute
AUC_PRINT_TOL = 5e-7 + 1e-9  # evaluate prints six decimals
AUC_TOL = 1e-9  # ROC trapezoid vs pair counting
BAYES_AUC_MARGIN = 0.02  # cv-tall: CV AUC vs closed-form Bayes AUC

_SQRT2, _SQRT3 = math.sqrt(2.0), math.sqrt(3.0)
DAUB4_LOW = np.array([1 + _SQRT3, 3 + _SQRT3, 3 - _SQRT3, 1 - _SQRT3]) / (4 * _SQRT2)
DAUB4_HIGH = np.array([(-1) ** k * DAUB4_LOW[3 - k] for k in range(4)])


# --- features ----------------------------------------------------------


def _analyze(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """approx[k] = sum_j low[j] * x[(2k + j) mod n] along ``axis``; likewise detail."""
    approx = sum(DAUB4_LOW[j] * np.roll(x, -j, axis=axis) for j in range(4))
    detail = sum(DAUB4_HIGH[j] * np.roll(x, -j, axis=axis) for j in range(4))
    keep = [slice(None)] * 2
    keep[axis] = slice(0, None, 2)
    return approx[tuple(keep)], detail[tuple(keep)]


def daub4_bands(img: np.ndarray, levels: int) -> list[dict[str, np.ndarray]]:
    """Per level {HL, LH, HH}, plus LL of the last level; rows then columns."""
    out, current = [], img
    for _ in range(levels):
        h, w = current.shape
        current = np.pad(current, ((0, h % 2), (0, w % 2)), mode="edge")
        low_x, high_x = _analyze(current, axis=1)
        ll, lh = _analyze(low_x, axis=0)
        hl, hh = _analyze(high_x, axis=0)
        out.append({"HL": hl, "LH": lh, "HH": hh, "LL": ll})
        current = ll
    return out


def spectral_map(img: np.ndarray) -> np.ndarray:
    n = 1 << max(0, (max(img.shape) - 1).bit_length())
    return np.fft.fftshift(np.log1p(np.abs(np.fft.fft2(img, s=(n, n)))))


def _moments(a: np.ndarray) -> list[float]:
    flat = a.ravel()
    std = float(np.std(flat))
    if std <= 1e-12:
        return [float(np.mean(flat)), std, 0.0, 0.0]
    return [
        float(np.mean(flat)),
        std,
        float(stats.skew(flat, bias=True)),
        float(stats.kurtosis(flat, fisher=False, bias=True)),
    ]


def _xcorr(band: np.ndarray, spec: np.ndarray) -> float:
    h, w = spec.shape
    rows = np.linspace(0.0, h - 1.0, band.shape[0])
    cols = np.linspace(0.0, w - 1.0, band.shape[1])
    grid = np.meshgrid(rows, cols, indexing="ij")
    resampled = ndimage.map_coordinates(spec, grid, order=1)
    if np.std(band) <= 1e-12 or np.std(resampled) <= 1e-12:
        return 0.0
    return float(np.clip(np.corrcoef(band.ravel(), resampled.ravel())[0, 1], -1.0, 1.0))


def reference_features(img: np.ndarray, mode: str, levels: int) -> dict[str, float]:
    """Feature values of one preprocessed image, computed independently."""
    bands = daub4_bands(img, levels)
    spec = spectral_map(img)
    stat_names = ("mean", "std", "skew", "kurt")
    out = dict(zip((f"wll_{s}" for s in stat_names), _moments(bands[-1]["LL"])))
    out.update(zip((f"fft_{s}" for s in stat_names), _moments(spec)))
    if mode == "extended":
        for level, b in enumerate(bands, start=1):
            for band in ("HL", "LH", "HH"):
                names = (f"w{band.lower()}{level}_{s}" for s in stat_names)
                out.update(zip(names, _moments(b[band])))
        for band in ("LL", "HL", "LH", "HH"):
            out[f"xcorr_{band.lower()}"] = _xcorr(bands[-1][band], spec)
    return out


def check_features(image_id: str, got: dict[str, float], want: dict[str, float]) -> list[str]:
    if list(got) != list(want):
        return [f"{image_id}: feature names {list(got)} != {list(want)}"]
    return [
        f"{image_id}: {name} = {got[name]!r}, recomputed {want[name]!r}"
        for name in want
        if not abs(got[name] - want[name])
        <= FEATURE_RTOL * max(abs(got[name]), abs(want[name])) + FEATURE_ATOL
    ]


def check_preprocessed(
    image_id: str, raw: np.ndarray, pre: np.ndarray, threshold: float
) -> list[str]:
    """Brightest pixel exactly 1.0, zero outside the kept component, left not lighter."""
    fails = []
    if pre.shape != raw.shape:
        return [f"{image_id}: preprocessed shape {pre.shape} != {raw.shape}"]
    if pre.max() != 1.0:
        fails.append(f"{image_id}: brightest pixel {pre.max()!r}, not 1.0")
    half = pre.shape[1] // 2
    if pre[:, :half].sum() < pre[:, pre.shape[1] - half :].sum():
        fails.append(f"{image_id}: left half lighter than the right")
    oriented = raw
    if raw[:, raw.shape[1] - half :].sum() > raw[:, :half].sum():
        oriented = raw[:, ::-1]
    labels, _ = ndimage.label(oriented >= threshold)
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    mask = labels == int(np.argmax(sizes))
    if np.any(pre[~mask] != 0.0):
        fails.append(f"{image_id}: {int(np.count_nonzero(pre[~mask]))} nonzero pixels outside the mask")
    return fails


# --- tables, naive Bayes, cross validation ------------------------------


def read_table(text: str) -> tuple[list[str], list[str], list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], [r for r in rows[1:] if r]
    values = np.array([[float(v) for v in r[2:]] for r in body]).reshape(len(body), -1)
    return header[2:], [r[0] for r in body], [r[1] for r in body], values


def fisher_top(x: np.ndarray, pos: np.ndarray, k: int) -> np.ndarray:
    a, b = x[pos], x[~pos]
    score = (a.mean(0) - b.mean(0)) ** 2 / (a.var(0) + b.var(0) + 1e-12)
    return np.lexsort((np.arange(len(score)), -score))[:k]


def nb_scores(x_train: np.ndarray, pos: np.ndarray, x_test: np.ndarray) -> np.ndarray:
    """Suspicious-class posterior of a Gaussian naive Bayes fit, as the README defines it."""
    floor = np.maximum(1e-9 * x_train.var(0), 1e-12)
    log_post = []
    for rows in (x_train[~pos], x_train[pos]):
        mu, var = rows.mean(0), np.maximum(rows.var(0), floor)
        terms = -0.5 * ((x_test - mu) ** 2 / var + np.log(2 * np.pi * var))
        log_post.append(math.log(len(rows) / len(x_train)) + np.maximum(terms, -745.0).sum(1))
    lp = np.stack(log_post, axis=1)
    p = np.exp(lp - lp.max(1, keepdims=True))
    p /= p.sum(1, keepdims=True)
    p = np.maximum(p, 1e-15)
    return (p / p.sum(1, keepdims=True))[:, 1]


def lcg_shuffle(items: list, state: int) -> int:
    """Fisher-Yates with the README's 64-bit LCG; returns the advanced state."""
    mask = (1 << 64) - 1
    for i in range(len(items) - 1, 0, -1):
        state = (state * 6364136223846793005 + 1442695040888963407) & mask
        j = state % (i + 1)
        items[i], items[j] = items[j], items[i]
    return state


def cv_scores(x: np.ndarray, pos: np.ndarray, folds: int, seed: int, select_k) -> np.ndarray:
    """Pooled out-of-fold scores of stratified k-fold CV, selection inside each fold."""
    state = seed & ((1 << 64) - 1)
    dealt = [[] for _ in range(folds)]
    for want in (False, True):  # normal rows first, then suspicious
        rows = [int(i) for i in np.flatnonzero(pos == want)]
        state = lcg_shuffle(rows, state)
        for position, row in enumerate(rows):
            dealt[position % folds].append(row)
    pooled = np.empty(len(x))
    for test in dealt:
        train = np.setdiff1d(np.arange(len(x)), test)
        cols = np.arange(x.shape[1])
        if select_k is not None:
            cols = fisher_top(x[train], pos[train], select_k)
        pooled[test] = nb_scores(x[np.ix_(train, cols)], pos[train], x[np.ix_(test, cols)])
    return pooled


def pair_count_auc(scores: np.ndarray, pos: np.ndarray) -> float:
    """Mann-Whitney U over n_pos * n_neg: P(positive outscores negative), ties half."""
    u = stats.mannwhitneyu(scores[pos], scores[~pos]).statistic
    return float(u) / (pos.sum() * (~pos).sum())


def check_predictions(pred_text: str, train_text: str, select_k, threshold=0.5) -> list[str]:
    names, ids, labels, x = read_table(train_text)
    pos = np.array(labels) == SUSPICIOUS
    cols = np.arange(len(names)) if select_k is None else fisher_top(x, pos, select_k)
    want = nb_scores(x[:, cols], pos, x[:, cols])
    rows = list(csv.reader(io.StringIO(pred_text)))
    if rows[0] != ["id", "score", "label"]:
        return [f"predictions header {rows[0]}"]
    body = [r for r in rows[1:] if r]
    if [r[0] for r in body] != ids:
        return ["prediction rows are not in feature-CSV order"]
    fails = []
    for (rid, score, label), ref in zip(body, want):
        s = float(score)
        if not abs(s - ref) <= SCORE_TOL:
            fails.append(f"{rid}: score {score}, recomputed {ref!r}")
        if label != (SUSPICIOUS if s >= threshold else NORMAL):
            fails.append(f"{rid}: label {label} at score {score}")
    return fails[:10]


def parse_evaluate(stdout: str) -> dict[str, str]:
    return dict(
        (k.strip(), v.strip())
        for k, _, v in (line.partition(":") for line in stdout.splitlines())
        if v
    )


def read_roc(text: str) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["threshold", "fpr", "tpr"]:
        raise ValueError(f"ROC header {rows[0]}")
    return np.array([[float(v) for v in r] for r in rows[1:] if r])


def check_evaluate(
    stdout: str,
    roc_text: str,
    svg_text: str,
    table_text: str,
    folds: int,
    seed: int,
    select_k,
    auc_floor=None,
    bayes_auc=None,
    threshold=0.5,
) -> list[str]:
    """Printed AUC == pair counting == ROC trapezoid; confusion; floor or Bayes margin."""
    _, _, labels, x = read_table(table_text)
    pos = np.array(labels) == SUSPICIOUS
    scores = cv_scores(x, pos, folds, seed, select_k)
    auc = pair_count_auc(scores, pos)
    printed = parse_evaluate(stdout)
    fails = []
    try:
        shown = float(printed["auc"])
    except (KeyError, ValueError):
        return [f"no AUC in evaluate output {stdout!r}"]
    if abs(shown - auc) > AUC_PRINT_TOL:
        fails.append(f"printed AUC {shown} != pair-counting AUC {auc:.9f}")
    try:
        roc = read_roc(roc_text)
    except (ValueError, IndexError) as exc:
        return fails + [f"unreadable ROC CSV: {exc}"]
    fpr, tpr = roc[:, 1], roc[:, 2]
    if not (np.isinf(roc[0, 0]) and fpr[0] == 0 and tpr[0] == 0 and fpr[-1] == 1 and tpr[-1] == 1):
        fails.append("ROC does not run from (0, 0) at +inf to (1, 1)")
    if np.any(np.diff(fpr) < 0) or np.any(np.diff(tpr) < 0) or np.any(np.diff(roc[:, 0]) >= 0):
        fails.append("ROC points are not monotone")
    trapezoid = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2))
    if abs(trapezoid - auc) > AUC_TOL:
        fails.append(f"ROC CSV trapezoid {trapezoid!r} != pair-counting AUC {auc!r}")
    call = scores >= threshold
    tp, fp = int(np.sum(call & pos)), int(np.sum(call & ~pos))
    tn, fn = int(np.sum(~call & ~pos)), int(np.sum(~call & pos))
    if printed.get("confusion") != f"tp={tp} fp={fp} tn={tn} fn={fn}":
        fails.append(f"confusion {printed.get('confusion')!r}, recomputed tp={tp} fp={fp} tn={tn} fn={fn}")
    if not re.search(rf"AUC = {shown:.4f}<", svg_text) or "<polyline" not in svg_text:
        fails.append("ROC SVG lacks the curve or its AUC label")
    if auc_floor is not None and auc < auc_floor:
        fails.append(f"AUC {auc:.4f} below the floor {auc_floor}")
    if bayes_auc is not None and abs(auc - bayes_auc) > BAYES_AUC_MARGIN:
        fails.append(f"AUC {auc:.4f} more than {BAYES_AUC_MARGIN} from the Bayes AUC {bayes_auc:.4f}")
    return fails


def bayes_auc(delta_norm: float) -> float:
    """AUC of the optimal rule between N(0, I) and N(delta, I): Phi(||delta|| / sqrt 2)."""
    return float(stats.norm.cdf(delta_norm / math.sqrt(2.0)))


def check_feature_rows(text: str, manifest: list[tuple[str, str]], names) -> list[str]:
    header = next(csv.reader(io.StringIO(text)))
    got_names, ids, labels, x = read_table(text)
    fails = []
    if header[:2] != ["id", "label"] or tuple(got_names) != tuple(names):
        fails.append(f"feature CSV header {header}")
    if list(zip(ids, labels)) != manifest:
        fails.append("feature rows differ from the manifest's ids, labels or order")
    if not np.all(np.isfinite(x)):
        fails.append("non-finite feature value")
    return fails
