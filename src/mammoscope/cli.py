"""Command-line orchestration of the full analysis pipeline.

Subcommands cover the whole flow on batch data:

    mammoscope phantom  --out DIR [--config PATH]
    mammoscope extract  --manifest CSV --out CSV [--config PATH] [--jobs N]
    mammoscope train    --features CSV --out MODEL [--config PATH]
    mammoscope predict  --features CSV --model MODEL --out CSV [--threshold T]
    mammoscope evaluate --features CSV [--config PATH] [--roc-csv PATH] [--roc-svg PATH]

Exit codes: 0 success, 1 partial data failure (some images failed to
extract, or their worker process died), 2 usage or configuration error.
Commands validate their inputs before writing any output file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import os
import secrets
import sys
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from pathlib import Path

from . import bayes, evaluation, phantom
from .config import PipelineConfig, load_config
from .errors import MammoscopeError
from .evaluation import run_cross_validation
from .features import (
    LABELS,
    FeatureTable,
    FeatureVector,
    extract_features,
    select_features,
    table_from_csv,
    table_from_rows,
    table_to_csv,
)
from .imgio import read_pgm, to_gray
from .preprocess import preprocess_pipeline


def _read_manifest(path: Path) -> list[tuple[str, str]]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MammoscopeError(f"cannot read manifest {path}: {exc}") from None
    try:
        records = list(csv.reader(io.StringIO(text)))
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


def _write_output(path: str, data: bytes) -> None:
    """Write an output file whole or not at all.

    The bytes go to a fresh temporary file beside the target, which
    ``os.replace`` then renames over it, so a run killed mid-write leaves
    the previous file, not a truncated one. A target that exists and is
    not a regular file (a pipe, ``/dev/stdout``) is written in place.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{secrets.token_hex(6)}.tmp")
    try:
        if target.exists() and not target.is_file():
            target.write_bytes(data)
        else:
            with open(tmp, "xb") as f:
                f.write(data)
            os.replace(tmp, target)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise MammoscopeError(f"cannot write {path}: {exc}") from None


def _extract_one(path: str, cfg: PipelineConfig) -> FeatureVector | str:
    """One image's feature vector, or the message of the error that stopped it."""
    try:
        img = to_gray(read_pgm(Path(path).read_bytes()))
        img = preprocess_pipeline(img, cfg.preprocess)  # rebound, so the raw image is freed
        return extract_features(img, cfg.features)
    except (MammoscopeError, OSError, ValueError) as exc:
        return str(exc)


def cmd_phantom(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out)
    try:
        phantom.generate(cfg.phantom, out_dir)
    except OSError as exc:
        print(f"error: cannot write phantom set: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {2 * cfg.phantom.count_per_class} images and manifest to {out_dir}")
    return 0


def cmd_extract(args) -> int:
    if args.jobs < 1:
        raise MammoscopeError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = load_config(args.config)
    manifest_path = Path(args.manifest)
    rows = _read_manifest(manifest_path)
    paths = [str(manifest_path.parent / rel) for rel, _ in rows]  # an absolute rel overrides
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(paths))) as pool:
            futures = [pool.submit(_extract_one, path, cfg) for path in paths]
            # a dead worker breaks every future not yet done; other errors raise as in serial
            outcomes = [
                "worker process died" if isinstance(f.exception(), BrokenProcessPool)
                else f.result() for f in futures
            ]
    else:
        outcomes = [_extract_one(path, cfg) for path in paths]
    kept = []
    for (rel, label), out in zip(rows, outcomes):
        if isinstance(out, str):
            print(f"extract failed for {rel}: {out}", file=sys.stderr)
        else:
            kept.append((rel, label, out))
    if not kept:
        print("error: no image could be extracted", file=sys.stderr)
        return 1
    _write_output(args.out, table_to_csv(table_from_rows(kept)).encode("utf-8"))
    return 1 if len(kept) < len(rows) else 0


def _load_table(path: str) -> FeatureTable:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MammoscopeError(f"cannot read features {path}: {exc}") from None
    try:
        return table_from_csv(text)
    except ValueError as exc:
        raise MammoscopeError(f"bad feature CSV {path}: {exc}") from None


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    table = _load_table(args.features)
    if cfg.select_k is not None:
        table = table.select_columns(select_features(table, cfg.select_k))
    model = bayes.train(table)
    _write_output(args.out, bayes.save_model(model))
    print(f"trained on {table.n_rows} rows, {len(table.names)} features -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    if not 0.0 < args.threshold < 1.0:
        raise MammoscopeError("--threshold must lie in (0, 1)")
    table = _load_table(args.features)
    try:
        model = bayes.load_model(Path(args.model).read_bytes())
    except OSError as exc:
        raise MammoscopeError(f"cannot read model {args.model}: {exc}") from None
    try:
        table = table.select_columns(model.feature_names)
    except ValueError as exc:
        raise MammoscopeError(str(exc)) from None

    scores = bayes.scores(model, table.values)
    text = evaluation.predictions_to_csv(table.ids, scores, bayes.decide(scores, args.threshold))
    _write_output(args.out, text.encode("utf-8"))
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    table = _load_table(args.features)
    result = run_cross_validation(table, cfg)

    if args.roc_csv:
        _write_output(args.roc_csv, evaluation.roc_to_csv(result.curve).encode("ascii"))
    if args.roc_svg:
        _write_output(args.roc_svg, evaluation.roc_to_svg(result.curve).encode("ascii"))
    m = result.matrix
    print(f"cases       : {m.total}")
    print(f"folds       : {cfg.cv_folds} (seed {cfg.cv_seed})")
    print(f"threshold   : {cfg.classifier_threshold}")
    print(f"confusion   : tp={m.tp} fp={m.fp} tn={m.tn} fn={m.fn}")
    print(f"sensitivity : {result.sens:.6f}")
    print(f"specificity : {result.spec:.6f}")
    print(f"auc         : {result.curve.auc:.6f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mammoscope",
        description="Wavelet/Fourier feature screening pipeline for grayscale images",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a labeled synthetic image set")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("extract", help="extract features for a manifest of PGM files")
    p.add_argument("--config", default=None)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output feature CSV")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="fit the classifier from a feature CSV")
    p.add_argument("--config", default=None)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a feature CSV with a saved model")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True, help="output predictions CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="cross-validate and report screening metrics")
    p.add_argument("--config", default=None)
    p.add_argument("--features", required=True)
    p.add_argument("--roc-csv", default=None)
    p.add_argument("--roc-svg", default=None)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MammoscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
