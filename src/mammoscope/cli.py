"""Command-line orchestration of the full analysis pipeline.

Subcommands cover the whole flow on batch data:

    mammoscope phantom  --out DIR [--config PATH]
    mammoscope extract  --manifest CSV --out CSV [--config PATH] [--jobs N]
    mammoscope train    --features CSV --out MODEL [--config PATH]
    mammoscope predict  --features CSV --model MODEL --out CSV [--config PATH]
    mammoscope evaluate --features CSV [--config PATH] [--roc-csv PATH] [--roc-svg PATH]

Exit codes: 0 success, 1 partial data failure (some images failed to
extract, could not be allocated, or their worker process died), 2 usage
or configuration error, 130 or 143 when SIGINT or SIGTERM stopped the
run. Commands validate their inputs before writing any output file.
``predict`` calls a row suspicious at the config's
``classifier.threshold``, which defaults to 0.5.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import multiprocessing
import os
import secrets
import signal
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bayes, evaluation, phantom
from .config import PipelineConfig, load_config, read_text
from .errors import MammoscopeError
from .evaluation import run_cross_validation
from .features import (
    FeatureTable,
    FeatureVector,
    extract_features,
    table_from_csv,
    table_to_csv,
)
from .imgio import read_pgm, to_gray, write_pgm
from .preprocess import preprocess_pipeline


class _Interrupted(BaseException):
    """SIGINT or SIGTERM, by number, in the main thread; a BaseException, so no data-error
    handler takes it."""


_STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)


def _interrupt(signum, frame) -> None:
    for sig in _STOP_SIGNALS:  # a second Ctrl-C must not break off the cleanup
        signal.signal(sig, signal.SIG_IGN)
    raise _Interrupted(signum)


def _start_worker() -> None:
    """Pool initializer: Ctrl-C reaches the whole process group, but only the parent acts on
    it; SIGTERM kills, not the parent's handler copied at fork; and the worker exits once
    its parent is gone, which no signal reports."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)  # blocked by _pooled for the fork
    threading.Thread(target=_exit_with, args=(os.getppid(),), daemon=True).start()


def _exit_with(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.25)
    os._exit(1)


def _pooled(workers: int, paths: list[str], cfg: PipelineConfig) -> list:
    """``_extract_one`` for each path in a fresh pool of ``workers``, all waited for.

    An interrupt does not wait: ``main`` stops the workers. So the pool is shut down by
    hand, not by a ``with`` block, whose exit waits for every task.
    """
    # forked whatever the platform's default start method, so that the workers inherit
    # scipy, this mask and this process as their parent; they fork at the first submit, so
    # no stop signal reaches one before its initializer has set what the signal does there
    fork = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(workers, mp_context=fork, initializer=_start_worker)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
    try:
        futures = [pool.submit(_extract_one, path, cfg) for path in paths]
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    pool.shutdown()
    return futures


def _write_output(outputs: dict[str | Path, bytes]) -> None:
    """Write each output file whole, and none unless all of them can be written.

    Each file's bytes go to a fresh temporary file beside its target; only
    once every one is written does ``os.replace`` rename each over its
    target. So a run killed mid-write leaves no truncated file, and a path
    that cannot be written leaves every target as it was. A target that
    exists and is not a regular file (a pipe, ``/dev/stdout``) is written
    in place, after every temporary file. An interrupt, too, leaves no
    temporary file behind; one that comes while the files are renamed waits
    for the last rename.
    """
    staged, in_place = [], []  # (temporary file, target path) and (target path, bytes)
    try:
        for path, data in outputs.items():
            target = Path(path)
            if target.exists() and not target.is_file():
                in_place.append((path, data))
                continue
            staged.append((target.with_name(f".{target.name}.{secrets.token_hex(6)}.tmp"), path))
            with open(staged[-1][0], "xb") as f:
                f.write(data)
        for path, data in in_place:
            Path(path).write_bytes(data)
        held = []  # a stop signal between two renames would leave a mixed set: only record it
        previous = {sig: signal.signal(sig, lambda n, _: held.append(n)) for sig in _STOP_SIGNALS}
        try:
            for tmp, path in staged:
                os.replace(tmp, path)
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            if held:  # to the handlers it would have met, even after a failed rename
                signal.raise_signal(held[0])
    except BaseException as exc:
        for tmp, _ in staged:
            with contextlib.suppress(OSError):  # one already renamed is gone
                tmp.unlink()
        if isinstance(exc, OSError):  # strerror alone: the message may name a temporary file
            raise MammoscopeError(f"cannot write {path}: {exc.strerror}") from None
        raise


def _extract_one(path: str, cfg: PipelineConfig) -> FeatureVector | str:
    """One image's feature vector, or the message of the error that stopped it."""
    try:
        img = to_gray(read_pgm(Path(path).read_bytes()))
        img = preprocess_pipeline(img, cfg.preprocess)  # rebound, so the raw image is freed
        return extract_features(img, cfg.features)
    except (MammoscopeError, MemoryError, OSError, ValueError) as exc:
        return str(exc)


def _died(future) -> bool:
    return isinstance(future.exception(), BrokenProcessPool)


def _extract_alone(path: str, cfg: PipelineConfig) -> FeatureVector | str:
    """``_extract_one`` in a fresh one-worker pool: only an image that kills its worker dies."""
    (future,) = _pooled(1, [path], cfg)
    return "worker process died" if _died(future) else future.result()


def _rendered(cfg: phantom.PhantomConfig):
    """The phantom set one image at a time; a failed render is a MammoscopeError."""
    try:
        yield from phantom.render_set(cfg)
    except (MemoryError, OverflowError, ValueError) as exc:
        raise MammoscopeError(f"cannot render phantom set: {exc}") from None


def cmd_phantom(args) -> int:
    cfg = load_config(args.config)
    images = _rendered(cfg.phantom)
    first = next(images)  # before --out exists, so a size too large to render leaves nothing behind
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise MammoscopeError(f"cannot write phantom set: {exc}") from None
    manifest = "path,label\n"
    for index, (name, label, img) in enumerate(itertools.chain([first], images)):
        _write_output({out_dir / name: write_pgm(img, maxval=255, binary=True)})  # as it renders
        if index == 0:  # from here on, an old manifest would list a mix of two sets
            try:
                (out_dir / "manifest.csv").unlink(missing_ok=True)
            except OSError as exc:
                raise MammoscopeError(f"cannot write phantom set: {exc}") from None
        manifest += f"{name},{label}\n"
    _write_output({out_dir / "manifest.csv": manifest.encode("ascii")})  # last: lists whole files
    print(f"wrote {2 * cfg.phantom.count_per_class} images and manifest to {out_dir}")
    return 0


def cmd_extract(args) -> int:
    if args.jobs < 1:
        raise MammoscopeError(f"--jobs must be at least 1, got {args.jobs}")
    # first thing: forked workers inherit scipy instead of importing it again, and an
    # import after the manifest is read left peak RSS up to 15 MB higher for the whole run
    import scipy.fft
    import scipy.ndimage

    cfg = load_config(args.config)
    manifest_path = Path(args.manifest)
    try:  # a manifest is a feature CSV keyed by path, with no feature columns
        manifest = table_from_csv(read_text(manifest_path, "manifest"), key="path")
    except ValueError as exc:
        raise MammoscopeError(f"bad manifest {manifest_path}: {exc}") from None
    if manifest.names:
        raise MammoscopeError(f"bad manifest {manifest_path}: header must be path,label")
    paths = [str(manifest_path.parent / rel) for rel in manifest.ids]  # an absolute rel overrides
    if args.jobs > 1:
        futures = _pooled(min(args.jobs, len(paths)), paths, cfg)
        # a dead worker breaks every future not yet done, so each of those reruns alone;
        # other errors raise as in serial
        outcomes = [
            _extract_alone(path, cfg) if _died(f) else f.result() for path, f in zip(paths, futures)
        ]
    else:
        outcomes = [_extract_one(path, cfg) for path in paths]
    for rel, out in zip(manifest.ids, outcomes):
        if isinstance(out, str):
            print(f"extract failed for {rel}: {out}", file=sys.stderr)
    kept = [i for i, out in enumerate(outcomes) if not isinstance(out, str)]
    if not kept:
        print("error: no image could be extracted", file=sys.stderr)
        return 1
    vectors = [outcomes[i] for i in kept]
    table = replace(
        manifest.subset(kept), names=vectors[0].names, values=np.array([v.values for v in vectors])
    )
    _write_output({args.out: table_to_csv(table).encode("utf-8")})
    return 1 if len(kept) < manifest.n_rows else 0


def _load_table(path: str) -> FeatureTable:
    text = read_text(path, "features")
    try:
        return table_from_csv(text)
    except ValueError as exc:
        raise MammoscopeError(f"bad feature CSV {path}: {exc}") from None


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    table = _load_table(args.features)
    model = evaluation.fit(table, cfg)
    _write_output({args.out: bayes.save_model(model)})
    print(f"trained on {table.n_rows} rows, {len(model.feature_names)} features -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    threshold = load_config(args.config).classifier_threshold
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
    text = evaluation.predictions_to_csv(table.ids, scores, bayes.decide(scores, threshold))
    _write_output({args.out: text.encode("utf-8")})
    return 0


def _entry(path: str) -> str:
    """The directory entry that writing ``path`` replaces: its directory resolved, its own
    name kept, since ``os.replace`` renames over a symlink, not through it. So ``F`` and
    ``./F`` are one entry, and ``/dev/stdout`` and ``/dev/stderr`` two, wherever they lead."""
    head, name = os.path.split(os.path.abspath(path))
    return os.path.join(os.path.realpath(head), name)


def cmd_evaluate(args) -> int:
    roc_csv, roc_svg = args.roc_csv, args.roc_svg
    if None not in (roc_csv, roc_svg) and _entry(roc_csv) == _entry(roc_svg):
        raise MammoscopeError(f"--roc-csv and --roc-svg name one file: {roc_csv}")
    cfg = load_config(args.config)
    table = _load_table(args.features)
    result = run_cross_validation(table, cfg)

    rocs = {roc_csv: evaluation.roc_to_csv, roc_svg: evaluation.roc_to_svg}
    _write_output(
        {p: render(result.curve).encode("ascii") for p, render in rocs.items() if p is not None}
    )
    m = result.matrix
    print(f"cases       : {m.total}")
    print(f"folds       : {cfg.cv_folds} (seed {cfg.cv_seed})")
    print(f"threshold   : {cfg.classifier_threshold}")
    print(f"confusion   : tp={m.tp} fp={m.fp} tn={m.tn} fn={m.fn}")
    print(f"sensitivity : {result.sens:.6f}")
    print(f"specificity : {result.spec:.6f}")
    print(f"auc         : {result.curve.auc:.6f}")
    return 0


@functools.cache  # built once per process: each parse_args call fills a fresh namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mammoscope",
        description="Wavelet/Fourier feature screening pipeline for grayscale images",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the options every command takes
    common.add_argument("--config", default=None)
    command = functools.partial(sub.add_parser, parents=[common])

    p = command("phantom", help="generate a labeled synthetic image set")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_phantom)

    p = command("extract", help="extract features for a manifest of PGM files")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output feature CSV")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_extract)

    p = command("train", help="fit the classifier from a feature CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(func=cmd_train)

    p = command("predict", help="score a feature CSV with a saved model")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output predictions CSV")
    p.set_defaults(func=cmd_predict)

    p = command("evaluate", help="cross-validate and report screening metrics")
    p.add_argument("--features", required=True)
    p.add_argument("--roc-csv", default=None)
    p.add_argument("--roc-svg", default=None)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    previous = {sig: signal.signal(sig, _interrupt) for sig in _STOP_SIGNALS}
    try:
        with np.errstate(all="ignore"):  # every value written is checked finite or floored
            return args.func(args)
    except MammoscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _Interrupted as exc:
        for worker in multiprocessing.active_children():  # busy or idle, stopped and reaped
            worker.terminate()
            worker.join()
        print("error: interrupted", file=sys.stderr)
        return 128 + exc.args[0]
    finally:  # callers in this process, such as tests, keep their own handlers
        for sig, handler in previous.items():
            signal.signal(sig, handler)


if __name__ == "__main__":
    sys.exit(main())
