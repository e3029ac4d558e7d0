"""mammoscope benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: large-p5, small-p2-extended,
cv-tall (see perfbench/README.md). The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Set-up runs ``gen.py`` in a fresh interpreter ``SETUP_REPS`` times and
reports the median wall time as ``setup_s``. The stages then run in one
more interpreter (``runner.py``), so input generation never sets the
reported peak memory. Scratch files live under ``.perfbench/`` in the
checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
DEADLINE_S = 170  # every run must end within 180 s


def run_child(argv: list[str], root: Path, timeout: float) -> subprocess.CompletedProcess:
    """Run a benchmark process in a new process group; kill the group if it must stop early."""
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=root, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:  # timeout, SIGTERM or Ctrl-C: end the child and its workers too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out.decode())


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    sys.path.insert(0, str(HERE))
    import common

    if args.workload not in common.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(common.WORKLOADS)}")
    if not (root / "src" / "mammoscope" / "__init__.py").is_file():
        print(f"perfbench: {root} holds no mammoscope sources (src/mammoscope)", file=sys.stderr)
        return 2

    scratch = root / ".perfbench"
    work = scratch / f"{args.workload}-{os.getpid()}"
    inputs = work / "inputs"
    common_args = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPS):
            shutil.rmtree(inputs, ignore_errors=True)
            t0 = time.perf_counter()
            gen = run_child([str(HERE / "gen.py"), *common_args, "--out", str(inputs)],
                            root, deadline - time.monotonic())
            setup_times.append(time.perf_counter() - t0)
            if gen.returncode != 0:
                print(f"perfbench: input generation exited {gen.returncode}", file=sys.stderr)
                return 2
        runner = run_child(
            [str(HERE / "runner.py"), *common_args, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--dir", str(work)],
            root, deadline - time.monotonic(),
        )
        if runner.returncode != 0 or not runner.stdout.strip():
            print(f"perfbench: stage runner exited {runner.returncode}", file=sys.stderr)
            return 2
        result = json.loads(runner.stdout.strip().splitlines()[-1])
        if not args.trace:
            result["metrics"]["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        print(json.dumps(result))
        return 0
    except subprocess.TimeoutExpired:
        print("perfbench: a benchmark process timed out", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
