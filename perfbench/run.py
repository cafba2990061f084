"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload resnet18_b4 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run and reports the per-layer metrics instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller results file, with the
environment fingerprint, every check and the traced layer table, is written
under ``.bench_build/perfbench/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
#: the kernel tier every run must resolve to; a silent fallback to the
#: numpy tier would otherwise read as a read-out regression
EXPECTED_KERNEL_TIER = "c"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path):
    """The checked-out commit, read from ``.git`` (None outside a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(kernel_tier: str) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "kernel_tier": kernel_tier,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
    }


def build_kernel(env: dict) -> None:
    """Compile the C kernel tier before any timing, so gcc never lands in a
    measurement; the compiled object stays in the checkout's build dir."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.kernels.build"],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: building the kernel tier failed:\n{proc.stdout}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "repro" / "engine" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}; run from a full checkout")

    # everything the run writes stays inside the checkout
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "repro-kernels")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    tempfile.tempdir = str(BUILD / "tmp")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    build_kernel(env)
    sys.path.insert(0, str(SRC))

    from repro.kernels import dispatch

    tier = dispatch.default_kernel()
    if tier != EXPECTED_KERNEL_TIER:
        sys.exit(
            f"perfbench: kernel tier resolved to {tier!r}, expected "
            f"{EXPECTED_KERNEL_TIER!r} ({dispatch.unavailable_reasons()})"
        )

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}"
        )
    wl = workloads.WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = BUILD / "perfbench" / f"work-{tag}-{os.getpid()}"
    try:
        outcome = workloads.measure(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = outcome["checks"]
    metrics = {
        name: {"value": value, "unit": unit} for name, (value, unit) in outcome["metrics"].items()
    }
    result = {
        "correct": checks.passed,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(tier),
        "checks": {name: problem or "pass" for name, problem in checks.results.items()},
        "result": result,
        "details": outcome["details"],
    }
    out = BUILD / "perfbench" / f"results-{tag}.json"
    out.write_text(json.dumps(report, indent=2, default=str) + "\n")

    for name, metric in metrics.items():
        print(f"{name:<48} {metric['value']:>16.6g} {metric['unit']}")
    for name, problem in checks.results.items():
        print(f"check {name}: {'PASS' if problem is None else 'FAIL: ' + problem}")
    print(f"results file: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if checks.passed else 1


if __name__ == "__main__":
    sys.exit(main())
