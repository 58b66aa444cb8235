#!/usr/bin/env python3
"""Build and run one workload of the CCFIT simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 15 --trace 0

The benchmark is the Rust package in this directory. It is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build) and then run
in a fresh process. Its standard output passes through unchanged; the
last line is the JSON result. Records and span files go to
perfbench/results/. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-sweep", "scale-uniform", "flow-fct")
# A run measures for --seconds, then finishes its last round and its warm
# passes; the longest (flow-fct) takes about a minute on a 2-vCPU host.
RUN_TIMEOUT_S = 175


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += sorted(
            p for p in (ROOT / top).rglob("*")
            if p.is_file() and not {"results", "target"} & set(p.parts)
        )
    for path in files:
        if path.is_file():  # Cargo.lock may be absent
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = pathlib.Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [
        str(target / "release" / "ccfit-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out-dir", str(HERE / "results"),
        "--revision", revision(),
    ]
    # One malloc arena for every thread: memory a pass frees on one
    # thread is reused by the next pass on another, so VmHWM measures the
    # largest simulation instead of one retained copy per thread arena.
    run_env = dict(os.environ, MALLOC_ARENA_MAX="1")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=run_env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
