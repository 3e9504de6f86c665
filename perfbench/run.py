#!/usr/bin/env python3
"""Builds and runs the texrheo benchmark.

    python3 perfbench/run.py --workload train|serve-lone \
        --seed N --seconds S --trace 0|1 [--heldout-seed M] [--smoke 1]

Run from the repository root. The harness (perfbench/src) and the
repository's libraries (src/) are built Release with NDEBUG in their own
tree under .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench), then the
harness runs one workload. Build output goes to stderr; stdout carries the
harness report, and its last line is the JSON result. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over every file under src/ and perfbench/, in path order."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(build_dir):
    """Configures (once) and builds the harness; True on success."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "texrheo_perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["train", "serve-lone"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--heldout-seed", type=int, default=20221001)
    ap.add_argument("--smoke", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: texrheo sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return 2

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = os.path.join(ROOT, base, "perfbench")
    build_dir = os.path.join(out_dir, "build")
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    print("# source sha256=%s commit=%s" % (source_digest(), commit()))
    sys.stdout.flush()
    cmd = [os.path.join(build_dir, "texrheo_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--heldout-seed", str(args.heldout_seed),
           "--smoke", str(args.smoke), "--work-dir", work_dir]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: harness exceeded %ds" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
