#!/usr/bin/env python3
"""READS-Edge benchmark entry point.

    python3 edgebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package (edgebench/,
compiling the library sources under src/) into .bench_build/, copies the
committed model cache (models/) to a private directory so a cache miss can
never write under models/, and runs the edgebench binary, whose standard
output ends with the one-line JSON result. Exits non-zero when the build
fails, the sources or the model cache are missing, or the run is invalid.
See edgebench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("edge_sync", "cluster_uds", "offline_sweep")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "edgebench")
MODELS = os.path.join(ROOT, "models")
MODEL_COPY = os.path.join(ROOT, ".bench_build", "models")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("edgebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "edgebench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "edgebench")


def copy_models():
    if not os.path.isdir(MODELS):
        fail("no model cache at models/")
    os.makedirs(MODEL_COPY, exist_ok=True)
    for name in os.listdir(MODELS):
        src = os.path.join(MODELS, name)
        if os.path.isfile(src):
            shutil.copyfile(src, os.path.join(MODEL_COPY, name))


def source_id():
    """git sha when the checkout is a repository, else a digest of src/."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/")

    exe = build()
    copy_models()
    os.makedirs(OUT, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           # Relative to the root, so Unix socket paths stay short.
           "--model-cache", os.path.relpath(MODEL_COPY, ROOT),
           "--out-dir", os.path.relpath(OUT, ROOT),
           "--git-sha", source_id()]
    # Own process group, so a timeout also takes down replica children.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
