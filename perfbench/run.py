#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload design_point --seed 7 --seconds 10 --trace 0

The Rust harness in this directory is compiled in release mode (into
``$CARGO_TARGET_DIR``, default ``.bench_build``) and then replaces this
process, so its exit code and its last stdout line -- one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` -- are the
benchmark's. A failed build exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "eagleeye-perfbench"


def revision():
    """The git revision when run from a git checkout, else a digest of
    the sources the benchmark builds, so every result names its code."""
    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "tests"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)
    exe = os.path.join(target_dir, "release", BINARY)
    env["PERFBENCH_REVISION"] = revision()
    env["PERFBENCH_SCRATCH"] = os.path.join(target_dir, "perfbench-scratch")
    sys.stdout.flush()
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
