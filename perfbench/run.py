#!/usr/bin/env python3
"""Build and run the S-CORE benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a Cargo package of its own that depends on the
repository's crates by path) in release mode, then runs it with the given
arguments. Build output goes to stderr; the benchmark's own stdout passes
through, its last line being the JSON result. The build directory is
`$CARGO_TARGET_DIR`, or `.bench_build` under the current directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fingerprint() -> str:
    """The toolchain and source revision, as far as they can be told."""

    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        lines = out.stdout.strip().splitlines()
        return lines[0] if out.returncode == 0 and lines else "unknown"

    rustc = first_line(["rustc", "--version"])
    # Only a checkout that is itself a git work tree has a revision; git is
    # not asked to search the directories above it.
    rev = first_line(["git", "rev-parse", "--short", "HEAD"]) if os.path.isdir(".git") else "unknown"
    return f"rustc={rustc!r} rev={rev}"


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.abspath(".bench_build"))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    # One malloc arena per thread makes the serving workloads' peak RSS
    # depend on which threads happened to allocate; one keeps it steady.
    env.setdefault("MALLOC_ARENA_MAX", "1")
    print(f"# host: cores={os.cpu_count()} {fingerprint()}", flush=True)
    try:
        run = subprocess.run([binary, *sys.argv[1:]], env=env, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: the run exceeded 170 s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
