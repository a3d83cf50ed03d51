#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden/.

Builds the regression_test and full_study targets, then runs the
golden-digest test and tests/full_study_test.sh with
TAXITRACE_UPDATE_GOLDEN=1, which makes them rewrite
tests/golden/study_small.json and tests/golden/full_study_report.txt
from the current output instead of comparing against it. Use this only
for an *intentional* behaviour change, and review the diff of the
golden files like any other code change.

Usage:
  scripts/update_golden.py [--build-dir BUILD]
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(cmd: list[str], **kwargs) -> None:
    print("+", " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True, **kwargs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--build-dir",
        default=str(REPO_ROOT / "build"),
        help="CMake build directory (configured on demand)",
    )
    args = parser.parse_args()

    build_dir = pathlib.Path(args.build_dir)
    if not (build_dir / "CMakeCache.txt").exists():
        if shutil.which("cmake") is None:
            print("error: cmake not found on PATH", file=sys.stderr)
            return 1
        run(["cmake", "-B", str(build_dir), "-S", str(REPO_ROOT)])
    run(["cmake", "--build", str(build_dir), "--target", "regression_test",
         "full_study"])

    test_binary = build_dir / "tests" / "regression_test"
    study_binary = build_dir / "examples" / "full_study"
    for binary in (test_binary, study_binary):
        if not binary.exists():
            print(f"error: {binary} not built", file=sys.stderr)
            return 1

    env = dict(os.environ, TAXITRACE_UPDATE_GOLDEN="1")
    run(
        [
            str(test_binary),
            "--gtest_filter=GoldenDigestTest.*",
        ],
        env=env,
    )

    golden_dir = REPO_ROOT / "tests" / "golden"
    run(
        [
            "bash",
            str(REPO_ROOT / "tests" / "full_study_test.sh"),
            str(study_binary),
            str(golden_dir / "full_study_report.txt"),
        ],
        env=env,
    )

    print(f"regenerated the golden files in {golden_dir}")
    print("review the diff before committing:")
    run(["git", "--no-pager", "diff", "--stat", str(golden_dir)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
