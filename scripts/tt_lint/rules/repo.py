"""Repo-scope rules: facts about the build graph, not any one file."""

from __future__ import annotations

import re

from ..engine import Finding, RepoContext
from .base import RepoRule


class UnregisteredTest(RepoRule):
    """Every tests/*.cc must be referenced by tests/CMakeLists.txt and
    every examples/*.cc declared in examples/CMakeLists.txt as
    taxitrace_example(<stem>): an unregistered target compiles on
    nobody's machine and silently never runs."""

    name = "unregistered-test"
    short = ("a tests/ or examples/ source file not registered by its "
             "CMakeLists.txt never builds or runs")

    def check_repo(self, ctx: RepoContext):
        yield from self._check_dir(
            ctx, "tests", "test source",
            lambda source, cmake_text: source.name in cmake_text)
        yield from self._check_dir(
            ctx, "examples", "example source",
            lambda source, cmake_text: re.search(
                r"\btaxitrace_example\(\s*" + re.escape(source.stem)
                + r"\s*\)", cmake_text))

    def _check_dir(self, ctx: RepoContext, dirname: str, what: str,
                   registered):
        d = ctx.repo_root / dirname
        cmake = d / "CMakeLists.txt"
        if not cmake.is_file():
            return
        cmake_text = cmake.read_text(encoding="utf-8")
        for source in sorted(d.glob("*.cc")):
            if registered(source, cmake_text):
                continue
            yield Finding(
                path=f"{dirname}/{source.name}", line=1,
                rule=self.name,
                message=f"{what} is not registered by "
                        f"{dirname}/CMakeLists.txt, so it never builds "
                        "or runs")
