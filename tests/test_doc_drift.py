"""Doc-drift checks: the documentation must track the code it describes.

Two invariants, both enforced against the real artifacts (the argparse tree
and the package's ``__all__``) rather than a hand-maintained list:

* every CLI subcommand and every long flag registered in ``repro.cli`` is
  mentioned somewhere in README.md or ``docs/`` -- adding a flag without
  documenting it fails CI;
* every name exported from ``repro`` appears in ``docs/architecture.md`` --
  the guarantee table and layer map must cover the whole public surface.
"""

import argparse
import re
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_PATHS = [REPO_ROOT / "README.md"] + sorted((REPO_ROOT / "docs").glob("*.md"))


@pytest.fixture(scope="module")
def documentation_text():
    assert (REPO_ROOT / "docs").is_dir(), "the docs/ tree is part of the deliverable"
    return "\n".join(path.read_text() for path in DOC_PATHS)


def iter_subparsers(parser):
    """Yield ``(command_name, subparser)`` for every registered subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                yield name, subparser


class TestCliDocDrift:
    def test_every_subcommand_is_documented(self, documentation_text):
        parser = build_parser()
        commands = [name for name, _ in iter_subparsers(parser)]
        assert commands, "the CLI must register subcommands"
        missing = [c for c in commands
                   if not re.search(r"\b%s\b" % re.escape(c), documentation_text)]
        assert not missing, "undocumented subcommands: %s" % ", ".join(missing)

    def test_every_long_flag_is_documented(self, documentation_text):
        parser = build_parser()
        missing = []
        for command, subparser in iter_subparsers(parser):
            for action in subparser._actions:
                for option in action.option_strings:
                    if not option.startswith("--"):
                        continue
                    if option not in documentation_text:
                        missing.append("%s %s" % (command, option))
        # top-level flags (e.g. --version) are documented too
        for action in parser._actions:
            for option in action.option_strings:
                if option.startswith("--") and option not in documentation_text:
                    missing.append(option)
        assert not missing, (
            "flags registered in cli.py but absent from README/docs: %s"
            % ", ".join(sorted(set(missing))))

    def test_documented_commands_exist(self, documentation_text):
        """The serving guide's CLI reference may not describe commands that
        do not exist (the reverse drift direction)."""
        parser = build_parser()
        commands = {name for name, _ in iter_subparsers(parser)}
        serving = (REPO_ROOT / "docs" / "serving.md").read_text()
        documented = set(re.findall(r"^### `repro (\w[\w-]*)", serving, re.M))
        assert documented, "docs/serving.md must carry the CLI reference"
        unknown = documented - commands
        assert not unknown, "docs describe unknown commands: %s" % ", ".join(unknown)
        assert documented == commands, (
            "CLI reference misses commands: %s" % ", ".join(commands - documented))


class TestArchitectureCoverage:
    def test_every_public_export_appears_in_architecture_doc(self):
        text = (REPO_ROOT / "docs" / "architecture.md").read_text()
        missing = [name for name in repro.__all__
                   if name != "__version__" and name not in text]
        assert not missing, (
            "repro.__all__ exports absent from docs/architecture.md: %s"
            % ", ".join(missing))

    def test_bench_artifacts_are_documented(self, documentation_text):
        """Every committed BENCH_*.json artifact is explained."""
        artifacts = sorted(path.name for path in REPO_ROOT.glob("BENCH_*.json"))
        assert artifacts, "the repo commits BENCH_*.json artifacts"
        missing = [a for a in artifacts if a not in documentation_text]
        assert not missing, "undocumented bench artifacts: %s" % ", ".join(missing)


class TestBenchGuideCoverage:
    """docs/benchmarks.md must track the grid harness it documents."""

    @pytest.fixture(scope="class")
    def bench_guide(self):
        path = REPO_ROOT / "docs" / "benchmarks.md"
        assert path.is_file(), "docs/benchmarks.md is part of the deliverable"
        return path.read_text()

    def test_every_suite_is_documented(self, bench_guide):
        from repro.bench.suites import SUITES
        missing = [name for name in SUITES
                   if not re.search(r"\b%s\b" % re.escape(name), bench_guide)]
        assert not missing, "undocumented bench suites: %s" % ", ".join(missing)

    def test_schema_version_is_documented(self, bench_guide):
        from repro.bench.grid import BENCH_SCHEMA
        assert BENCH_SCHEMA in bench_guide, (
            "docs/benchmarks.md must name the artifact schema %r" % BENCH_SCHEMA)

    def test_history_file_is_documented(self, bench_guide):
        assert "PERF_HISTORY.jsonl" in bench_guide

    def test_bench_actions_are_documented(self, bench_guide):
        for action in ("bench list", "bench grid", "bench compare"):
            assert action in bench_guide, (
                "docs/benchmarks.md must describe `repro %s`" % action)
