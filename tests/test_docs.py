"""The documentation's executable claims.

README and DESIGN are part of the deliverable; their code snippets and
cross-references must not rot.  These tests execute the README
quickstart verbatim and check that every file the documents point at
exists.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (REPO / name).read_text()


class TestReadme:
    def test_quickstart_snippet_runs_verbatim(self):
        readme = read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks, "README lost its quickstart snippet"
        exec(compile(blocks[0], "<README quickstart>", "exec"), {})

    def test_example_commands_reference_real_files(self):
        readme = read("README.md")
        for match in re.findall(r"python (examples/\S+\.py)", readme):
            assert (REPO / match).exists(), match

    def test_architecture_section_matches_packages(self):
        readme = read("README.md")
        for package in ("manifold", "protocol", "sparsegrid", "restructured",
                        "cluster", "perf", "harness"):
            assert f"{package}/" in readme
            assert (REPO / "src" / "repro" / package / "__init__.py").exists()

    @pytest.mark.parametrize(
        "document",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        + sorted(f"docs/{path.name}" for path in (REPO / "docs").glob("*.md")),
    )
    def test_docs_links_exist(self, document):
        for match in re.findall(r"docs/\w+\.md", read(document)):
            assert (REPO / match).exists(), f"{document}: {match}"


class TestDesign:
    def test_module_map_entries_exist(self):
        design = read("DESIGN.md")
        block = re.search(r"```\nsrc/repro/\n(.*?)```", design, re.DOTALL)
        assert block is not None
        for line in block.group(1).splitlines():
            match = re.match(r"\s*(\w+\.py)\s", line)
            if not match:
                continue
            name = match.group(1)
            hits = list((REPO / "src" / "repro").rglob(name))
            assert hits, f"DESIGN.md references missing module {name}"

    def test_bench_targets_exist(self):
        design = read("DESIGN.md")
        for target in set(re.findall(r"benchmarks/\w+\.py", design)):
            assert (REPO / target).exists(), target

    def test_paper_check_stated(self):
        assert "Paper-text check" in read("DESIGN.md")


class TestExperiments:
    def test_bench_pointers_exist(self):
        experiments = read("EXPERIMENTS.md")
        for target in set(re.findall(r"benchmarks/\w+\.py", experiments)):
            assert (REPO / target).exists(), target

    def test_every_design_experiment_has_a_section(self):
        experiments = read("EXPERIMENTS.md")
        for eid in [f"E{i}" for i in range(1, 10)]:
            assert re.search(rf"\b{eid}\b", experiments), eid

    def test_reproduction_command_documented(self):
        assert "pytest benchmarks/ --benchmark-only" in read("EXPERIMENTS.md")
