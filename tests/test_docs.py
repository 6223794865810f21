"""Tests keeping the docs site buildable and reference-clean in tier-1."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"
TOOLS = REPO_ROOT / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gen_api():
    return load_tool("gen_api")


class TestDocsTree:
    @pytest.mark.parametrize(
        "name",
        ["architecture.md", "stream-protocol.md", "scenarios.md", "benchmarks.md"],
    )
    def test_doc_exists_and_is_substantial(self, name):
        path = DOCS / name
        assert path.exists(), f"docs/{name} missing"
        assert len(path.read_text()) > 1000

    def test_readme_links_docs(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for name in ("architecture.md", "stream-protocol.md", "scenarios.md"):
            assert f"docs/{name}" in readme

    def test_scenarios_doc_covers_registry(self):
        from repro.workload.scenarios import scenario_names

        text = (DOCS / "scenarios.md").read_text()
        for name in scenario_names():
            assert f"`{name}`" in text, f"scenario {name} undocumented"

    def test_scenarios_doc_covers_presets(self):
        from repro.core.presets import preset_names

        text = (DOCS / "scenarios.md").read_text()
        for name in preset_names():
            assert name in text


class TestApiReference:
    def test_build_and_crossref_check(self, gen_api, tmp_path):
        # The CI docs job, in miniature: full build into a tmp dir plus
        # the cross-reference and markdown-link checks, all must pass.
        assert gen_api.main(["--out", str(tmp_path), "--check"]) == 0
        index = tmp_path / "index.md"
        assert index.exists()
        assert "`repro.workload.live`" in index.read_text()
        assert (tmp_path / "repro.workload.streams.md").exists()

    def test_every_export_resolves(self, gen_api):
        # A name left in ``__all__`` after its definition is deleted
        # breaks ``from package import *`` and the API pages.
        stale = []
        for name in gen_api.walk_modules():
            module = importlib.import_module(name)
            exports = getattr(module, "__all__", ())
            stale += [f"{name}.{e}" for e in exports if not hasattr(module, e)]
        assert stale == []

    def test_broken_reference_detected(self, gen_api):
        assert not gen_api._resolve("repro.workload.NoSuchThing", "repro.workload")
        assert gen_api._resolve(
            "~repro.workload.streams.WorkloadStream", "repro.workload.live"
        )
        assert gen_api._resolve("events", "repro.workload.streams")

    def test_broken_markdown_link_detected(self, gen_api, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [here](missing-file.md) and [ok](page.md)")
        errors = gen_api.check_markdown_links([page])
        assert len(errors) == 1
        assert "missing-file.md" in errors[0]


class TestDocstringCoverage:
    def test_gate_passes_at_ratchet(self, capsys):
        check = load_tool("check_docstrings")
        assert check.main([]) == 0
        out = capsys.readouterr().out
        assert "docstring coverage: passed" in out

    def test_gate_fails_above_current_coverage(self, capsys):
        check = load_tool("check_docstrings")
        assert check.main(["--min-coverage", "100"]) == 1

    def test_printed_coverage_rounds_down(self, capsys, monkeypatch, tmp_path):
        # Module + documented def + undocumented def: 2/3 = 66.67%.
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(
            '"""A module."""\n\n'
            'def documented():\n    """Has one."""\n\n'
            "def bare():\n    pass\n"
        )
        check = load_tool("check_docstrings")
        monkeypatch.setattr(check, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(check, "SOURCE_ROOT", package)
        assert check.main(["--min-coverage", "66.6"]) == 0
        out = capsys.readouterr().out
        total = next(line for line in out.splitlines() if line.startswith("TOTAL"))
        assert total.split()[1:] == ["2/3", "66.6%"]
        assert "passed (66.6% >= 66.6%" in out
        assert "66.7" not in out
