"""The text/json/github output formats shared by lint and analyze."""

import json

import pytest

from repro.cli import main
from repro.verify import Diagnostic, format_diagnostics
from repro.verify.output import split_where

ERROR_DIAG = Diagnostic(
    rule="analyze/impure-reach",
    message="clock read reachable from estimate",
    where="src/repro/core/util.py:12",
    severity="error",
    hint="hoist the read",
    key="analyze/impure-reach|core/util.py|stamp|time.time()",
)
WARN_DIAG = Diagnostic(
    rule="lint/set-order",
    message="set iterated into ordered output\nsecond line",
    where="src/repro/core/m.py:3",
    severity="warning",
)


class TestFormatters:
    def test_text_matches_diagnostic_format(self):
        assert format_diagnostics([ERROR_DIAG], "text") == [
            ERROR_DIAG.format()
        ]

    def test_json_document_shape(self):
        (doc_text,) = format_diagnostics([ERROR_DIAG, WARN_DIAG], "json")
        doc = json.loads(doc_text)
        assert doc["summary"] == {"total": 2, "errors": 1, "warnings": 1}
        assert doc["diagnostics"][0]["rule"] == "analyze/impure-reach"
        assert doc["diagnostics"][0]["key"].startswith("analyze/impure-reach|")

    def test_github_error_annotation(self):
        (line,) = format_diagnostics([ERROR_DIAG], "github")
        assert line.startswith(
            "::error file=src/repro/core/util.py,line=12,"
            "title=analyze/impure-reach::"
        )
        assert "clock read reachable" in line
        assert "hoist the read" in line

    def test_github_escapes_newlines(self):
        (line,) = format_diagnostics([WARN_DIAG], "github")
        assert line.startswith("::warning ")
        assert "\n" not in line
        assert "%0A" in line

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            format_diagnostics([], "yaml")

    def test_split_where(self):
        assert split_where("a/b.py:7") == ("a/b.py", 7)
        assert split_where("GraphNode[3].mha") == ("GraphNode[3].mha", None)


class TestCLIFormats:
    @pytest.fixture
    def dirty_tree(self, tmp_path):
        bad = tmp_path / "core" / "cost.py"
        bad.parent.mkdir()
        (tmp_path / "__init__.py").write_text("")
        (bad.parent / "__init__.py").write_text("")
        bad.write_text("import time\n\ndef estimate():\n    return time.time()\n")
        return tmp_path

    def test_lint_github_format(self, dirty_tree, capsys):
        assert main(["verify", "lint", str(dirty_tree), "--format",
                     "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert "lint/wallclock" in out

    def test_lint_json_format_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("def f():\n    return 1\n")
        assert main(["verify", "lint", str(tmp_path), "--format",
                     "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["total"] == 0

    def test_analyze_github_format(self, dirty_tree, capsys):
        assert main(["verify", "analyze", str(dirty_tree), "--format",
                     "github", "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "analyze/impure-reach" in out

    def test_analyze_write_and_honor_baseline(self, dirty_tree, tmp_path,
                                              capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["verify", "analyze", str(dirty_tree), "--baseline",
                     str(baseline), "--write-baseline"]) == 0
        capsys.readouterr()
        # same findings again: baselined, exit 0
        assert main(["verify", "analyze", str(dirty_tree), "--baseline",
                     str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out

    def test_analyze_repo_default_invocation_is_clean(self, capsys):
        assert main(["verify", "analyze"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
        assert "0 new finding(s)" in out
