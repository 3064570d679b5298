"""Tests for the lint engine: discovery, noqa, registry, CLI plumbing."""

import pytest

from repro.analysis import LintEngine, default_rules
from repro.analysis.lint import PARSE_ERROR_ID, Rule, register
from repro.analysis.lint.engine import RULE_REGISTRY, Finding, format_findings
from repro.cli import main

CLEAN = '__all__ = ["f"]\n\n\ndef f():\n    return 1\n'
DIRTY = '__all__ = []\n\n\ndef f():\n    print("x")\n    return 1\n'


class TestEngine:
    def test_clean_source_has_no_findings(self):
        assert LintEngine().lint_source(CLEAN, "mod.py") == []

    def test_findings_are_sorted_and_located(self):
        findings = LintEngine().lint_source(DIRTY, "mod.py")
        assert [f.rule_id for f in findings] == ["REPRO006"]
        assert findings[0].line == 5
        assert findings[0].path == "mod.py"

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        # A syntax error, and a UTF-16 file that is not UTF-8 at all.
        for name, data in (("broken.py", b"def f(:\n"),
                           ("utf16.py", b"\xff\xfex\x00=\x001\x00")):
            bad = tmp_path / name
            bad.write_bytes(data)
            findings = LintEngine().lint_file(bad)
            assert [f.rule_id for f in findings] == [PARSE_ERROR_ID]

    def test_directory_walk_skips_pycache(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "a.py").write_text(CLEAN)
        (tmp_path / "pkg" / "__pycache__" / "b.py").write_text(DIRTY)
        files = list(LintEngine.iter_python_files([tmp_path]))
        assert [f.name for f in files] == ["a.py"]

    def test_format_findings_tallies_by_rule(self):
        f1 = Finding("a.py", 1, 0, "REPRO001", "m")
        f2 = Finding("a.py", 2, 0, "REPRO001", "m")
        out = format_findings([f1, f2])
        assert "2 finding(s)" in out and "REPRO001: 2" in out
        assert format_findings([]) == "no findings"


class TestNoqa:
    def test_targeted_noqa_suppresses_matching_rule(self):
        src = '__all__ = []\nprint("x")  # noqa: REPRO006\n'
        assert LintEngine().lint_source(src, "mod.py") == []

    def test_targeted_noqa_keeps_other_rules(self):
        src = '__all__ = []\nprint("x")  # noqa: REPRO001\n'
        ids = [f.rule_id for f in LintEngine().lint_source(src, "mod.py")]
        assert ids == ["REPRO006"]

    def test_bare_noqa_suppresses_everything_on_the_line(self):
        src = '__all__ = []\nprint(np.random.rand())  # noqa\n'
        assert LintEngine().lint_source(src, "mod.py") == []


#: Ids of deleted rules (each retired for a runtime check that covers
#: it): never reused, so an old ``noqa`` or doc mention cannot start
#: meaning another rule.
RETIRED = {3, 7, 10, 11, 12, 13}


class TestRegistry:
    def test_default_rules_cover_the_documented_set(self):
        ids = [r.rule_id for r in default_rules()]
        assert ids == [f"REPRO{i:03d}" for i in (1, 2, 4, 5, 6, 8, 9)]

    def test_registry_is_id_ordered_with_no_gaps_or_duplicates(self):
        # Registration order == definition order; keeping it sorted
        # (and dense but for retired ids) is what lets the engine
        # docstring pick a non-clashing example id.
        ids = [rid for rid in RULE_REGISTRY if rid.startswith("REPRO")]
        assert ids == sorted(ids), "rule definitions drifted out of ID order"
        assert len(ids) == len(set(ids))
        nums = [int(rid.removeprefix("REPRO")) for rid in ids]
        assert nums == [
            n for n in range(1, nums[-1] + 1) if n not in RETIRED
        ], "gap in rule IDs, or a retired id reused"

    def test_subset_selection(self):
        ids = [r.rule_id for r in default_rules(["repro001", "REPRO006"])]
        assert ids == ["REPRO001", "REPRO006"]

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="REPRO999"):
            default_rules(["REPRO999"])

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):

            @register
            class Clone(Rule):
                rule_id = "REPRO001"

        assert RULE_REGISTRY["REPRO001"].__name__ != "Clone"


class TestCli:
    def test_lint_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text(CLEAN)
        dirty = tmp_path / "dirty.py"
        dirty.write_text(DIRTY)
        assert main(["lint", str(clean)]) == 0
        assert main(["lint", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "REPRO006" in out

    def test_rules_filter(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(DIRTY)
        assert main(["lint", str(dirty), "--rules", "REPRO001"]) == 0

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for i in (1, 2, 4, 5, 6, 8, 9):
            assert f"REPRO00{i}" in out
        for i in sorted(RETIRED):
            assert f"REPRO{i:03d}" not in out
