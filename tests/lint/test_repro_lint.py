"""Tier-1 suite for repro-lint (RL002, RL004, RL007).

Two halves:

* **seeded mutations** — every rule must flag its red fixture (a
  minimally broken version of real repo code) and stay silent on the
  clean counterpart.  This is the proof the checkers actually detect
  the bug class they claim to.
* **the real tree** — ``run_lint(src/repro)`` must be clean, which is
  what turns the contracts (determinism, dtype pinning, event-loop
  hygiene) into CI gates.

Four invariants need no rule.  A ``Locater`` resets its warm state
whole whenever the table's generation moves, and the oracles live under
``tests/oracles/``.  One pipe type in ``repro.cluster.executor`` owns
every shard ``Connection`` and raises the typed shard errors itself,
and an attached column store has no unlink path; the chaos suites and
``tests/unit/test_columns.py`` check those two at runtime.
"""

import io
import json
import pathlib
import subprocess
import sys

import pytest

from repro.tools.lint import (
    REGISTRY,
    Checker,
    Violation,
    parse_suppressions,
    register,
    run_lint,
)
from repro.tools.lint.reporter import render_json, render_text

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


def lint_fixture(name, *codes):
    """Lint one fixture file with the given rules, scoping bypassed."""
    return run_lint([FIXTURES / name], select=codes or None, all_paths=True)


# ---------------------------------------------------------------------------
# Seeded mutations: each checker catches its planted violation.

RED_FIXTURES = [
    ("rl002_unordered.py", "RL002", 3),
    ("rl002_ambient.py", "RL002", 4),
    ("rl004_default_dtype.py", "RL004", 3),
    ("rl007_blocking_loop.py", "RL007", 5),
]

CLEAN_FIXTURES = [
    ("rl002_clean.py", "RL002"),
    ("rl004_clean.py", "RL004"),
    ("rl007_clean.py", "RL007"),
]


@pytest.mark.parametrize("fixture,code,expected", RED_FIXTURES)
def test_red_fixture_is_caught(fixture, code, expected):
    violations = lint_fixture(fixture, code)
    assert len(violations) == expected, \
        f"{fixture}: {[v.render() for v in violations]}"
    assert all(v.code == code for v in violations)
    assert all(v.path.endswith(fixture) for v in violations)
    assert all(v.line > 0 for v in violations)


@pytest.mark.parametrize("fixture,code", CLEAN_FIXTURES)
def test_clean_fixture_passes(fixture, code):
    violations = lint_fixture(fixture, code)
    assert violations == [], [v.render() for v in violations]


def test_every_rule_has_a_red_fixture():
    covered = {code for _, code, _ in RED_FIXTURES}
    assert covered == set(REGISTRY), \
        "every registered rule needs a seeded-mutation fixture"


# ---------------------------------------------------------------------------
# The real tree is clean — the contracts hold on src/repro.

def test_real_tree_is_clean():
    violations = run_lint([SRC_REPRO])
    assert violations == [], "\n".join(v.render() for v in violations)


def test_real_tree_scoping_matches_all_paths_on_flagged_modules():
    # Path scoping must not hide findings inside the scoped modules:
    # linting a dtype-critical file explicitly agrees with the tree run.
    target = SRC_REPRO / "events" / "gaps.py"
    assert run_lint([target], select=["RL004"]) == []


# ---------------------------------------------------------------------------
# Suppressions.

def test_line_suppression_silences_only_its_line():
    violations = lint_fixture("suppressed_line.py", "RL004")
    assert len(violations) == 1
    assert violations[0].line == 8  # the unsuppressed np.empty


def test_file_suppression_silences_only_listed_rule():
    assert lint_fixture("suppressed_file.py", "RL004") == []
    rl002 = lint_fixture("suppressed_file.py", "RL002")
    assert len(rl002) == 1  # the set-literal loop is not silenced


def test_suppression_in_string_literal_is_ignored():
    sup = parse_suppressions(
        's = "# repro-lint: disable-file=RL004"\n'
        'x = 1  # repro-lint: disable=RL002  reason\n')
    assert sup.file_level == set()
    assert sup.by_line == {2: {"RL002"}}


def test_suppression_multiple_codes():
    sup = parse_suppressions("x = 1  # repro-lint: disable=RL001,RL003\n")
    assert sup.by_line == {1: {"RL001", "RL003"}}


# ---------------------------------------------------------------------------
# Registry and driver plumbing.

def test_registry_has_the_seven_contracts():
    # Seven codes were issued; RL001, RL003, RL005 and RL006 are
    # retired, because their invariants now hold by construction.
    assert sorted(REGISTRY) == ["RL002", "RL004", "RL007"]


def test_register_rejects_duplicates_and_blank_codes():
    with pytest.raises(ValueError, match="duplicate"):
        register(type("Dup", (Checker,), {"code": "RL002"}))
    with pytest.raises(ValueError, match="no code"):
        register(type("Anon", (Checker,), {}))


def test_unknown_rule_code_raises():
    with pytest.raises(ValueError, match="RL999"):
        run_lint([FIXTURES], select=["RL999"])


def test_violation_render_and_dict_roundtrip():
    violation = Violation(path="a/b.py", line=3, col=7, code="RL002",
                          message="boom")
    assert violation.render() == "a/b.py:3:7: RL002 boom"
    assert violation.as_dict() == {
        "path": "a/b.py", "line": 3, "col": 7,
        "code": "RL002", "message": "boom"}


# ---------------------------------------------------------------------------
# Reporters.

def test_text_reporter_summary_lines():
    violation = Violation(path="x.py", line=1, col=0, code="RL004",
                          message="m")
    stream = io.StringIO()
    render_text([violation], stream)
    assert "x.py:1:0: RL004 m" in stream.getvalue()
    assert "1 finding (RL004×1)" in stream.getvalue()
    clean = io.StringIO()
    render_text([], clean)
    assert clean.getvalue() == "repro-lint: clean\n"


def test_json_reporter_payload():
    violation = Violation(path="x.py", line=1, col=0, code="RL004",
                          message="m")
    stream = io.StringIO()
    render_json([violation], stream)
    payload = json.loads(stream.getvalue())
    assert payload["tool"] == "repro-lint"
    assert payload["count"] == 1
    assert payload["findings"][0]["code"] == "RL004"
    assert set(payload["rules"]) == set(REGISTRY)


# ---------------------------------------------------------------------------
# CLI (the exact invocation CI runs).

def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.tools.lint", *argv],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"})


def test_cli_clean_tree_exits_zero():
    result = _run_cli(str(SRC_REPRO))
    assert result.returncode == 0, result.stdout + result.stderr
    assert "repro-lint: clean" in result.stdout


def test_cli_findings_exit_one_and_json_parses():
    result = _run_cli("--all-paths", "--format", "json", "--select", "RL004",
                      str(FIXTURES / "rl004_default_dtype.py"))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["count"] == 3


def test_cli_unknown_rule_exits_two():
    result = _run_cli("--select", "RL999", str(SRC_REPRO))
    assert result.returncode == 2
    assert "RL999" in result.stderr


def test_cli_list_rules():
    result = _run_cli("--list-rules")
    assert result.returncode == 0
    for code in REGISTRY:
        assert code in result.stdout
