"""repro-lint rule tests: every rule fires on its planted fixture violation,
respects ``# repro-lint: ignore[...]``, and stays silent on clean code.

The fixture tree under ``fixtures/tree`` mirrors the repository layout
(``sim/``, ``transport/``, ``core/``, ``matching/``, ``deploy/``) so the
path-scoping half of every rule is exercised alongside its AST half.
"""

from pathlib import Path

from repro.analysis import ALL_RULES, Analyzer
from repro.analysis.engine import ENGINE_RULE_ID
from repro.analysis.rules import (
    CodecSymmetryRule,
    ForkSafetyRule,
    SerialArithmeticRule,
    WallClockRule,
    ZeroCopyRule,
)

FIXTURE_TREE = Path(__file__).parent / "fixtures" / "tree"

#: Every finding the fixture tree must produce — and nothing else.
#: (relative path, line, rule id).
EXPECTED = sorted([
    ("core/protocol.py", 17, "RL004"),          # GOSSIP not in opcode table
    ("core/workers.py", 3, "RL005"),            # direct pickle import
    ("deploy/realtime.py", 12, "RL005"),        # unguarded listener
    ("deploy/realtime.py", 30, "RL005"),        # anonymous socket
    ("matching/helpers.py", 5, "RL005"),        # transitive cloudpickle
    ("sim/clock_user.py", 7, "RL001"),          # from time import sleep
    ("sim/clock_user.py", 11, "RL001"),         # time.time()
    ("sim/clock_user.py", 15, "RL001"),         # aliased time.monotonic()
    ("sim/clock_user.py", 19, "RL001"),         # datetime.now()
    ("transport/reliability.py", 13, "RL002"),  # raw seq ordering
    ("transport/reliability.py", 17, "RL002"),  # raw seq subtraction
    ("transport/wire.py", 14, "RL003"),         # bytes() materialisation
    ("transport/wire.py", 25, "RL003"),         # b"".join off boundary
    ("transport/wire.py", 29, "RL003"),         # byte + concatenation
    ("transport/wire.py", 34, "RL003"),         # byte += concatenation
    ("transport/wire.py", 38, "RL004"),         # missing decode_orphan
    ("transport/wire.py", 42, "RL004"),         # missing decode_stray
])


def run_tree(rules=ALL_RULES):
    return Analyzer(rules,
                    known_ids=[r.rule_id for r in ALL_RULES]).run(
        [str(FIXTURE_TREE)])


def rel(finding):
    return Path(finding.path).relative_to(FIXTURE_TREE).as_posix()


def test_fixture_tree_exact_findings():
    found = sorted((rel(f), f.line, f.rule_id) for f in run_tree())
    assert found == EXPECTED


def test_all_five_rules_fire_and_every_finding_is_anchored():
    findings = run_tree()
    assert {f.rule_id for f in findings} == {
        "RL001", "RL002", "RL003", "RL004", "RL005"}
    for finding in findings:
        assert finding.line > 0 and finding.col > 0
        assert f":{finding.line}:" in finding.render()


def test_rules_run_independently():
    # --select semantics: a single rule over the tree reports only its id.
    for rule, expected_count in ((WallClockRule(), 4),
                                 (SerialArithmeticRule(), 2),
                                 (ZeroCopyRule(), 4),
                                 (CodecSymmetryRule(), 3),
                                 (ForkSafetyRule(), 4)):
        findings = run_tree([rule])
        assert {f.rule_id for f in findings} == {rule.rule_id}
        assert len(findings) == expected_count


def test_suppressions_respected():
    # clock_user.py suppresses two sleeps (same line + line above);
    # reliability/wire/deploy each suppress one planted violation.
    found = {(rel(f), f.line) for f in run_tree()}
    assert ("sim/clock_user.py", 23) not in found
    assert ("sim/clock_user.py", 25) not in found
    assert ("transport/reliability.py", 22) not in found
    assert ("transport/wire.py", 20) not in found
    assert ("deploy/realtime.py", 25) not in found


def test_exemptions_respected():
    # sim/kernel.py is the designated wall-clock seam; deploy/ may read
    # the real clock; range checks against literal/UPPER bounds are not
    # serial comparisons; encode_* functions are the join boundary.
    found = {rel(f) for f in run_tree()}
    assert "sim/kernel.py" not in found
    clock_lines = {f.line for f in run_tree()
                   if rel(f) == "deploy/realtime.py"}
    assert 8 not in clock_lines                  # tick() reads time.time()
    serial_lines = {f.line for f in run_tree()
                    if rel(f) == "transport/reliability.py"}
    assert serial_lines == {13, 17}
    wire_lines = {f.line for f in run_tree()
                  if rel(f) == "transport/wire.py" and f.rule_id == "RL003"}
    assert wire_lines == {14, 25, 29, 34}        # not encode_thing's join


def test_finding_messages_name_the_remedy():
    by_rule = {}
    for finding in run_tree():
        by_rule.setdefault(finding.rule_id, finding.message)
    assert "scheduler clock" in by_rule["RL001"]
    assert "serial_lt" in by_rule["RL002"]
    assert "send boundary" in by_rule["RL003"]
    assert "sibling" in by_rule["RL004"] or "opcode" in by_rule["RL004"]
    assert "pickle" in by_rule["RL005"] or "set_inheritable" in by_rule["RL005"]


def test_transitive_pickle_finding_names_the_chain():
    (finding,) = [f for f in run_tree() if rel(f) == "matching/helpers.py"]
    assert "matching/plan.py -> " in finding.message
    assert finding.message.count("matching/helpers.py") == 1


def test_unknown_suppression_id_is_reported(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("x = 1  # repro-lint: ignore[RL999]\n")
    (finding,) = Analyzer(ALL_RULES).run([str(tmp_path)])
    assert finding.rule_id == ENGINE_RULE_ID
    assert "RL999" in finding.message


def test_syntax_error_is_a_finding_not_a_crash(tmp_path):
    source = tmp_path / "broken.py"
    source.write_text("def broken(:\n    pass\n")
    findings = Analyzer(ALL_RULES).run([str(tmp_path)])
    assert [f.rule_id for f in findings] == [ENGINE_RULE_ID]
    assert "syntax error" in findings[0].message


def test_docstring_mention_of_suppression_syntax_does_not_suppress(tmp_path):
    # Prose about the ignore[] syntax (like this repo's own docstrings)
    # must neither suppress findings nor trip the unknown-id audit.
    source = tmp_path / "sim" / "doc.py"
    source.parent.mkdir()
    source.write_text(
        '"""Suppress with # repro-lint: ignore[RLxyz] on the line."""\n'
        "import time\n"
        "\n"
        "def now():\n"
        "    return time.time()\n")
    findings = Analyzer(ALL_RULES).run([str(tmp_path)])
    assert [(f.rule_id, f.line) for f in findings] == [("RL001", 5)]


def test_single_file_argument_keeps_directory_scoping(tmp_path):
    # Passing transport/wire.py as a file must still scope RL003 to it.
    findings = Analyzer(ALL_RULES).run(
        [str(FIXTURE_TREE / "transport" / "wire.py")])
    assert {f.rule_id for f in findings} == {"RL003", "RL004"}
    # ...and sim/kernel.py stays exempt even when named directly.
    assert Analyzer(ALL_RULES).run(
        [str(FIXTURE_TREE / "sim" / "kernel.py")]) == []


def test_real_tree_is_clean():
    # The acceptance criterion: the shipped source tree has no findings.
    src = Path(__file__).resolve().parents[2] / "src"
    assert Analyzer(ALL_RULES).run([str(src)]) == []
