"""Structural gate: one mechanism per job at the cell's edge.

An AST pass over ``src/repro`` that fails when a second copy of a
mechanism reappears next to the one this tree keeps:

* a BATCH body is unpacked in one module — ``parse_batch`` /
  ``decode_frames`` are called only from ``core/protocol.py`` (whose
  :func:`~repro.core.protocol.walk` every receiver uses) and
  ``transport/wire.py``;
* the new-session rule has one home — exactly one function calls
  ``resubscribe_all``, the same function holds the only
  ``reset_channel_to`` call;
* a member has one state enum — :class:`LifecycleState`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def called_name(node):
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def functions_calling(name):
    """``module:function`` of every function whose body calls ``name``."""
    found = set()
    for rel, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    called_name(inner) == name for inner in ast.walk(node)):
                found.add(f"{rel}:{node.name}")
    return found


def test_a_batch_body_is_unpacked_in_one_module():
    allowed = {"core/protocol.py", "transport/wire.py"}
    offenders = [
        (rel, node.lineno)
        for rel, tree in modules() if rel not in allowed
        for node in ast.walk(tree)
        if called_name(node) in ("parse_batch", "decode_frames")]
    assert offenders == [], (
        f"BATCH unpacked outside core/protocol.py: {offenders}; receivers "
        f"go through protocol.walk")
    assert functions_calling("walk") >= {
        "core/proxy.py:on_payload", "core/client.py:_on_payload",
        "devices/base.py:_on_payload"}


def test_the_new_session_rule_has_one_home():
    resubscribers = functions_calling("resubscribe_all")
    # The endpoint's own teardown paths use its method too; no caller
    # above the transport does, but the rule.
    resetters = {site for site in functions_calling("reset_channel_to")
                 if not site.startswith("transport/endpoint.py:")}
    assert len(resubscribers) == 1, resubscribers
    assert resetters == resubscribers, (
        f"channel reset at {sorted(resetters)}, resubscribe at "
        f"{sorted(resubscribers)}: the rule is one function")


def test_lifecycle_state_is_the_only_member_state_enum():
    enums = {}
    for rel, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    "Enum" in ast.unparse(base) for base in node.bases):
                enums.setdefault(rel, set()).add(node.name)
    # Cell side of discovery: the table, the machine, the service.
    assert {name for rel, names in enums.items()
            if rel.startswith("discovery/") and rel != "discovery/agent.py"
            for name in names} == {"LifecycleState"}
    assert not any("MemberState" in names for names in enums.values())
    # ... and a record carries exactly one field of an enum type.
    (record,) = [node for _rel, tree in modules() for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)
                 and node.name == "MemberRecord"]
    all_enums = set().union(*enums.values())
    enum_fields = [stmt.target.id for stmt in record.body
                   if isinstance(stmt, ast.AnnAssign)
                   and set(ast.unparse(stmt.annotation).replace("|", " ")
                           .split()) & all_enums]
    assert enum_fields == ["lifecycle"]
