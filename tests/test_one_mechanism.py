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

... and when something nothing runs reappears:

* every option (a defaulted ``*Config`` field or public-constructor
  parameter) is passed by keyword somewhere in ``src/``, ``benchmarks/``
  or ``examples/``, or is on :data:`UNSET_OPTIONS` with its reason;
* no parameter is accepted by every implementation of a method and read
  by none (the shape ``tick(now, registry)`` had);
* the reliable channel has one way to abandon a queue (``close``), and
  the three subsystems deleted as unexercised stay deleted;
* how much a member is sent at once has one owner, its proxy (the hop's
  window and the declared capacity), and the hooks deleted for having no
  caller stay deleted;
* a peer has one channel, and a roam moves it: only
  ``PacketEndpoint.learn_peer`` re-keys the endpoint's channel table, and
  the multi-address roam machinery and the proxies' second copy of a
  member's address stay deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


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


# -- nothing in the cell that nothing runs ------------------------------------

#: Options no caller in src/, benchmarks/ or examples/ sets, kept anyway.
UNSET_OPTIONS = {
    # Deployment addresses (the simplicity guide keeps those configurable).
    ("ServerConfig", "healthz_port"): "deployment address",
    ("ServerConfig", "broadcast_peers"): "deployment addresses",
    # The seam the RFC-1982 wrap tests start a channel near 2^32 through.
    ("ReliableChannel", "initial_seq"): "wraparound test seam",
    # Parameters of the device and testbed *models*: the scenarios in
    # tests/ vary them, the examples run the defaults.
    ("DrugPump", "reservoir_ml"): "device model",
    ("DrugPump", "max_hourly_ml"): "device model",
    ("DrugPump", "status_period_s"): "device model",
    ("PumpProtocol", "max_dose_ml"): "device model",
    ("ECGMonitor", "samples_per_burst"): "device model",
    ("VitalSignsGenerator", "rng"): "patient model",
    ("VitalSignsGenerator", "hr_baseline"): "patient model",
    ("VitalSignsGenerator", "spo2_baseline"): "patient model",
    ("VitalSignsGenerator", "temp_baseline"): "patient model",
    ("VitalSignsGenerator", "systolic_baseline"): "patient model",
    ("VitalSignsGenerator", "diastolic_baseline"): "patient model",
    ("Simulator", "start_time"): "testbed model",
    ("SimNetwork", "rng"): "testbed model",
    ("StaticPosition", "y"): "testbed model",
    ("WalkAway", "home"): "testbed model",
    ("WalkAway", "walk_s"): "testbed model",
    # Passed positionally everywhere: not options, the measure's blind spot.
    ("PolicyParseError", "line"): "passed positionally",
    ("PolicyParseError", "column"): "passed positionally",
    ("Constraint", "value"): "passed positionally",
    ("Filter", "constraints"): "passed positionally",
}


def options():
    """``(class, name)`` of every defaulted field of a ``*Config`` class
    and every defaulted ``__init__`` parameter of a public class."""
    found = set()
    for _rel, tree in modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for stmt in cls.body:
                if (cls.name.endswith("Config")
                        and isinstance(stmt, ast.AnnAssign)
                        and stmt.value is not None):
                    found.add((cls.name, stmt.target.id))
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                    args = stmt.args
                    positional = args.posonlyargs + args.args
                    defaulted = positional[len(positional) - len(args.defaults):]
                    defaulted += [arg for arg, default in
                                  zip(args.kwonlyargs, args.kw_defaults)
                                  if default is not None]
                    found.update((cls.name, arg.arg) for arg in defaulted)
    return found


def test_every_option_has_a_caller_that_sets_it():
    passed = {keyword.arg
              for top in ("src", "benchmarks", "examples")
              for path in (ROOT / top).rglob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call) for keyword in node.keywords}
    unset = {option for option in options() if option[1] not in passed}
    assert sorted(unset - set(UNSET_OPTIONS)) == [], (
        "options no caller sets: make each a constant, or list it in "
        "UNSET_OPTIONS with the reason it stays")
    assert sorted(set(UNSET_OPTIONS) - unset) == [], "stale allow-list entries"
    assert len(UNSET_OPTIONS) <= 23


def is_stub(function):
    """A Protocol / abstract body: docstring, ``...``, ``pass`` or a bare
    ``raise NotImplementedError``."""
    return all(isinstance(stmt, ast.Pass)
               or (isinstance(stmt, ast.Expr)
                   and isinstance(stmt.value, ast.Constant))
               or (isinstance(stmt, ast.Raise)
                   and "NotImplementedError" in ast.unparse(stmt))
               for stmt in function.body)


def test_no_parameter_every_implementation_accepts_and_none_reads():
    methods = {}
    for rel, tree in modules():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for stmt in cls.body:
                    if isinstance(stmt, ast.FunctionDef) and not is_stub(stmt):
                        methods.setdefault(stmt.name, []).append(
                            (f"{rel}:{cls.name}", stmt))
    write_only = []
    for name, implementations in methods.items():
        if len(implementations) < 2 or name.startswith("__"):
            continue
        shared = set.intersection(*(
            {arg.arg for arg in function.args.args + function.args.kwonlyargs}
            for _owner, function in implementations)) - {"self"}
        read = {node.id for _owner, function in implementations
                for node in ast.walk(function) if isinstance(node, ast.Name)}
        write_only += [(name, param, [owner for owner, _ in implementations])
                       for param in sorted(shared - read)
                       if not param.startswith("_")]
    assert write_only == []


def test_a_channel_is_abandoned_by_close_and_deleted_subsystems_stay_deleted():
    for rel in ("transport/reliability.py", "transport/endpoint.py"):
        names = {getattr(node, field, None)
                 for node in ast.walk(ast.parse((SRC / rel).read_text()))
                 for field in ("id", "attr", "arg", "name")}
        assert not [name for name in names if isinstance(name, str)
                    and ("max_retries" in name or "give_up" in name)], rel
    for rel in ("core/correlate.py", "smc/federation.py",
                "autonomic/telemetry.py"):
        assert not (SRC / rel).exists(), rel


def test_flush_sizing_has_one_owner_and_deleted_hooks_stay_deleted():
    overrides = []
    defined = set()
    for rel, tree in modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "flush_limit"
                    and isinstance(node.ctx, ast.Store)):
                overrides.append((rel, node.lineno))
            if isinstance(node, ast.ClassDef):
                defined.add(node.name)
                overrides += [
                    (rel, stmt.lineno) for stmt in node.body
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                    and "flush_limit" in {
                        target.id for target in
                        (stmt.targets if isinstance(stmt, ast.Assign)
                         else [stmt.target])
                        if isinstance(target, ast.Name)}]
            elif isinstance(node, ast.Assign):
                defined.update(target.id for target in node.targets
                               if isinstance(target, ast.Name))
    assert overrides == [], (
        f"a flush_limit attribute at {overrides}: a payload is sized by "
        f"protocol.flush_limit(window) and the proxy's capacity alone")
    assert not defined & {"FlushController", "FlushTarget",
                          "SimNetworkFaults", "EngineFactory"}


def test_a_peer_has_one_channel_and_a_roam_moves_it():
    deleted = {"move_peer", "channel_addresses", "forget_peer",
               "drain_undelivered", "_parse_address", "ProxyFactory",
               "register_factory"}
    defined = set()
    rekeyers = set()
    for rel, tree in modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for function in cls.body:
                if not isinstance(function, ast.FunctionDef):
                    continue
                removes = stores = False
                for node in ast.walk(function):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "pop"
                            and ast.unparse(node.func.value).endswith(
                                "_channels")):
                        removes = True
                    if (isinstance(node, ast.Subscript)
                            and ast.unparse(node.value).endswith("_channels")):
                        if isinstance(node.ctx, ast.Del):
                            removes = True
                        elif isinstance(node.ctx, ast.Store):
                            stores = True
                if removes and stores:
                    rekeyers.add(f"{rel}:{cls.name}.{function.name}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(target.id for target in node.targets
                               if isinstance(target, ast.Name))
    assert sorted(defined & deleted) == []
    assert rekeyers == {"transport/endpoint.py:PacketEndpoint.learn_peer"}
