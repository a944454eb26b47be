"""The repro-lint rules: this codebase's hard-won invariants, as ASTs.

Each rule encodes a bug class a past PR actually hit (``python -m
repro.analysis --list-rules`` prints the catalogue).  Rules are deliberately
scoped by path pattern to the modules where the invariant is load-bearing,
and every deliberate exception in the tree carries a
``# repro-lint: ignore[RLxxx]`` suppression with a one-line justification.

==========  ==============================================================
rule id     invariant
==========  ==============================================================
RL001       wall-clock discipline: simulated-path code never reads the
            real clock or sleeps — only the scheduler clock (PR 6's
            "deaf broadcast socket" bug class: code that works on the
            virtual clock and silently fails on real timers).
RL002       serial arithmetic: seq/ack ordering in ``transport/`` goes
            through the RFC-1982 helpers, never raw ``<``/``>``/``-``
            (PR 2's 2^32 wraparound misclassification bug class).
RL003       zero-copy hot path: no ``bytes()`` materialisation, byte
            ``+``-concatenation or byte-join off the send boundary in the
            wire/packet/bus dispatch modules (PR 5's copy-per-layer bug
            class); ``encode*`` functions are the designated join points.
RL004       codec symmetry: every ``write_X`` has a ``decode_X`` sibling
            (``encode_X`` is derived from the writer, so it cannot
            drift), and every BusOp opcode appears in the protocol
            module's opcode table (drift between the codec faces is how
            decoders rot).
RL005       fork safety: no pickle import reachable from the worker-pool
            hot path, and every socket created in the deployment layer is
            ``set_inheritable(False)`` (PR 7's spawn-clean worker rules).
==========  ==============================================================
"""

from __future__ import annotations

import ast
import re

from typing import Iterator

from repro.analysis.engine import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    dotted_name,
    identifier_segments,
    matches_any,
)


# ---------------------------------------------------------------------------
# RL001 — wall-clock discipline
# ---------------------------------------------------------------------------

#: Call targets that read the real clock or block on it.
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "time.sleep",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: ``from time import <these>`` is flagged at the import itself: once the
#: bare name escapes into a variable the call sites are unresolvable.
_WALL_CLOCK_FROM_TIME = frozenset({
    name.split(".", 1)[1] for name in _WALL_CLOCK_CALLS
    if name.startswith("time.")
})

#: Paths where wall-clock time is the point, not a bug.
_RL001_EXEMPT = (
    "sim/kernel.py",        # RealtimeScheduler is *the* wall-clock seam
    "deploy/",              # real sockets, real timers by design
    "benchmarks/",          # wall-clock measurement harnesses
    "examples/",            # demos run on real time
    "tests/",               # test timeouts and harness plumbing
    "conftest.py",
    "setup.py",
)


class _AliasTracker(ast.NodeVisitor):
    """Shared import-alias resolution for call-site rules."""

    def __init__(self) -> None:
        #: local name -> canonical dotted prefix it stands for.
        self.aliases: dict[str, str] = {}

    def record_import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0])

    def record_import_from(self, node: ast.ImportFrom) -> None:
        if node.module is None:
            return
        for alias in node.names:
            self.aliases[alias.asname or alias.name] = (
                f"{node.module}.{alias.name}")

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted name of a call target, through import aliases."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        first, _, rest = dotted.partition(".")
        canonical = self.aliases.get(first)
        if canonical is None:
            return None
        return f"{canonical}.{rest}" if rest else canonical


class WallClockRule(Rule):
    """RL001: simulated-path code must use the scheduler clock."""

    rule_id = "RL001"
    title = "wall-clock discipline (scheduler clock only)"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if matches_any(module.rel, _RL001_EXEMPT):
            return
        tracker = _AliasTracker()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                tracker.record_import(node)
            elif isinstance(node, ast.ImportFrom):
                tracker.record_import_from(node)
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _WALL_CLOCK_FROM_TIME:
                            yield self.finding(
                                module, node,
                                f"wall-clock import 'from time import "
                                f"{alias.name}' outside the real-time "
                                f"layers; use the scheduler clock")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = tracker.resolve(node.func)
            if canonical in _WALL_CLOCK_CALLS:
                yield self.finding(
                    module, node,
                    f"wall-clock call {canonical}() outside the real-time "
                    f"layers; use the scheduler clock (Scheduler.now / "
                    f"call_later)")


# ---------------------------------------------------------------------------
# RL002 — RFC-1982 serial arithmetic on sequence numbers
# ---------------------------------------------------------------------------

_RL002_SCOPE = ("transport/",)
_SEQ_SEGMENTS = frozenset({"seq", "seqs", "seqno", "ack"})
_ORDERING_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _is_seqish(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    return bool(_SEQ_SEGMENTS & set(identifier_segments(name)))


def _is_bound_constant(node: ast.AST) -> bool:
    """Int literals and UPPER_CASE constants: range checks, not ordering."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.operand, ast.Constant):
        return isinstance(node.operand.value, int)
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    return name is not None and name.isupper()


class SerialArithmeticRule(Rule):
    """RL002: raw ordering/subtraction on seq/ack names in transport/."""

    rule_id = "RL002"
    title = "RFC-1982 serial arithmetic for seq/ack math"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not matches_any(module.rel, _RL002_SCOPE):
            return
        yield from self._walk(module, module.tree, in_serial_helper=False)

    def _walk(self, module: ModuleInfo, node: ast.AST, *,
              in_serial_helper: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                helper = in_serial_helper or child.name.startswith("serial_")
                yield from self._walk(module, child, in_serial_helper=helper)
                continue
            if not in_serial_helper:
                if isinstance(child, ast.Compare):
                    yield from self._check_compare(module, child)
                elif (isinstance(child, ast.BinOp)
                        and isinstance(child.op, ast.Sub)):
                    yield from self._check_sub(module, child)
            yield from self._walk(module, child,
                                  in_serial_helper=in_serial_helper)

    def _check_compare(self, module: ModuleInfo,
                       node: ast.Compare) -> Iterator[Finding]:
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, _ORDERING_OPS):
                continue
            left, right = operands[index], operands[index + 1]
            if _is_bound_constant(left) or _is_bound_constant(right):
                continue                      # range validation, not ordering
            if _is_seqish(left) or _is_seqish(right):
                yield self.finding(
                    module, node,
                    "raw ordering comparison on a sequence-number value; "
                    "use serial_lt/serial_leq (RFC 1982) — raw compares "
                    "misclassify at the 2^32 wrap")

    def _check_sub(self, module: ModuleInfo,
                   node: ast.BinOp) -> Iterator[Finding]:
        if _is_bound_constant(node.left) or _is_bound_constant(node.right):
            return
        if _is_seqish(node.left) or _is_seqish(node.right):
            yield self.finding(
                module, node,
                "raw subtraction on a sequence-number value; distances "
                "must be computed in serial space (RFC 1982)")


# ---------------------------------------------------------------------------
# RL003 — zero-copy hot path
# ---------------------------------------------------------------------------

_RL003_SCOPE = ("transport/wire.py", "transport/packets.py", "core/bus.py")
#: Attribute calls that produce fresh byte buffers.
_BYTE_PRODUCER_ATTRS = frozenset({"pack", "to_bytes", "to_bytes48", "tobytes"})


def _is_byte_producer(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, bytes):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id.startswith("encode_"):
            return True
        if isinstance(func, ast.Attribute):
            if func.attr in _BYTE_PRODUCER_ATTRS or func.attr.startswith(
                    "encode_"):
                return True
            if func.attr == "join" and _is_byte_producer(func.value):
                return True
    return False


class ZeroCopyRule(Rule):
    """RL003: copies stay at the designated encode/send boundary."""

    rule_id = "RL003"
    title = "zero-copy hot path (join once, at the send boundary)"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not matches_any(module.rel, _RL003_SCOPE):
            return
        yield from self._walk(module, module.tree, in_function=False,
                              at_boundary=False)

    def _walk(self, module: ModuleInfo, node: ast.AST, *, in_function: bool,
              at_boundary: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                boundary = (at_boundary
                            or child.name.lstrip("_").startswith("encode"))
                yield from self._walk(module, child, in_function=True,
                                      at_boundary=boundary)
                continue
            if in_function and not at_boundary:
                yield from self._check_node(module, child)
            yield from self._walk(module, child, in_function=in_function,
                                  at_boundary=at_boundary)

    def _check_node(self, module: ModuleInfo,
                    node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "bytes"
                    and len(node.args) == 1
                    and not isinstance(node.args[0],
                                       (ast.Tuple, ast.List, ast.Constant))):
                yield self.finding(
                    module, node,
                    "bytes() materialisation off the send boundary; pass "
                    "buffers through or append chunks to a write_* list")
            elif (isinstance(func, ast.Attribute) and func.attr == "join"
                    and isinstance(func.value, ast.Constant)
                    and isinstance(func.value.value, bytes)):
                yield self.finding(
                    module, node,
                    "byte join off the send boundary; only encode*/send "
                    "functions may join — stack chunks instead")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            if _is_byte_producer(node.left) or _is_byte_producer(node.right):
                yield self.finding(
                    module, node,
                    "byte concatenation off the send boundary; append "
                    "chunks to a write_* list instead of copying")
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            if _is_byte_producer(node.value):
                yield self.finding(
                    module, node,
                    "byte concatenation off the send boundary; append "
                    "chunks to a write_* list instead of copying")


# ---------------------------------------------------------------------------
# RL004 — codec symmetry
# ---------------------------------------------------------------------------

_RL004_SCOPE = ("transport/wire.py", "core/events.py", "matching/plan.py",
                "matching/filters.py")
#: (module pattern, enum class) pairs whose members must appear in the
#: module docstring's opcode table.
_OPCODE_TABLES = (("core/protocol.py", "BusOp"),
                  ("transport/packets.py", "PacketType"))


class CodecSymmetryRule(Rule):
    """RL004: write_X implies decode_X, opcodes stay documented."""

    rule_id = "RL004"
    title = "codec symmetry (write/decode pairs, opcode table)"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if matches_any(module.rel, _RL004_SCOPE):
            yield from self._check_pairs(module)
        for pattern, class_name in _OPCODE_TABLES:
            if matches_any(module.rel, (pattern,)):
                yield from self._check_opcode_table(module, class_name)

    def _check_pairs(self, module: ModuleInfo) -> Iterator[Finding]:
        functions = {node.name: node for node in module.tree.body
                     if isinstance(node, ast.FunctionDef)}
        for name, node in functions.items():
            if not name.startswith("write_"):
                continue
            sibling = f"decode_{name[len('write_'):]}"
            if sibling not in functions:
                yield self.finding(
                    module, node,
                    f"{name} has no {sibling} sibling; the wire codec "
                    f"keeps every zero-copy writer in lockstep with a "
                    f"symmetric decoder")

    def _check_opcode_table(self, module: ModuleInfo,
                            class_name: str) -> Iterator[Finding]:
        docstring = ast.get_docstring(module.tree) or ""
        for node in module.tree.body:
            if not (isinstance(node, ast.ClassDef)
                    and node.name == class_name):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    if (isinstance(target, ast.Name)
                            and not target.id.startswith("_")
                            and not re.search(
                                rf"\b{re.escape(target.id)}\b", docstring)):
                        yield self.finding(
                            module, stmt,
                            f"opcode {class_name}.{target.id} is missing "
                            f"from the module docstring's opcode table; "
                            f"document its wire body before shipping it")


# ---------------------------------------------------------------------------
# RL005 — fork safety
# ---------------------------------------------------------------------------

#: Modules whose transitive (repo-internal) import closure must stay
#: pickle-free: everything a worker process replays on its hot path.
_RL005_ROOTS = ("core/workers.py", "matching/plan.py")
_PICKLE_MODULES = frozenset({"pickle", "cPickle", "dill", "cloudpickle"})
#: Where sockets must be created non-inheritable.
_RL005_SOCKET_SCOPE = ("deploy/", "transport/udp.py")


def _imported_modules(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """Every (dotted module, import node) a module references."""
    out: list[tuple[str, ast.stmt]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.name, node))
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.append((node.module, node))
            for alias in node.names:
                # ``from pkg import mod`` may name a submodule.
                out.append((f"{node.module}.{alias.name}", node))
    return out


def _resolve_internal(project: Project, dotted: str) -> ModuleInfo | None:
    """Map a dotted import onto an analyzed file, if it names one.

    Tries progressively shorter tails so ``repro.matching.plan`` resolves
    both over the real tree (``src/repro/matching/plan.py``) and over a
    fixture tree rooted below the package (``matching/plan.py``).
    """
    parts = dotted.split(".")
    for start in range(len(parts)):
        tail = parts[start:]
        if not tail:
            break
        for suffix in ("/".join(tail) + ".py",
                       "/".join(tail) + "/__init__.py"):
            matches = project.by_pattern(suffix)
            if len(matches) == 1:
                return matches[0]
    return None


class ForkSafetyRule(Rule):
    """RL005: pickle-free worker hot path, non-inheritable sockets."""

    rule_id = "RL005"
    title = "fork safety (no pickle on the worker path, fds stay private)"

    def check_project(self, project: Project) -> Iterator[Finding]:
        roots = [module for module in project.modules
                 if matches_any(module.rel, _RL005_ROOTS)]
        seen: set[str] = set()
        queue: list[tuple[ModuleInfo, str]] = [
            (root, root.rel) for root in roots]
        while queue:
            module, chain = queue.pop(0)
            if module.path in seen:
                continue
            seen.add(module.path)
            for dotted, node in _imported_modules(module.tree):
                if dotted.split(".")[0] in _PICKLE_MODULES:
                    yield self.finding(
                        module, node,
                        f"pickle-family import ({dotted}) reachable from "
                        f"the worker hot path via {chain}; everything "
                        f"crossing the worker pipe must use the TLV codec")
                    continue
                target = _resolve_internal(project, dotted)
                if target is not None and target.path not in seen:
                    queue.append((target, f"{chain} -> {target.rel}"))

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not matches_any(module.rel, _RL005_SOCKET_SCOPE):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _check_function(self, module: ModuleInfo,
                        func: ast.FunctionDef | ast.AsyncFunctionDef,
                        ) -> Iterator[Finding]:
        creations: list[tuple[str | None, ast.AST]] = []
        protected: set[str] = set()
        assigned_calls: set[int] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                if (isinstance(node.value, ast.Call)
                        and dotted_name(node.value.func) == "socket.socket"):
                    assigned_calls.add(id(node.value))
                    creations.append((dotted_name(node.targets[0]),
                                      node.value))
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            if (dotted_name(node.func) == "socket.socket"
                    and id(node) not in assigned_calls):
                # Anonymous socket: nothing can set_inheritable on it.
                creations.append((None, node))
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "set_inheritable"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is False):
                receiver = dotted_name(node.func.value)
                if receiver is not None:
                    protected.add(receiver)
        for target, node in creations:
            if target is None or target not in protected:
                yield self.finding(
                    module, node,
                    "socket created without set_inheritable(False) in the "
                    "same function; spawned workers must not inherit fds "
                    "(PEP 446 belt-and-braces)")


ALL_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    SerialArithmeticRule(),
    ZeroCopyRule(),
    CodecSymmetryRule(),
    ForkSafetyRule(),
)
