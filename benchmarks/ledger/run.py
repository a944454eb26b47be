#!/usr/bin/env python3
"""The cell's performance ledger: one runner for every number we quote.

    python3 benchmarks/ledger/run.py                      # all six workloads
    python3 benchmarks/ledger/run.py --trace --out L.json # + per-layer budget
    python3 benchmarks/ledger/run.py --workload ward_fanin_udp --seed 7 \\
        --seconds 12 --trace 0                            # what the driver runs
    python3 benchmarks/ledger/run.py --compare A.json B.json

With ``--workload`` the run happens in this process and the last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: every ``end_to_end`` metric of BENCHMARK.json with
``--trace 0``, every ``per_layer`` metric with ``--trace 1``.  Without it,
every workload runs in a fresh subprocess (so ``peak_rss_mb`` is its own)
and the results are tabulated and, with ``--out``, recorded with the
commit's metadata.  See README.md beside this file for what each workload
and metric means.

Exit codes: 0 ok, 2 outputs incorrect, 3 (only with ``--strict``, which
the all-workloads mode passes down) outputs correct but the run invalid
as a measurement: kernel drops, shed backlog, generator could not hold
its rate, backlog growing, trace budget not covering the phase, span
counts off the program's counters.  A disturbed measurement is first
taken again once.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

import repro  # noqa: E402
from repro.core.workers import available_cores  # noqa: E402

from ledger import workloads  # noqa: E402
from ledger.phases import Phase, percentile  # noqa: E402
from ledger.spans import Tracer  # noqa: E402

#: A closed+open measurement disturbed by the box (see validity guards)
#: is taken again on a fresh stack, at most this many times in all: a
#: third try seldom fares better, and the driver's time budget is fixed.
ATTEMPTS = 2
#: ``--trace 1`` runs at this share of the untraced counts.
TRACE_FRACTION = 0.25

EXIT_INCORRECT, EXIT_INVALID = 2, 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- building and measuring ----------------------------------------------------

def stack_module(workload):
    """The module whose ``build_inputs`` and ``Stack`` run ``workload``."""
    if isinstance(workload, workloads.UdpWorkload):
        from ledger import udp_cell
        return udp_cell
    from ledger import rules_bus
    return rules_bus


def build_stacks(workload, inputs, repeats: int):
    """Build ``repeats`` stacks in turn; keep the last, time them all."""
    stack_class = stack_module(workload).Stack
    setups = []
    stack = None
    for _ in range(repeats):
        if stack is not None:
            stack.close()
        stack = stack_class(workload, inputs)
        setups.append(stack.setup_s)
    # Drop the torn-down stacks' garbage, which is the benchmark's, not the
    # cell's.  The collector itself stays as a deployed cell has it.
    gc.collect()
    return stack, setups


def backlog_cap(workload) -> int:
    if isinstance(workload, workloads.UdpWorkload):
        return workload.closed_cap
    return 2 * workload.batch


def validity_problems(workload, opened: Phase | None, counters: dict
                      ) -> list[str]:
    """Why this measurement should not be trusted as a number."""
    problems = []
    if counters.get("rx_drops"):
        problems.append(
            f"transport.udp.rx_drops = {counters['rx_drops']}: the kernel "
            "dropped datagrams at a receive queue")
    if "edge" in counters and counters["edge"].payloads_shed:
        problems.append("deploy.edge.shed_count = "
                        f"{counters['edge'].payloads_shed}")
    if opened is not None:
        # ... and by more than 10 ms, or a 50 ms smoke phase always trips.
        if (opened.achieved_rate < 0.98 * opened.target_rate
                and opened.late_ms[-1] > 10.0):
            problems.append(
                f"open phase achieved {opened.achieved_rate:.1f}/s of "
                f"{opened.target_rate:.1f}/s (< 98 %)")
        if opened.backlog_end > opened.backlog_mid + backlog_cap(workload):
            problems.append(
                f"backlog growing: {opened.backlog_end} unresolved at the "
                f"last due time vs {opened.backlog_mid} at the midpoint")
    return problems


@dataclass
class Measurement:
    """One attempt's phases, counters and verdicts."""

    closed: Phase
    opened: Phase | None
    counters: dict
    join_ms: list[float]
    setups: list[float]
    attempted: int
    failed: int
    notes: list[str]
    problems: list[str]
    tracer: Tracer | None


def measure(workload, inputs, repeats: int, traced: bool = False
            ) -> Measurement:
    """Build a stack, run its phases, check its outputs.

    A measurement the box disturbed (see ``validity_problems``) is taken
    again on a *fresh* stack — a second pass over a warm one would not be
    the same workload (memos filled, sockets' queues primed) — at most
    ATTEMPTS times in all; the last attempt is what gets reported.

    A traced measurement is the closed phase alone: its self times are
    what the per-layer metrics divide, and a traced cell could not hold
    the open phase's rate anyway.
    """
    setups: list[float] = []
    for attempt in range(ATTEMPTS):
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install()
        try:
            stack, times = build_stacks(workload, inputs,
                                        repeats if attempt == 0 else 1)
            setups += times
            try:
                first_span = tracer.count if traced else 0
                closed = stack.run_closed(workload.closed_events)
                opened = None
                if traced:
                    closed.span_range = (first_span, tracer.count)
                else:
                    opened = stack.run_open(workload.open_events,
                                            workload.open_rate)
                counters = stack.counters()
                problems = validity_problems(workload, opened, counters)
                if traced:
                    problems += span_count_problems(tracer, counters)
                attempted, failed, notes = stack.check()
                join_ms = list(stack.join_ms)
            finally:
                stack.close()
        finally:
            if traced:
                tracer.uninstall()
        if failed or not problems or attempt + 1 == ATTEMPTS:
            break
        for problem in problems:
            print(f"# attempt {attempt + 1} invalid: {problem}",
                  file=sys.stderr)
        # The failed attempt's samples must not sit under the next one's
        # peak RSS.
        del stack, closed, opened, counters
        gc.collect()
    return Measurement(closed, opened, counters, join_ms, setups,
                       attempted, failed, notes, problems, tracer)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_untraced(workload, seed: int, factor: float
                 ) -> tuple[dict, Measurement]:
    """One full-count run: the end-to-end values and what backs them."""
    inputs = stack_module(workload).build_inputs(workload, seed)
    repeats = max(1, round(stack_module(workload).SETUP_REPEATS
                           * min(1.0, factor)))
    run = measure(workload, inputs, repeats)
    closed, opened = run.closed, run.opened
    latencies = opened.latencies_ms()
    values = {
        "setup_s": statistics.median(run.setups),
        "goodput_eps": closed.goodput_eps(),
        "cpu_us_per_event": closed.cpu_us_per_event(),
        "deliver_ms_p50": opened.deliver_ms(50),
        "deliver_ms_p90": opened.deliver_ms(90),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"# closed: {closed.events} events, {closed.deliveries} "
          f"deliveries in {closed.wall_s:.3f} s wall / {closed.cpu_s:.3f} s "
          f"cpu; open: {opened.events} events at {opened.achieved_rate:.1f}"
          f"/s, {len(latencies)} latency samples, deliver_ms_p99 "
          f"{percentile(latencies, 99):.3f}, generator late p99 "
          f"{percentile(sorted(opened.late_ms), 99):.3f} ms")
    return values, run


# -- the traced run ------------------------------------------------------------

def self_us(table: dict, *labels: str) -> float:
    return sum(table[label][1] for label in labels if label in table) / 1e3


def calls_of(table: dict, *labels: str) -> int:
    return sum(table[label][0] for label in labels if label in table)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(workload, plain: Phase, plain_open: Phase, traced: Phase,
                 table: dict, counters: dict, join_ms: list[float],
                 coverage: float) -> dict:
    """Every per-layer metric, from the traced closed phase's self-time
    table, the program's own counters and the untraced twin run."""
    events = traced.events
    deliveries = max(1, traced.deliveries)
    per_event = lambda *labels: self_us(table, *labels) / events  # noqa: E731
    channels = counters.get("channels")
    edge = counters.get("edge")
    pool = counters.get("workers", {})
    srtt = counters.get("srtt_ms", [])
    memo_lookups = counters.get("memo_hits", 0) + counters.get("memo_misses", 0)
    churn_ops = events // workload.batch if getattr(workload, "churn", False) \
        else 0
    latencies = plain_open.latencies_ms()
    return {
        "sim.kernel.loop_self_us_per_event": per_event(
            "sim.kernel.run_for", "sim.kernel.run_until_idle"),
        "sim.kernel.idle_share": max(0.0, 1.0 - ratio(plain.cpu_s,
                                                      plain.wall_s)),
        "transport.udp.self_us_per_event": per_event(
            "transport.udp.on_readable", "transport.udp.send"),
        "transport.udp.recv_wakeups_per_event": ratio(
            calls_of(table, "transport.udp.on_readable"), events),
        "transport.udp.rx_drops": counters.get("rx_drops") or 0,
        "transport.udp.wire_bytes_per_event": ratio(plain.wire_bytes,
                                                    plain.events),
        "transport.udp.datagrams_per_event": ratio(plain.datagrams,
                                                   plain.events),
        "transport.endpoint.self_us_per_event": per_event(
            "transport.endpoint.on_datagram",
            "transport.endpoint.send_reliable"),
        "transport.packets.decode_us_per_event": per_event(
            "transport.packets.decode"),
        "transport.packets.encode_us_per_event": per_event(
            "transport.packets.encode"),
        "transport.reliability.self_us_per_event": per_event(
            "transport.reliability.handle_packet",
            "transport.reliability.send"),
        "transport.reliability.retransmit_ratio": ratio(
            channels.retransmissions, channels.sent) if channels else 0.0,
        "transport.reliability.acks_per_data": ratio(
            channels.acks_sent, channels.delivered) if channels else 0.0,
        "transport.reliability.srtt_ms":
            statistics.median(srtt) if srtt else 0.0,
        "transport.reliability.reorder_drops":
            channels.reorder_drops if channels else 0,
        "core.proxy.inbound_self_us_per_event": per_event(
            "core.bootstrap.on_payload", "core.proxy.on_payload"),
        "core.proxy.deliver_self_us_per_delivery": self_us(
            table, "core.proxy.deliver", "core.proxy.deliver_batch")
            / deliveries,
        "core.events.decode_us_per_event": per_event(
            "core.events.decode_event"),
        "core.events.encode_us_per_event": per_event(
            "core.events.write_event", "core.protocol.deliver_frame"),
        "core.protocol.batch_us_per_event": per_event(
            "core.protocol.chunk_frames", "core.protocol.parse_batch"),
        "core.bus.self_us_per_event": per_event(
            "core.bus.publish", "core.bus.publish_batch",
            "core.bus.local_publish_batch", "core.bus.memo_frame"),
        "core.bus.deliver_encodes_per_delivery": ratio(
            calls_of(table, "core.protocol.deliver_frame"),
            calls_of(table, "core.bus.memo_frame")),
        "matching.match_us_per_event": per_event(
            "matching.match", "matching.match_batch_ids"),
        "matching.index_us_per_churn": ratio(self_us(
            table, "matching.subscribe", "matching.unsubscribe"), churn_ops),
        "matching.memo_hit_ratio": ratio(counters.get("memo_hits", 0),
                                         memo_lookups),
        "matching.matches_per_event": ratio(traced.deliveries, events),
        "core.sharding.plan_us_per_event": per_event(
            "core.sharding.build_plans"),
        "core.sharding.merge_us_per_event": per_event(
            "core.sharding.merge_plan_results"),
        "core.workers.execute_wait_us_per_event": per_event(
            "core.workers.execute"),
        "core.workers.ipc_bytes_per_event": ratio(plain.ipc_bytes,
                                                  plain.events),
        "core.workers.inline_fallbacks": pool.get("inline_fallbacks", 0),
        "core.workers.respawns": pool.get("respawns", 0),
        "core.client.publish_self_us_per_event": per_event(
            "core.client.publish", "core.client.publish_batch"),
        "core.client.inbound_self_us_per_delivery": self_us(
            table, "core.client.on_payload") / deliveries,
        "discovery.self_us_per_s": ratio(self_us(
            table, "discovery.agent.on_control",
            "discovery.service.on_control"), traced.wall_s),
        "discovery.join_ms_p50":
            statistics.median(join_ms) if join_ms else 0.0,
        "deploy.edge.quench_count": edge.quench_advisories if edge else 0,
        "deploy.edge.shed_count": edge.payloads_shed if edge else 0,
        "deploy.harness.self_us_per_event": per_event(
            "deploy.harness.publish", "deploy.harness.flush"),
        "deploy.harness.generator_late_ms_p99": percentile(
            sorted(plain_open.late_ms), 99),
        "deploy.harness.deliver_ms_p99": percentile(latencies, 99),
        "deploy.harness.deliver_samples": len(latencies),
        "trace.overhead_ratio": ratio(traced.cpu_us_per_event(),
                                      plain.cpu_us_per_event()),
        "trace.budget_coverage": coverage,
    }


def span_count_problems(tracer: Tracer, counters: dict) -> list[str]:
    """Prove no call site escaped the patches: span counts must equal the
    program's own counters."""
    calls = tracer.calls()
    problems = []
    bus = counters["bus"]
    published = (tracer.sized("core.bus.publish")
                 + tracer.sized("core.bus.publish_batch"))
    if published != bus.published - bus.from_unknown_member:
        problems.append(
            f"publish/publish_batch spans carried {published} events, "
            f"BusStats.published is {bus.published}")
    if "datagrams_received" in counters:
        decodes = calls.get("transport.packets.decode", 0)
        if decodes != counters["datagrams_received"]:
            problems.append(
                f"{decodes} Packet.decode spans, "
                f"{counters['datagrams_received']} datagrams received")
        decoded = calls.get("core.events.decode_event", 0)
        if decoded != counters["events_decoded"]:
            problems.append(
                f"{decoded} decode_event spans, "
                f"{counters['events_decoded']} events decoded by the "
                "proxies and clients")
    return problems


def run_traced(workload, seed: int, trace_out: str | None
               ) -> tuple[dict, Measurement]:
    """Untraced and traced twins at reduced counts -> per-layer values."""
    inputs = stack_module(workload).build_inputs(workload, seed)
    plain = measure(workload, inputs, 1)
    run = measure(workload, inputs, 1, traced=True)
    first, last = run.closed.span_range
    table = run.tracer.budget(first, last)
    # Self times telescope: their sum is the time under root spans.
    coverage = ratio(sum(self_ns for _calls, self_ns, _total in table.values())
                     / 1e9, run.closed.wall_s)
    if not 0.9 <= coverage <= 1.1:
        run.problems.append(f"trace.budget_coverage = {coverage:.3f}, "
                            "outside 0.9-1.1")
    values = layer_values(workload, plain.closed, plain.opened, run.closed,
                          table, run.counters, run.join_ms, coverage)
    if trace_out:
        run.tracer.write(trace_out, table)
    run.attempted += plain.attempted
    run.failed += plain.failed
    run.notes += plain.notes
    run.problems += plain.problems
    return values, run


# -- one workload, the driver's contract ---------------------------------------

def pin_to_one_cpu() -> None:
    """Keep this process (and the match worker it spawns) on one CPU.

    Every workload is one thread, or a host that blocks while its one
    worker matches, so nothing is lost — and where the kernel places and
    migrates the two is the largest noise we can remove: unpinned,
    ``rules_pool_inproc`` segments dip from ~2300 to ~1650 events/s now
    and then; pinned they do not.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):           # not Linux / not permitted
        pass


def run_workload(args, spec: dict) -> int:
    base = workloads.BY_NAME.get(args.workload)
    if base is None:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.BY_NAME)}", file=sys.stderr)
        return 64
    pin_to_one_cpu()
    factor = args.seconds / workloads.RUN_SECONDS
    if args.trace:
        workload = workloads.scaled(base, factor * TRACE_FRACTION)
        values, run = run_traced(workload, args.seed, args.trace_out)
        declared = spec["per_layer"]
    else:
        workload = workloads.scaled(base, factor)
        values, run = run_untraced(workload, args.seed, factor)
        declared = spec["end_to_end"]

    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{workload.name} {metric['name']} {value:.6g} "
              f"{metric['unit']}")
    for note in run.notes:
        print(f"# INCORRECT: {note}", file=sys.stderr)
    for problem in run.problems:
        print(f"# INVALID: {problem}", file=sys.stderr)
    attempted = max(1, run.attempted)
    print(f"{workload.name} delivery_failed_ratio "
          f"{run.failed / attempted:.6g} ratio "
          f"({run.failed} of {attempted})")
    print(json.dumps({"correct": not run.failed, "attempted": attempted,
                      "failed": run.failed, "metrics": metrics}))
    if run.failed:
        return EXIT_INCORRECT
    return EXIT_INVALID if run.problems and args.strict else 0


# -- all workloads, recorded ---------------------------------------------------

def metadata(args) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    src_lines = 0
    for path in (ROOT / "src").rglob("*.py"):
        with open(path, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "available_cores": available_cores(),
            "seed": args.seed, "runs": args.runs, "seconds": args.seconds,
            "src_lines": src_lines, "public_names": len(repro.__all__)}


def run_all(args, spec: dict) -> int:
    """Every workload in its own subprocess; tabulate and record."""
    meta = metadata(args)
    print("# " + " ".join(f"{key}={value}" for key, value in meta.items()))
    runs = []
    worst = 0
    for workload in spec["workloads"]:
        for run in range(args.runs):
            for trace in ((0, 1) if args.trace else (0,)):
                command = [sys.executable, str(HERE / "run.py"),
                           "--workload", workload["name"],
                           "--seed", str(args.seed + run),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace), "--strict"]
                if trace and args.trace_out:
                    command += ["--trace-out",
                                f"{args.trace_out}.{workload['name']}.json"]
                done = subprocess.run(command, capture_output=True, text=True,
                                      timeout=900)
                sys.stderr.write(done.stderr)
                lines = done.stdout.strip().splitlines()
                for line in lines[:-1]:
                    print(line)
                worst = max(worst, done.returncode)
                if done.returncode not in (0, EXIT_INCORRECT, EXIT_INVALID):
                    print(f"# {workload['name']} exited "
                          f"{done.returncode}", file=sys.stderr)
                    continue
                runs.append({"workload": workload["name"],
                             "seed": args.seed + run, "trace": trace,
                             "exit": done.returncode,
                             **json.loads(lines[-1])})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "runs": runs}, handle, indent=1)
    return worst


# -- comparing two recorded sets -----------------------------------------------

def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(metric: dict, before: list[float], after: list[float]
            ) -> tuple[str, float]:
    """(better | within-bound | worse | unresolved, signed change).

    The change is the relative move of the median in the *worse*
    direction.  Where either side's own spread exceeds the bound the
    medians cannot settle it: only a clean separation of every run counts.
    """
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base = statistics.median(before)
    change = sign * (statistics.median(after) - base) / abs(base)
    noise = max(spread(before), spread(after))
    all_better = all(sign * (b - a) < 0 for a in before for b in after)
    all_worse = all(sign * (b - a) > 0 for a in before for b in after)
    if noise > metric["bound"]:
        if all_better:
            return "better", change
        if all_worse and change > metric["bound"]:
            return "worse", change
        return "unresolved", change
    if change > metric["bound"]:
        return "worse", change
    if change < -max(noise, 1e-9) and all_better:
        return "better", change
    return "within-bound", change


def compare(paths: list[str], spec: dict) -> int:
    """One row per workload: each end-to-end metric of B judged against A."""
    sets = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            sets.append([run for run in json.load(handle)["runs"]
                         if not run["trace"]])
    print(f"# B = {paths[1]} against A = {paths[0]}; the percentage is the "
          "move of B's median in the metric's *worse* direction")
    worse = 0
    for workload in spec["workloads"]:
        cells = []
        for metric in spec["end_to_end"]:
            before, after = ([run["metrics"][metric["name"]]["value"]
                              for run in runs
                              if run["workload"] == workload["name"]]
                             for runs in sets)
            if not before or not after:
                cells.append(f"{metric['name']}=missing")
                continue
            word, change = verdict(metric, before, after)
            worse += word == "worse"
            cells.append(f"{metric['name']}={word}({change:+.1%})")
        print(f"{workload['name']}: " + " ".join(cells))
    return 1 if worse else 0


# -- leaving nothing behind ----------------------------------------------------

def stop_child_processes(grace_s: float = 5.0) -> None:
    """Stop and reap everything this process started, on every way out.

    ``Stack.close`` stops the match worker, but ``multiprocessing``'s spawn
    start method also starts a *resource tracker* that by design lives
    until this process's end closes its pipe — so it ends *after* us and
    the caller sees a process outliving the run.  Stop it here and wait
    for it, after any worker an interrupted run left behind.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(grace_s)
        if proc.is_alive():
            proc.kill()
            proc.join()
    # The tracker has no public stop; ``_stop`` (CPython 3.8+) closes its
    # pipe and waits for its exit.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run this one workload here")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(workloads.RUN_SECONDS),
                        help="scale every event count by SECONDS / "
                             f"{workloads.RUN_SECONDS}")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="per-layer metrics from a "
                        "traced run at a quarter of the counts")
    parser.add_argument("--trace-out", help="write spans and the self-time "
                        "table here (per workload without --workload)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 3 when the measurement stayed invalid "
                             "(without it: warn on stderr, exit 0)")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds SEED..SEED+RUNS-1")
    parser.add_argument("--out", help="record every run with metadata")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(args.compare, spec)
    if args.workload:
        return run_workload(args, spec)
    return run_all(args, spec)


def _on_sigterm(_signum, _frame) -> None:
    raise SystemExit(143)                       # unwind through the finallys


if __name__ == "__main__":
    import signal
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        code = main()
    finally:
        stop_child_processes()
    sys.exit(code)
