"""Tier-1 smoke for the ledger: every workload, both modes, 1/200 counts.

Pins the contract between BENCHMARK.json and the runner (every declared
metric is printed, with its declared unit, by every workload) and the
seeded generators (same seed -> same bytes).  It asserts nothing about
the *values*: at these counts they are noise.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.events import Event, encode_event
from repro.ids import service_id_from_name
from repro.matching.engine import make_engine
from repro.matching.filters import Subscription, encode_filter

from ledger import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
SENDER = service_id_from_name("ledger-smoke")


def test_benchmark_json_names_the_runner_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == [
        w.name for w in workloads.WORKLOADS]
    assert SPEC["run_seconds"] == workloads.RUN_SECONDS
    assert SPEC["paths"] == ["benchmarks/ledger"]


@pytest.mark.parametrize("workload", [w.name for w in workloads.WORKLOADS])
def test_workload_prints_every_declared_metric(workload):
    # Both modes at once: nothing below depends on the measured values.
    started = [(section, subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", str(SPEC["run_seconds"] / 200),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
        for trace, section in ((0, "end_to_end"), (1, "per_layer"))]
    finished = [(section, process, *process.communicate(timeout=120))
                for section, process in started]
    for section, process, stdout, stderr in finished:
        assert process.returncode == 0, stderr
        result = json.loads(stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert result["failed"] == 0, stderr        # delivery_failed_ratio
        assert result["correct"] is True
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
        for metric in SPEC[section]:
            reported = result["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))
            assert f"{workload} {metric['name']} " in stdout


def _encoded_packs(seed, floats):
    return [encode_event(Event(workloads.PACK_TYPE, pack, SENDER, index + 1,
                               0.0))
            for index, pack in enumerate(
                workloads.vitals_packs(seed, 200, floats))]


def _encoded_rules(seed, floats, label="table"):
    return [encode_filter(rule)
            for rule in workloads.alarm_rules(seed, 500, floats, label)]


@pytest.mark.parametrize("floats", [False, True])
def test_same_seed_same_bytes_other_seed_other_bytes(floats):
    assert _encoded_packs(3, floats) == _encoded_packs(3, floats)
    assert _encoded_packs(3, floats) != _encoded_packs(4, floats)
    assert _encoded_rules(3, floats) == _encoded_rules(3, floats)
    assert _encoded_rules(3, floats) != _encoded_rules(4, floats)
    assert _encoded_rules(3, floats) != _encoded_rules(3, floats, "churn")
    name = "ward_fanin_udp"
    assert (workloads.heart_rates(3, name, 500)
            == workloads.heart_rates(3, name, 500)
            != workloads.heart_rates(4, name, 500))
    assert (workloads.frame_payloads(3, name, 100)
            == workloads.frame_payloads(3, name, 100)
            != workloads.frame_payloads(4, name, 100))


@pytest.mark.parametrize("floats", [False, True])
def test_rule_table_matches_a_realistic_handful_per_pack(floats):
    engine = make_engine("forwarding")
    for index, rule in enumerate(workloads.alarm_rules(9, 10_000, floats)):
        engine.subscribe(Subscription(index + 1, SENDER, [rule]))
    packs = workloads.vitals_packs(9, 400, floats)
    matched = engine.match_batch_ids(packs)
    assert 2 <= sum(map(len, matched)) / len(packs) <= 32
