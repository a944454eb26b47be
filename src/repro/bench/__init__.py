"""Benchmark harness: regenerates the paper's evaluation (Section V).

The harness rebuilds the paper's testbed in simulation — the event bus on
an iPAQ-profile host, publisher and subscriber services on a laptop-profile
host, joined by a USB-IP link calibrated to the paper's quoted link numbers
— and sweeps the same parameters the paper swept:

* :func:`~repro.bench.experiments.run_fig4a` — end-to-end response time vs
  payload size, Siena-based bus vs "C-based" (forwarding) bus (Fig 4a);
* :func:`~repro.bench.experiments.run_fig4b` — sustained throughput vs
  payload size, both buses (Fig 4b);
* :func:`~repro.bench.experiments.run_link_baseline` — the in-text link
  numbers: 1.5 ms average latency (0.6-2.3 ms band) and ~575 KB/s raw
  throughput;

plus ablations beyond the paper (fan-out, loss, quenching, discovery
timing, the windowed transport, the autonomic loops, the lifecycle).
``examples/fig4_reproduction.py`` and the pytest benchmarks under
``benchmarks/`` are thin wrappers over these functions.
"""

from repro.bench.experiments import (
    run_discovery_timing,
    run_fanout,
    run_fig4a,
    run_fig4b,
    run_link_baseline,
    run_loss_sweep,
    run_quench_experiment,
)
from repro.bench.reporting import format_series_table, format_table
from repro.bench.testbed import PaperTestbed, build_paper_testbed

__all__ = [
    "PaperTestbed",
    "build_paper_testbed",
    "run_fig4a",
    "run_fig4b",
    "run_link_baseline",
    "run_fanout",
    "run_loss_sweep",
    "run_quench_experiment",
    "run_discovery_timing",
    "format_table",
    "format_series_table",
]
