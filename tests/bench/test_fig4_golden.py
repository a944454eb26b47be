"""Golden test: the Figure 4 reproduction is byte-for-byte stable.

Figure 4(a) (response time) and 4(b) (throughput, stop-and-wait and the
batched, windowed transport) run in virtual time, so every float they
report is a deterministic function of the code.  The dump below is the
``repr`` of the three results — ``repr`` is the round-trip float form —
and any change to the simulated network, the hosts' cost model, the
transport or the bus that moves a single figure changes its digest.  A
change meant to move Figure 4 updates the digest and says why.
"""

import hashlib

from repro.bench.experiments import PAPER_ENGINES, run_fig4a, run_fig4b

SIZES = (0, 500, 3000)

#: md5 of :func:`fig4_dump`: Figure 4(a), and 4(b) at batch 1 / window 1
#: and at batch 16 / window 8, for both engines.
FIG4_MD5 = "33f4dd724160fb3003e56f9893789179"


def fig4_dump() -> str:
    results = [
        run_fig4a(payload_sizes=SIZES, engines=PAPER_ENGINES),
        run_fig4b(payload_sizes=SIZES, duration_s=10.0,
                  engines=PAPER_ENGINES, batch_size=1, window=1),
        run_fig4b(payload_sizes=SIZES, duration_s=10.0,
                  engines=PAPER_ENGINES, batch_size=16, window=8),
    ]
    return "\n".join(repr(result) for result in results)


def test_fig4_dump_matches_the_golden_digest():
    dump = fig4_dump()
    assert hashlib.md5(dump.encode()).hexdigest() == FIG4_MD5, dump
