"""PERF — simulator throughput: the fast-path speedup assertions.

Three measurements (no pytest-benchmark dependency — the CI perf-smoke
job runs this file with plain pytest):

* the live DES kernel versus the frozen pre-optimisation kernel
  (:mod:`repro.perf.slowkernel`), raced back-to-back in one process —
  the tentpole ``>=2x`` events/sec claim;
* the absolute throughput suite (events/sec, opcodes/sec, packets/sec)
  with generous sanity floors;
* the regression guard against the committed ``BENCH_perf.json``.
  Raw events/sec is host-dependent, so the guard compares the
  *host-independent* number: the live-vs-reference speedup ratio now
  versus when the baseline was committed.  A >25% drop in that ratio
  means the kernel itself lost events/sec, not that CI got a slower
  machine.
"""

import json
from functools import lru_cache
from pathlib import Path

from repro.perf import des_speedup_vs_reference, throughput_suite

BENCH_PERF = Path(__file__).resolve().parents[1] / "BENCH_perf.json"


@lru_cache(maxsize=None)
def _speedup(workload: str) -> dict:
    return des_speedup_vs_reference(n=60_000, rounds=25, workload=workload)


def test_des_events_per_sec_at_least_2x(show):
    result = _speedup("chain")
    show(
        f"DES chain: live {result['live_per_sec']:,.0f} ev/s vs "
        f"reference {result['ref_per_sec']:,.0f} ev/s -> "
        f"{result['speedup']:.2f}x"
    )
    assert result["speedup"] >= 2.0


def test_des_process_lifecycle_speedup(show):
    # Spawn/park/complete is where the messenger layers spend their
    # time; the fast path must win there too, not just on the pure
    # event loop.
    result = _speedup("mixed")
    show(
        f"DES mixed: live {result['live_per_sec']:,.0f} ev/s vs "
        f"reference {result['ref_per_sec']:,.0f} ev/s -> "
        f"{result['speedup']:.2f}x"
    )
    assert result["speedup"] >= 1.6


def test_throughput_suite_floors(show):
    suite = throughput_suite(scale=0.25, repeats=3)
    for name, probe in sorted(suite.items()):
        show(f"{name:<14} {probe['per_sec']:>12,.0f}/s  (n={probe['n']})")
    # Deliberately loose floors — they catch catastrophic regressions
    # (an accidental O(n^2) or a debug path left on), not host speed.
    assert suite["des_events"]["per_sec"] > 200_000
    assert suite["store_events"]["per_sec"] > 150_000
    assert suite["vm_opcodes"]["per_sec"] > 1_000_000
    assert suite["net_packets"]["per_sec"] > 5_000


def test_no_regression_vs_committed_baseline(show):
    committed = json.loads(BENCH_PERF.read_text())
    recorded = committed["current"]["speedup_vs_reference"]
    for workload in ("chain", "mixed"):
        measured = _speedup(workload)["speedup"]
        pinned = recorded[workload]["speedup"]
        show(
            f"{workload}: speedup vs reference {measured:.2f}x "
            f"(committed {pinned:.2f}x)"
        )
        assert measured >= 0.75 * pinned, (
            f"{workload}: events/sec regressed >25% against the "
            f"committed BENCH_perf.json baseline "
            f"({measured:.2f}x vs {pinned:.2f}x)"
        )
