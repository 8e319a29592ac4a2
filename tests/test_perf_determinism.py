"""Fast path changes no simulated result bit.

The golden digests below pin the kernel's exact event schedule.  They
were first captured with the *pre-optimisation* kernel (commit d15be66)
and re-pinned once, when the inline hop path stopped spawning a process
per CPU, wire and queue hand-off: that removed bookkeeping events
(process start-ups, resource grants, zero-waiter puts) but no simulated
result, as ``tests/test_hop_path_observables.py`` proves on the
Messenger journeys, outputs and cost ledger.  Every other optimisation
must reproduce them exactly:

* the **trace hash** folds every executed event — time, priority,
  event id, daemon flag, event type — in execution order, so it pins
  the entire schedule including every clock value;
* the **result hash** is a 128-bit digest of the raw result array
  bytes (Mandelbrot image / matmul product);
* the **fault counters** pin the lossy-transport behaviour under an
  armed :class:`~repro.faults.FaultPlan`.

Also here: the MCL VM's fast dispatch must agree with its preserved
counting interpreter, instrumented runs must agree with plain runs,
and a ``repro.bench.sweep`` pool must agree with the serial loop.
"""

import json
from hashlib import blake2b

from repro.apps.mandelbrot.kernel import TaskGrid
from repro.apps.mandelbrot.messengers_app import run_messengers
from repro.apps.mandelbrot.pvm_app import run_pvm
from repro.apps.matmul.kernel import make_matrices
from repro.apps.matmul.messengers_app import run_messengers as run_matmul
from repro.faults import FaultPlan
from repro.perf import hashing_all_simulators

#: name -> (trace digest, events executed, result-bytes digest)
GOLDEN = {
    "mandelbrot_messengers": (
        "18db2b0dd0eaf18066ae2ac5158d5151", 327,
        "39c6f88e0a32c8eede71db1286d32e74",
    ),
    "mandelbrot_pvm": (
        "0dd18754e0a59c192cc8a1833254851e", 332,
        "39c6f88e0a32c8eede71db1286d32e74",
    ),
    "mandelbrot_messengers_lossy": (
        "21abe692fd8f89632edc4b6896d9ad3f", 737, None,
    ),
    "mandelbrot_pvm_lossy": (
        "48e67bae4dd93b90607cfb266e3b87c1", 670, None,
    ),
    "matmul_messengers_2x2": (
        "bb54bf4a3e5a65987005524dd7c0f23f", 261,
        "fbe52d7374df5502044ad556af3d2f9c",
    ),
    "mandelbrot_messengers_big": (
        "2d85f219c9852729e662ca9564215eaa", 1181,
        "b3a189507f335e9af830b4d90aa79d16",
    ),
    "mandelbrot_pvm_big": (
        "a1ba99b0d920000f47042409845d5f75", 1305,
        "b3a189507f335e9af830b4d90aa79d16",
    ),
}

GRID = TaskGrid(64, 4)
PROCS = 3


def _digest(raw: bytes) -> str:
    return blake2b(raw, digest_size=16).hexdigest()


def _check(name, fn, result_bytes):
    trace, events, result_hash = GOLDEN[name]
    with hashing_all_simulators() as hasher:
        result = fn()
    assert hasher.hexdigest() == trace, f"{name}: trace diverged"
    assert hasher.events == events, f"{name}: event count diverged"
    if result_hash is not None:
        assert _digest(result_bytes(result)) == result_hash, (
            f"{name}: result bytes diverged"
        )
    return result


class TestGoldenTraces:
    def test_mandelbrot_messengers(self):
        result = _check(
            "mandelbrot_messengers",
            lambda: run_messengers(GRID, PROCS),
            lambda r: r.image.tobytes(),
        )
        # The trace hash already folds every event time; the final
        # clock is pinned directly too for a readable failure.
        assert result.seconds == 0.146332096

    def test_mandelbrot_pvm(self):
        result = _check(
            "mandelbrot_pvm",
            lambda: run_pvm(GRID, PROCS),
            lambda r: r.image.tobytes(),
        )
        assert result.seconds == 0.43461549999999993

    def test_mandelbrot_messengers_lossy(self):
        result = _check(
            "mandelbrot_messengers_lossy",
            lambda: run_messengers(
                GRID, PROCS, faults=FaultPlan().drop(0.05), seed=7
            ),
            lambda r: r.image.tobytes(),
        )
        assert dict(sorted(result.stats["faults"].items())) == {
            "acks_sent": 38, "packets_dropped": 2, "retransmits": 2,
        }
        # Loss slows the run down but never corrupts the answer.
        assert _digest(result.image.tobytes()) == GOLDEN[
            "mandelbrot_messengers"
        ][2]

    def test_mandelbrot_pvm_lossy(self):
        result = _check(
            "mandelbrot_pvm_lossy",
            lambda: run_pvm(
                GRID, PROCS, faults=FaultPlan().drop(0.05), seed=7
            ),
            lambda r: r.image.tobytes(),
        )
        assert dict(sorted(result.stats["faults"].items())) == {
            "acks_sent": 32, "packets_dropped": 2, "retransmits": 2,
        }
        assert _digest(result.image.tobytes()) == GOLDEN[
            "mandelbrot_pvm"
        ][2]

    def test_matmul_messengers_2x2(self):
        a, b = make_matrices(60, seed=0)
        _check(
            "matmul_messengers_2x2",
            lambda: run_matmul(a, b, 2),
            lambda r: r.c.tobytes(),
        )

    def test_mandelbrot_big(self):
        grid = TaskGrid(128, 8)
        _check(
            "mandelbrot_messengers_big",
            lambda: run_messengers(grid, 5),
            lambda r: r.image.tobytes(),
        )
        _check(
            "mandelbrot_pvm_big",
            lambda: run_pvm(grid, 5),
            lambda r: r.image.tobytes(),
        )


class TestVMFastPathIdentity:
    """The int-opcode fast dispatch and the preserved string-dispatch
    counting loop are the same interpreter."""

    SOURCE = """
    f(n) {
        i = 0;
        acc = 0;
        while (i < n) {
            acc = acc + i * 2 - (i % 3);
            if (acc > 5000) { acc = acc - 5000; }
            i = i + 1;
        }
        return acc;
    }
    """

    def _run(self, opcounts):
        from repro.messengers.mcl.compiler import compile_source
        from repro.messengers.mcl.vm import Frame, run

        program = compile_source(self.SOURCE, "f")
        variables = {"n": 500}
        command = run(
            Frame(program),
            variables,
            {},
            lambda name: 0,
            lambda name, args: 0,
            max_instructions=1_000_000,
            opcounts=opcounts,
        )
        return command, variables

    def test_fast_matches_counting(self):
        fast_cmd, fast_vars = self._run(opcounts=None)
        counts: dict = {}
        slow_cmd, slow_vars = self._run(opcounts=counts)
        assert type(fast_cmd) is type(slow_cmd)
        assert fast_cmd.instructions == slow_cmd.instructions
        assert fast_vars == slow_vars
        # The per-opcode histogram accounts for every instruction.
        assert sum(counts.values()) == slow_cmd.instructions


class TestInstrumentationIdentity:
    """Observability hooks may slow a run down, never change it."""

    def test_metrics_run_matches_plain_run(self):
        from repro.obs import MetricsRegistry

        plain = run_messengers(GRID, PROCS)
        metered = run_messengers(
            GRID, PROCS, metrics=MetricsRegistry(opcode_counts=True)
        )
        assert metered.seconds == plain.seconds
        assert metered.image.tobytes() == plain.image.tobytes()


class TestSweepPoolIdentity:
    """A 4-process pool returns exactly what the serial loop returns."""

    def test_seed_sweep_pool_matches_serial(self):
        from repro.bench.sweep import seed_sweep_experiment

        experiment = seed_sweep_experiment()  # 2 systems x 4 seeds
        assert len(experiment.replications) >= 8
        serial = experiment.run(processes=1)
        pooled = experiment.run(processes=4)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )

    def test_loss_sweep_pool_matches_serial(self):
        from repro.bench import run_loss_sweep

        kwargs = dict(image_size=64, grid_size=4, procs=3)
        serial = run_loss_sweep(**kwargs)
        pooled = run_loss_sweep(**kwargs, processes=3)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )

    def test_duplicate_replication_ids_rejected(self):
        import pytest

        from repro.bench.sweep import Replication, run_replications

        with pytest.raises(ValueError):
            run_replications(
                len, [Replication(rid=1), Replication(rid=1)]
            )
