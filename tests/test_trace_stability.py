"""Fault-free same-seed traces are byte-identical across PRs.

The repo's determinism contract: adding a subsystem (here, the integrity
layer) must not perturb a corruption-free run — every random draw comes
from a named stream, the ``corrupt`` stream is created lazily, and the
scrubber is off by default.  These md5 constants were captured from the
pre-integrity tree; a mismatch means some new code drew from (or
reordered) a shared stream on the clean path.

If a future PR *intentionally* changes the simulation (new spans, new
timing), regenerate the constants with the recipe in ``_trace_hash`` and
say so in that PR's description.
"""

import hashlib
import json

import pytest

from repro import (
    DatabaseMachine,
    MachineConfig,
    WorkloadConfig,
    generate_transactions,
)
from repro.loadgen import ArrivalConfig, generate_arrivals
from repro.loadgen.arrivals import Spike
from repro.loadgen.runner import sim_architecture
from repro.registry import REGISTRY, machine_overrides
from repro.sim import RandomStreams
from repro.trace import Tracer, to_chrome_trace

#: md5 of the sorted chrome-trace JSON, captured before the integrity PR.
EXPECTED = {
    "bare": "48a10a9ed96f2f85331d4911ef5bed82",
    "wal": "dbf5fa0deb5fba295a02b302a2bd325f",
    "shadow": "adece3afc70690e98ba77f78e3f9bc37",
    "versions": "1c37e76f462fcb750570b1e3565358d3",
    "overwrite": "c252443afbb71b5b461f1baca02d9a6b",
    "differential": "27ad4d3230c0b29627c11bb73b00f941",
    "command": "baa9c94f11f453e14f885ea5ab8e7869",
    "redo": "b18f2c7f7bc9ed00655b8d812df14113",
}


def _trace_hash(name: str) -> str:
    config = MachineConfig(seed=1985, mpl=2, **machine_overrides(name))
    transactions = generate_transactions(
        WorkloadConfig(n_transactions=6, max_pages=30),
        config.db_pages,
        RandomStreams(1985).stream("workload"),
    )
    machine = DatabaseMachine(config, REGISTRY[name].sim(), tracer=Tracer())
    machine.run(transactions)
    blob = json.dumps(to_chrome_trace(machine.tracer), sort_keys=True).encode()
    return hashlib.md5(blob).hexdigest()


def test_registry_covered():
    assert set(EXPECTED) == set(REGISTRY), "new architecture: add its hash"


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fault_free_trace_unchanged(name):
    assert _trace_hash(name) == EXPECTED[name]


#: md5 of the sorted chrome-trace JSON of one overloaded open-system run,
#: captured before the recorder was cut to one call per record.
OPEN_EXPECTED = "e66bd7ff934b98caa7f20ba39d57780c"
#: Closed-batch capacity of ``wal`` on the loadgen workload (tps).
WAL_CAPACITY_TPS = 1.702


def _open_run(tracer):
    """``wal`` under bursty arrivals at 2x capacity with a scripted spike.

    Tight admission knobs make this one run exercise every admission
    outcome: enqueue, reject (backpressure turns retries away fast),
    shed (queue-full waits outlast the deadline), backpressure on/off
    and the spike marker.
    """
    schedule = generate_arrivals(
        ArrivalConfig(
            process="bursty",
            rate_tps=2.0 * WAL_CAPACITY_TPS,
            n_arrivals=60,
            spikes=(Spike(start_ms=2_000.0, duration_ms=1_000.0, multiplier=3.0),),
        ),
        RandomStreams(1985).fork("arrivals"),
    )
    config = MachineConfig(
        seed=1985,
        admission_policy="block",
        admission_block_timeout_ms=100.0,
        admission_queue_limit=4,
        admission_deadline_ms=300.0,
        backpressure_cache_high=0.5,
        backpressure_cache_low=0.25,
        **machine_overrides("wal"),
    )
    transactions = generate_transactions(
        WorkloadConfig(n_transactions=schedule.offered, max_pages=30),
        config.db_pages,
        RandomStreams(7).stream("workload"),
    )
    machine = DatabaseMachine(config, sim_architecture("wal"), tracer=tracer)
    return machine.run_open(
        transactions, schedule.times_ms, spike_times_ms=schedule.spike_starts_ms
    )


def test_open_load_trace_unchanged():
    tracer = Tracer()
    _open_run(tracer)
    names = {mark.name for mark in tracer.instants}
    assert {
        "admission.enqueue",
        "admission.reject",
        "admission.shed",
        "backpressure.on",
        "backpressure.off",
        "arrival.spike",
    } <= names
    blob = json.dumps(to_chrome_trace(tracer), sort_keys=True).encode()
    assert hashlib.md5(blob).hexdigest() == OPEN_EXPECTED


def test_open_load_tracing_does_not_perturb():
    assert _open_run(Tracer()) == _open_run(None)
