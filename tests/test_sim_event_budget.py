"""Event budget: exact calendar-event counts of one small closed batch.

The simulator's cost is mostly the number of events it processes, and a
same-seed run processes exactly the same events every time.  So each
registered architecture runs one small seeded closed batch, on
conventional and on parallel-access data disks, and the number of
``Environment.step`` calls is pinned exactly.  A change that adds or
drops events on the per-page path shows up here as a reviewed edit to
these numbers (the simulated outputs themselves are pinned elsewhere).

Returning cache frames and prefetch-window slots is eventless
(``Container.release``): no ``ContainerPut`` may reach the calendar.
"""

import pytest

from repro import (
    DatabaseMachine,
    MachineConfig,
    WorkloadConfig,
    generate_transactions,
)
from repro.registry import REGISTRY, machine_overrides
from repro.sim import Environment, RandomStreams
from repro.sim.resources import ContainerPut

#: name -> (events on conventional disks, events on parallel-access disks).
EXPECTED_EVENTS = {
    "bare": (1135, 1129),
    "command": (1384, 1378),
    "differential": (1259, 1254),
    "overwrite": (1298, 1265),
    "redo": (1395, 1391),
    "shadow": (1554, 1551),
    "versions": (1136, 1130),
    "wal": (1383, 1378),
}


def test_registry_covered():
    assert set(EXPECTED_EVENTS) == set(REGISTRY), "new architecture: pin its budget"


@pytest.fixture
def counts(monkeypatch):
    tally = {"events": 0, "container_puts": 0}
    step = Environment.step
    put_init = ContainerPut.__init__

    def counted_step(env):
        tally["events"] += 1
        step(env)

    def counted_put_init(evt, env, amount):
        tally["container_puts"] += 1
        put_init(evt, env, amount)

    monkeypatch.setattr(Environment, "step", counted_step)
    monkeypatch.setattr(ContainerPut, "__init__", counted_put_init)
    return tally


@pytest.mark.parametrize("parallel", [False, True], ids=["conventional", "parallel"])
@pytest.mark.parametrize("name", sorted(EXPECTED_EVENTS))
def test_event_budget(name, parallel, counts):
    config = MachineConfig(
        seed=1985, mpl=2, parallel_data_disks=parallel, **machine_overrides(name)
    )
    transactions = generate_transactions(
        WorkloadConfig(n_transactions=6, max_pages=30),
        config.db_pages,
        RandomStreams(1985).stream("workload"),
    )
    result = DatabaseMachine(config, REGISTRY[name].sim()).run(transactions)
    assert result.pages_processed == 134
    assert counts["container_puts"] == 0
    assert counts["events"] == EXPECTED_EVENTS[name][parallel]
