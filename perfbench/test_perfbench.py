"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.metrics.collectors import RunResult  # noqa: E402

from perfbench import run  # noqa: E402
from perfbench.measure import LAYERS, LayerProfile, digest, layer_of, percentile  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    MANAGERS,
    N_TRANSACTIONS,
    CallCounter,
    Outcome,
    Table12Closed,
    counted_functions,
    make_script,
)


def test_percentile_refuses_what_its_samples_cannot_support():
    assert percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError, match="p99 needs at least 1000 samples"):
        percentile(list(range(999)), 99)
    assert percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError, match="p90"):
        percentile(list(range(99)), 90)
    assert percentile([3.0] * 20, 50) == 3.0


def _result(makespan_ms: float) -> RunResult:
    return RunResult(
        architecture="logging", makespan_ms=makespan_ms, pages_processed=100,
        mean_completion_ms=50.0, counters={"lock_blocks": 2},
    )


def test_a_perturbed_result_is_a_digest_failure_naming_its_cell():
    label = "parallel-random/logging"
    checker = run.Checker({label: digest(_result(1000.0))})
    checker.outcome(Outcome(label, digest=digest(_result(1000.0))))
    assert (checker.attempted, checker.failed) == (2, 0)
    checker.outcome(Outcome(label, digest=digest(_result(1000.0 + 1e-9))))
    # the repeat differs from the first pass and from the pin
    assert checker.failed == 2
    assert all(problem.startswith(label) for problem in checker.problems)


def test_a_seed_without_pins_still_checks_repeats():
    checker = run.Checker(None)
    checker.outcome(Outcome("cell", digest="a"))
    checker.outcome(Outcome("cell", digest="a"))
    checker.outcome(Outcome("cell", digest="b"))
    assert (checker.attempted, checker.failed) == (5, 1)


@pytest.mark.parametrize(
    "path, layer",
    [
        ("/w/src/repro/sim/core.py", "sim"),
        ("/w/src/repro/storage/modern/redo.py", "storage"),
        ("/w/src/repro/registry.py", "repro"),
        ("/w/src/repro/newpkg/thing.py", "repro"),
        ("/w/perfbench/workloads.py", "harness"),
        ("/usr/lib/python3.11/random.py", "python"),
        ("/w/src/reprolib/sim/core.py", "python"),
        ("<frozen importlib._bootstrap>", "python"),
    ],
)
def test_a_frame_path_maps_to_its_layer(path, layer):
    assert layer_of(path, "/w/src/repro", "/w/perfbench") == layer


def test_benchmark_json_names_every_metric_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_names(
        LAYERS, MANAGERS
    )
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "txn_per_s", "peak_rss_mb"}


def test_the_op_script_is_seeded_and_never_conflicts():
    script = make_script(3)
    assert script == make_script(3) and script != make_script(4)
    held = {}
    crashes = begun = 0
    for op in script:
        if op[0] == "crash":
            crashes += 1
            held.clear()
        elif op[0] == "begin":
            begun += 1
            held[op[1]] = set()
        elif op[0] in ("read", "write"):
            others = set().union(*(p for s, p in held.items() if s != op[1]))
            assert op[2] not in others
            held[op[1]].add(op[2])
        elif op[0] in ("commit", "abort"):
            del held[op[1]]
    assert begun == N_TRANSACTIONS
    # at least 100 recoveries per pass over the managers
    assert crashes * len(MANAGERS) >= 100


def test_both_traced_passes_count_the_same_calls():
    workload = Table12Closed(7)
    cell = workload.items[-1]
    profile = LayerProfile(str(ROOT / "src" / "repro"), str(ROOT / "perfbench"))
    profile.run(lambda: workload.run(cell))
    with CallCounter() as counter:
        workload.run(cell)
    for name, count in counter.counts.items():
        assert profile.calls(counted_functions(name)) == count, name
    assert counter.counts["sim.events"] > 0
    assert sum(profile.self_seconds().values()) <= profile.wall
    # the wrappers are gone again
    assert all(f.__module__.startswith("repro") for f in counted_functions("sim.events"))
