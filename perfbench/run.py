"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table12_closed --seed 1985 --seconds 30 --trace 0

``--trace 0`` times the workload with no tracing and prints the end-to-end
metrics; ``--trace 1`` runs one untraced pass and two passes under the
layer tracer and prints the per-layer metrics.  Every metric is printed as
a ``name value unit`` line; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when any output was wrong and 2 when there is no program to measure.

``--pin`` re-pins the simulated-output digests of the shipped seeds
(a change to the model does this in its own benchmark change).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "digests.json"

WORKLOAD_NAMES = ("table12_closed", "open_traced", "crash_recover")
#: The default seed (the experiments' own machine seed), and the one held
#: back while tuning; the simulated outputs of both are pinned for the
#: workloads below.
DEFAULT_SEED = 1985
HELD_OUT_SEED = 2026
PINNED_WORKLOADS = ("table12_closed", "open_traced")
#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 7

#: Units of the per-layer metrics that are not a layer's ``self_s``.
LAYER_UNITS = {
    "sim.events": "count",
    "sim.events_per_page": "events/page",
    "sim.processes": "count",
    "sim.timeouts": "count",
    "sim.resource_requests": "count",
    "machine.lock_acquires": "count",
    "machine.lock_blocked_frac": "frac",
    "machine.cache_acquires": "count",
    "machine.qp_acquires": "count",
    "machine.admission_reject_frac": "frac",
    "hardware.disk_requests": "count",
    "hardware.pages_per_disk_request": "pages/request",
    "hardware.link_transfers": "count",
    "core.writebacks": "count",
    "core.commits": "count",
    "trace.spans": "count",
    "trace.instants": "count",
    "trace.self_frac": "frac",
    "integrity.checksums": "count",
    "integrity.checksums_per_txn": "checksums/txn",
    "checkpoint.takes": "count",
    "checkpoint.s": "s",
    "checkpoint.skipped_frac": "frac",
    "bench.trace_overhead_frac": "frac",
    "bench.self_time_coverage": "frac",
    "bench.error_rate": "frac",
    "sim_ms_per_page": "ms",
    "sim_completion_ms": "ms",
    "paper_rel_err": "frac",
    "sim_goodput_tps": "tps",
    "sim_sojourn_ms_p99": "ms",
    "txn_ms_p50": "ms",
    "txn_ms_p99": "ms",
    "recover_ms_p50": "ms",
    "recover_ms_p90": "ms",
}
MANAGER_UNITS = {"txn_s": "s", "recover_s": "s", "records_read_per_append": "reads/append"}


def per_layer_names(layers, managers) -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {f"{layer}.self_s": "s" for layer in layers}
    names.update(LAYER_UNITS)
    for arch in managers:
        for metric, unit in MANAGER_UNITS.items():
            names[f"storage.{arch}.{metric}"] = unit
    return names


class Checker:
    """Counts checked operations and the ones that came out wrong."""

    def __init__(self, pins: Optional[Dict[str, str]]):
        self.pins = pins
        self.first: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def expect(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def outcome(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        if outcome.digest is None:
            return
        first = self.first.get(outcome.label)
        if first is None:
            self.first[outcome.label] = outcome.digest
        else:
            self.expect(
                first == outcome.digest,
                f"{outcome.label}: output {outcome.digest} differs from this "
                f"run's first {first}",
            )
        if self.pins is not None:
            pinned = self.pins.get(outcome.label)
            self.expect(
                pinned == outcome.digest,
                f"{outcome.label}: output {outcome.digest} != pinned {pinned}",
            )


def run_item(workload, item):
    from perfbench.workloads import Outcome

    gc.collect()
    start = time.perf_counter()
    try:
        outcome = workload.run(item)
    except Exception:  # the program under test failed: a failed operation
        label = getattr(item, "label", str(item))
        outcome = Outcome(label, failed=1, problems=[
            f"{label}: raised\n{traceback.format_exc(limit=-4)}"
        ])
    outcome.seconds = time.perf_counter() - start
    return outcome


def run_pass(workload, checker: Checker) -> list:
    outcomes = [run_item(workload, item) for item in workload.items]
    for outcome in outcomes:
        checker.outcome(outcome)
    return outcomes


def setup_probe(workload: str, seed: int) -> float:
    """Import the workload's modules and build every item, in this fresh
    interpreter; return the host seconds scaled to the reference speed."""
    from perfbench.measure import REFERENCE_SECONDS, reference_seconds

    before = reference_seconds()
    start = time.perf_counter()
    from perfbench.workloads import WORKLOADS

    built = WORKLOADS[workload](seed)
    for item in built.items:
        built.build(item)
    seconds = time.perf_counter() - start
    return seconds * REFERENCE_SECONDS / ((before + reference_seconds()) / 2)


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of imports plus building every item."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(probe.stdout.split()[-1]))
    return statistics.median(samples)


def summary(workload, outcomes, checker: Checker) -> Dict[str, Tuple[float, str]]:
    if any(o.data is None for o in outcomes):
        return {}
    try:
        return workload.summary(outcomes)
    except ValueError as exc:  # a percentile the samples cannot support
        checker.expect(False, f"{workload.name}: {exc}")
        return {}


def timed_run(workload, seconds: float, checker: Checker):
    """Go round the items until ``seconds`` have passed (at least one whole
    pass); return the timed metrics and the first pass's summary."""
    from perfbench.measure import REFERENCE_SECONDS, median_sum, peak_rss_mb, reference_seconds

    items = workload.items
    outcomes = []
    times: Dict[str, List[float]] = {}
    transactions: Dict[str, int] = {}
    before = reference_seconds()
    deadline = time.perf_counter() + seconds
    while len(outcomes) < len(items) or time.perf_counter() < deadline:
        outcome = run_item(workload, items[len(outcomes) % len(items)])
        after = reference_seconds()
        checker.outcome(outcome)
        outcomes.append(outcome)
        scale = REFERENCE_SECONDS / ((before + after) / 2)
        times.setdefault(outcome.label, []).append(outcome.seconds * scale)
        transactions[outcome.label] = outcome.transactions
        before = after
    metrics = {
        "txn_per_s": (sum(transactions.values()) / median_sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = summary(workload, outcomes[: len(items)], checker)
    return metrics, info


def traced_run(workload, checker: Checker) -> Dict[str, Tuple[float, str]]:
    """One untraced pass, one pass under the profiler (self time per layer
    and call counts) and one under counting wrappers; the two traced
    passes must count exactly the same work."""
    from perfbench.measure import COVERAGE_SLACK, LAYERS, LayerProfile
    from perfbench.workloads import COUNTED, MANAGERS, CallCounter, counted_functions

    import repro

    untraced = run_pass(workload, checker)
    untraced_wall = sum(o.seconds for o in untraced)
    profile = LayerProfile(os.path.dirname(repro.__file__), str(HERE))
    profile.run(lambda: run_pass(workload, checker))
    counts = {name: profile.calls(counted_functions(name)) for name in COUNTED}
    with CallCounter() as counter:
        run_pass(workload, checker)
    changed = sorted(k for k in counts if counts[k] != counter.counts[k])
    checker.expect(
        not changed,
        f"{workload.name}: work counts differ between two traced passes: "
        + ", ".join(f"{k} {counts[k]} vs {counter.counts[k]}" for k in changed),
    )
    self_s = profile.self_seconds()
    coverage = sum(self_s.values()) / profile.wall
    low, high = COVERAGE_SLACK
    checker.expect(
        low <= coverage <= high,
        f"{workload.name}: layer self times cover {coverage:.3f} of the "
        f"traced wall-clock, outside [{low}, {high}]",
    )

    units = per_layer_names(LAYERS, MANAGERS)
    values: Dict[str, float] = dict.fromkeys(units, 0.0)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
    values.update(counts)
    results = [r for r in map(workload.result_of, untraced) if r is not None]
    pages = sum(r.pages_processed for r in results)
    transactions = sum(o.transactions for o in untraced)
    offered = sum(r.counter("admission_offered") for r in results)
    values["sim.events_per_page"] = _ratio(counts["sim.events"], pages)
    values["machine.lock_blocked_frac"] = _ratio(
        sum(r.counter("lock_blocks") for r in results), counts["machine.lock_acquires"]
    )
    values["machine.admission_reject_frac"] = _ratio(
        sum(r.counter("admission_rejected") for r in results), offered
    )
    values["hardware.pages_per_disk_request"] = _ratio(
        counter.disk_pages, counts["hardware.disk_requests"]
    )
    values["core.commits"] = transactions if results else 0
    values["trace.self_frac"] = self_s["trace"] / sum(self_s.values())
    values["integrity.checksums_per_txn"] = _ratio(
        counts["integrity.checksums"], transactions
    )
    values["bench.trace_overhead_frac"] = profile.wall / untraced_wall - 1.0
    values["bench.self_time_coverage"] = coverage
    values.update(workload.layer_metrics(untraced))
    for name, (value, _unit) in summary(workload, untraced, checker).items():
        values[name] = value
    values["bench.error_rate"] = checker.failed / checker.attempted
    return {name: (values[name], unit) for name, unit in units.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def load_pins(workload: str, seed: int) -> Optional[Dict[str, str]]:
    if workload not in PINNED_WORKLOADS or seed not in (DEFAULT_SEED, HELD_OUT_SEED):
        return None
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    return pins.get(workload, {}).get(str(seed), {})


def pin() -> int:
    """Re-pin the digests of every pinned workload at the shipped seeds."""
    from perfbench.workloads import WORKLOADS

    pins: Dict[str, Dict[str, Dict[str, str]]] = {}
    for name in PINNED_WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            checker = Checker(None)
            outcomes = run_pass(WORKLOADS[name](seed), checker)
            if checker.failed:
                print("\n".join(checker.problems), file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = {o.label: o.digest for o in outcomes}
            print(f"pinned {name} seed {seed}: {len(outcomes)} digests")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default="table12_closed")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    if args.pin:
        return pin()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    checker = Checker(load_pins(args.workload, args.seed))
    if args.trace:
        metrics = traced_run(workload(args.seed), checker)
    else:
        setup = setup_seconds(args.workload, args.seed)
        metrics, info = timed_run(workload(args.seed), args.seconds, checker)
        metrics = {"setup_s": (setup, "s"), **metrics}
        for name, (value, unit) in info.items():
            print(f"{name} {value:.6g} {unit} (not gated)")
    for problem in checker.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {checker.failed / max(checker.attempted, 1):.6g} frac "
          f"({checker.failed} of {checker.attempted} operations failed)")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
