"""Kernel order: seeded random programs pin the exact resume sequence.

Every simulated output in this repository rests on the kernel resuming
processes in one exact order: by time, then priority, then insertion.
Resources and containers decide who is granted first, and composite
events decide what value a waiter sees.  These tests build seeded random
programs that mix timeouts (zero delays included, so same-instant ties
are common), manual events, ``Resource`` requests and releases,
``Container`` gets, puts and eventless releases, ``all_of``/``any_of``,
joins and interrupts.  Each program logs ``(now, process, value)`` at
every resume, and the md5 of that log is pinned.

A kernel change that is meant to be exact (a fast path, an inlined
schedule) must leave every md5 unchanged.  A mismatch means the change
reordered same-instant events, granted a waiter out of turn, or changed
what a process was resumed with.
"""

import hashlib

import pytest

from repro.sim import Container, Environment, Interrupt, RandomStreams, Resource

#: seed -> (md5 of the resume log, number of log lines).
EXPECTED = {
    1: ("6e2e37b404063f436cc0ef4abf3812d5", 103),
    2: ("aa55a0a5b3c4e159e3491f759d7c46c5", 110),
    3: ("65864c2507e363e772f3be60aeb21c86", 149),
    1985: ("ebe58b2adadcf37a04e4b900e9d704b3", 140),
    2026: ("bc5494e44209699908575cbe86f9809d", 111),
}

DELAYS = (0.0, 0.0, 0.5, 1.0, 2.5)


def _resume_log(seed: int, n_procs: int = 16, steps: int = 30):
    rng = RandomStreams(seed).stream("kernel-order")
    env = Environment()
    pool = Resource(env, capacity=2)
    frames = Container(env, capacity=6, init=3)
    tank = Container(env, capacity=3, init=0)
    gates = [env.event() for _ in range(3)]
    procs = []
    #: Only a started process with no interrupt already on its way is
    #: interrupted: the kernel detaches a victim from its target when the
    #: interrupt is sent, not when it is delivered.
    started = set()
    interrupted = set()
    log = []

    def note(name, value):
        log.append(f"{env.now!r} {name} {value!r}")

    def ticker():
        # Fires the manual gates on a fixed beat and re-arms them.
        for beat in range(steps):
            yield env.timeout(1.5)
            index = beat % len(gates)
            gate, gates[index] = gates[index], env.event()
            gate.succeed(f"gate{index}@{beat}")
            note("ticker", beat)

    def worker(name, plan):
        started.add(name)
        for op, arg in plan:
            try:
                if op == "timeout":
                    got = yield env.timeout(DELAYS[arg % len(DELAYS)], value=arg)
                elif op == "gate":
                    got = yield gates[arg % len(gates)]
                elif op == "resource":
                    with pool.request() as req:
                        yield req
                        note(name, "granted")
                        got = yield env.timeout(DELAYS[arg % len(DELAYS)], value="held")
                elif op == "frames":
                    amount = 1 + arg % 2
                    yield frames.get(amount)
                    note(name, ("frames", frames.level))
                    yield env.timeout(DELAYS[arg % len(DELAYS)])
                    if arg % 3:
                        frames.release(amount)
                        got = frames.level
                    else:
                        got = yield frames.put(amount)
                elif op == "produce":
                    got = yield tank.put(1 + arg % 2)
                elif op == "consume":
                    got = yield tank.get(1 + arg % 2)
                elif op == "all_of":
                    got = yield env.all_of(
                        [env.timeout(DELAYS[arg % 5], value="a"),
                         env.timeout(DELAYS[(arg + 2) % 5], value="b")]
                    )
                    got = sorted(got.values())
                elif op == "any_of":
                    got = yield env.any_of(
                        [env.timeout(DELAYS[arg % 5], value="t"),
                         gates[arg % len(gates)]]
                    )
                    got = sorted(got.values())
                elif op == "join":
                    other = procs[arg % len(procs)]
                    if other.name == name:
                        continue
                    got = yield other
                else:  # "interrupt"
                    other = procs[arg % len(procs)]
                    if (other.name == name or not other.is_alive
                            or other.name not in started
                            or other.name in interrupted):
                        continue
                    interrupted.add(other.name)
                    other.interrupt(f"{name}->{other.name}")
                    got = "sent"
                note(name, (op, got))
            except Interrupt as exc:
                interrupted.discard(name)
                note(name, ("interrupted", op, exc.cause))
        return name

    ops = ("timeout", "timeout", "gate", "resource", "frames", "produce",
           "consume", "all_of", "any_of", "join", "interrupt")
    env.process(ticker(), name="ticker")
    for index in range(n_procs):
        plan = [
            (ops[rng.randrange(len(ops))], rng.randrange(1000))
            for _ in range(rng.randrange(4, 12))
        ]
        procs.append(env.process(worker(f"p{index}", plan), name=f"p{index}"))
    env.run()
    note("end", (pool.count, frames.level, tank.level))
    return log


@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_resume_log_pinned(seed):
    log = _resume_log(seed)
    digest = hashlib.md5("\n".join(log).encode()).hexdigest()
    assert (digest, len(log)) == EXPECTED[seed]


def test_programs_exercise_the_kernel():
    """The pinned programs are not vacuous: every kind of resume happens."""
    text = "\n".join(line for seed in sorted(EXPECTED) for line in _resume_log(seed))
    for needle in ("'timeout'", "'gate'", "'granted'", "'frames'", "'produce'",
                   "'consume'", "'all_of'", "'any_of'", "'join'", "'interrupted'"):
        assert needle in text, needle
