"""Bench guard: the disabled fast path must stay near-zero cost.

The instrumentation calls left in hot loops (``counter_add`` in
``sample_neighbors``, ``span`` in the trainer) execute millions
of times in a full run, so the disabled path is budgeted per call here
with deliberately generous bounds — this guards against accidentally
making the no-op path allocate or lock, not against CI noise.
"""

import time

from repro import obs

CALLS = 50_000
# Generous per-call ceilings (seconds): a regression to dict-building or
# registry lookups on the disabled path blows these by 10x+.
DISABLED_BUDGET_S = 5e-6
ENABLED_BUDGET_S = 120e-6


def _per_call(fn, calls=CALLS):
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def test_disabled_counter_is_cheap():
    assert not obs.metrics_enabled()
    per_call = _per_call(lambda: obs.counter_add("guard.counter", 3))
    assert per_call < DISABLED_BUDGET_S, f"{per_call * 1e9:.0f}ns per disabled call"


def test_disabled_span_is_cheap():
    assert not obs.tracing_enabled()

    def op():
        with obs.span("guard.span"):
            pass

    per_call = _per_call(op)
    assert per_call < DISABLED_BUDGET_S, f"{per_call * 1e9:.0f}ns per disabled call"


def test_disabled_observe_value_is_cheap():
    per_call = _per_call(lambda: obs.observe_value("guard.hist", 1.0))
    assert per_call < DISABLED_BUDGET_S


def test_disabled_heartbeat_is_cheap():
    assert not obs.monitoring_enabled()
    per_call = _per_call(lambda: obs.heartbeat("guard.progress", 1, 10))
    assert per_call < DISABLED_BUDGET_S


def test_enabled_observe_value_is_bounded():
    # Log-bucketing (frexp + dict update) must stay near-free relative
    # to the numpy work the sample describes.
    with obs.observe():
        per_call = _per_call(lambda: obs.observe_value("h", 3.7), calls=10_000)
    assert per_call < ENABLED_BUDGET_S


def test_enabled_paths_are_bounded():
    # Sanity ceiling only: enabled instrumentation must stay far below
    # the cost of the numpy work it wraps.
    with obs.observe():
        counter = _per_call(lambda: obs.counter_add("c", 1), calls=10_000)

        def op():
            with obs.span("s"):
                pass

        spans = _per_call(op, calls=10_000)
    assert counter < ENABLED_BUDGET_S
    assert spans < ENABLED_BUDGET_S
