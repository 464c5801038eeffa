"""Unit tests for background workers and job settlement."""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.sim.clock import SimClock
from repro.sim.executor import Executor, advance, drain_all


@pytest.fixture
def executor():
    return Executor(SimClock())


def test_worker_is_created_once(executor):
    a = executor.worker("w")
    b = executor.worker("w")
    assert a is b
    assert len(executor.workers) == 1


def test_submit_returns_job_with_times(executor):
    job = executor.submit(executor.worker("w"), 2.0, name="j")
    assert job.start == 0.0
    assert job.end == 2.0
    assert not job.done


def test_jobs_on_one_worker_serialize(executor):
    worker = executor.worker("w")
    first = executor.submit(worker, 1.0)
    second = executor.submit(worker, 1.0)
    assert second.start == first.end
    assert second.end == 2.0


def test_jobs_on_different_workers_overlap(executor):
    a = executor.submit(executor.worker("a"), 1.0)
    b = executor.submit(executor.worker("b"), 1.0)
    assert a.start == b.start == 0.0


def test_job_starts_no_earlier_than_clock(executor):
    executor.clock.advance(5.0)
    job = executor.submit(executor.worker("w"), 1.0)
    assert job.start == 5.0


def test_negative_duration_rejected(executor):
    worker = executor.worker("w")
    for duration in (-1.0, float("nan"), math.inf):
        with pytest.raises(ValueError):
            executor.submit(worker, duration)
    assert worker.busy_until == 0.0


def test_settle_applies_only_completed_jobs(executor):
    fired = []
    executor.submit(executor.worker("w"), 1.0, lambda: fired.append(1))
    executor.submit(executor.worker("w"), 1.0, lambda: fired.append(2))
    executor.clock.advance(1.0)
    executor.settle()
    assert fired == [1]
    executor.clock.advance(1.0)
    executor.settle()
    assert fired == [1, 2]


def test_settle_order_is_completion_order(executor):
    fired = []
    executor.submit(executor.worker("slow"), 3.0, lambda: fired.append("slow"))
    executor.submit(executor.worker("fast"), 1.0, lambda: fired.append("fast"))
    executor.clock.advance(10.0)
    executor.settle()
    assert fired == ["fast", "slow"]


def test_settle_drains_cascading_jobs(executor):
    fired = []

    def first():
        fired.append("first")
        executor.submit(executor.worker("w2"), 0.0, lambda: fired.append("second"))

    executor.submit(executor.worker("w"), 1.0, first)
    executor.clock.advance(1.0)
    executor.settle()
    assert fired == ["first", "second"]


def test_wait_for_advances_clock_and_reports_stall(executor):
    job = executor.submit(executor.worker("w"), 2.0)
    stall = executor.wait_for(job)
    assert stall == 2.0
    assert executor.clock.now == 2.0
    assert job.done


def test_wait_for_completed_job_is_free(executor):
    job = executor.submit(executor.worker("w"), 1.0)
    executor.clock.advance(5.0)
    executor.settle()
    assert executor.wait_for(job) == 0.0


def test_drain_runs_everything(executor):
    fired = []
    for i in range(5):
        executor.submit(executor.worker("w"), 1.0, lambda i=i: fired.append(i))
    end = executor.drain()
    assert fired == [0, 1, 2, 3, 4]
    assert end == 5.0
    assert executor.pending == 0


def test_next_due(executor):
    assert executor.next_due == math.inf
    executor.submit(executor.worker("w"), 2.5)
    assert executor.next_due == 2.5
    executor.submit(executor.worker("x"), 1.0)
    assert executor.next_due == 1.0
    executor.clock.advance(1.0)
    assert executor.settle() == 1
    assert executor.next_due == 2.5


durations = st.sampled_from([0.0, 0.5, 1.0, 2.5])
workers = st.integers(0, 2)
scripts = st.lists(
    st.one_of(
        # A job, and maybe one its callback submits while being settled.
        st.tuples(
            st.just("submit"), workers, durations,
            st.none() | st.tuples(workers, durations),
        ),
        st.tuples(st.just("settle"), durations),
        st.just(("drain",)),
        st.just(("crash_reset",)),
    ),
    max_size=40,
)


@given(scripts)
# The callback's job ends at the horizon (settled in the same call) ...
@example([("submit", 0, 1.0, (1, 0.0)), ("settle", 1.0)])
# ... and after it (left pending).
@example([("submit", 0, 1.0, (1, 2.5)), ("settle", 1.0)])
def test_next_due_is_the_earliest_pending_end(script):
    executor = Executor(SimClock())
    jobs = []  # everything submitted since the last crash_reset

    def check():
        ends = [job.end for job in jobs if not job.done]
        assert executor.next_due == min(ends, default=math.inf)

    def submit(worker, duration, then=None):
        def done():
            check()  # mid-settle: the job being applied is no longer due
            if then is not None:
                submit(*then)

        jobs.append(executor.submit(executor.worker(f"w{worker}"), duration, done))

    for action in script:
        if action[0] == "submit":
            submit(*action[1:])
        elif action[0] == "settle":
            executor.clock.advance(action[1])
            executor.settle()
            assert executor.next_due > executor.clock.now
        elif action[0] == "drain":
            executor.drain()
            assert executor.next_due == math.inf
        else:
            executor.crash_reset()
            jobs.clear()
        check()


def test_crash_reset_drops_pending_jobs(executor):
    fired = []
    executor.submit(executor.worker("w"), 1.0, lambda: fired.append(1))
    assert executor.crash_reset() == 1
    executor.clock.advance(10.0)
    executor.settle()
    assert fired == []
    assert executor.pending == 0


def test_crash_reset_frees_workers(executor):
    worker = executor.worker("w")
    executor.submit(worker, 10.0)
    executor.crash_reset()
    assert worker.busy_until == executor.clock.now
    job = executor.submit(worker, 1.0)
    assert job.start == executor.clock.now


def test_crash_reset_leaves_heap_usable(executor):
    fired = []
    executor.submit(executor.worker("w"), 5.0, lambda: fired.append("old"))
    executor.crash_reset()
    assert executor.next_due == math.inf
    # Post-reboot work schedules, peeks, and settles normally.
    job = executor.submit(executor.worker("w"), 1.0, lambda: fired.append("new"))
    assert executor.next_due == job.end
    end = executor.drain()
    assert fired == ["new"]
    assert end == job.end
    assert executor.pending == 0


def _shared_clock_pair():
    clock = SimClock()
    return clock, [Executor(clock), Executor(clock)]


def test_advance_jumps_to_the_earliest_end_and_settles_both_in_order():
    clock, (a, b) = _shared_clock_pair()
    fired = []
    a.submit(a.worker("w"), 2.0, lambda: fired.append("a"))
    b.submit(b.worker("w"), 2.0, lambda: fired.append("b"))
    b.submit(b.worker("x"), 3.0, lambda: fired.append("b-late"))
    assert advance([a, b])
    assert clock.now == 2.0
    assert fired == ["a", "b"]
    assert advance([a, b])
    assert clock.now == 3.0
    assert fired == ["a", "b", "b-late"]


def test_advance_on_idle_executors_leaves_the_clock_unmoved():
    clock, executors = _shared_clock_pair()
    clock.advance(4.0)
    assert not advance(executors)
    assert clock.now == 4.0


def test_drain_all_drains_the_first_executor_before_the_second():
    clock, (a, b) = _shared_clock_pair()
    fired = []
    a.submit(a.worker("w"), 5.0, lambda: fired.append(("a", clock.now)))
    b.submit(b.worker("w"), 1.0, lambda: fired.append(("b", clock.now)))

    def hand_off():
        # b's callback gives a, already drained, new work: another pass.
        fired.append(("b2", clock.now))
        a.submit(a.worker("w"), 1.0, lambda: fired.append(("a2", clock.now)))

    b.submit(b.worker("w"), 1.0, hand_off)
    drain_all([a, b])
    # b's jobs end at 1.0 and 2.0 but settle only once a has drained
    # to 5.0: a time-ordered drain would have run them first.
    assert fired == [("a", 5.0), ("b", 5.0), ("b2", 5.0), ("a2", 6.0)]
    assert a.pending == b.pending == 0


def test_worker_accounting(executor):
    worker = executor.worker("w")
    executor.submit(worker, 2.0)
    executor.submit(worker, 3.0)
    assert worker.jobs_run == 2


def test_submit_listeners_receive_meta(executor):
    # The executor's one hook is its ``obs`` slot: whatever sits there
    # hears of every submitted job with its meta, nothing once cleared.
    class Obs:
        def __init__(self):
            self.seen = []

        def on_submit(self, job, meta):
            self.seen.append((job.name, job.start, job.end, meta))

    assert executor.obs is None
    obs = executor.obs = Obs()
    worker = executor.worker("w")
    executor.submit(worker, 1.0, name="a", meta={"cat": "flush", "bytes": 7})
    executor.submit(worker, 1.0, name="b")
    executor.obs = None
    executor.submit(worker, 1.0, name="c")
    assert obs.seen == [
        ("a", 0.0, 1.0, {"cat": "flush", "bytes": 7}),
        ("b", 1.0, 2.0, None),
    ]


def test_trace_recorder_sets_and_clears_the_executor_slot():
    from repro.mem.system import HybridMemorySystem

    system = HybridMemorySystem()
    recorder = system.attach_tracing()
    assert system.executor.obs is recorder
    system.executor.submit(system.executor.worker("w"), 1e-6, name="j")
    recorder.detach()
    assert system.executor.obs is None
    system.executor.submit(system.executor.worker("w"), 1e-6, name="k")
    assert [event.name for event in recorder.worker_spans()] == ["j"]
