"""Unit tests for background workers and job settlement."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.executor import Executor


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
    with pytest.raises(ValueError):
        executor.submit(executor.worker("w"), -1.0)


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


def test_next_completion(executor):
    assert executor.next_completion() is None
    executor.submit(executor.worker("w"), 2.5)
    assert executor.next_completion() == 2.5


def test_next_completion_skips_cancelled_jobs_at_heap_top(executor):
    doomed = executor.submit(executor.worker("a"), 1.0)
    survivor = executor.submit(executor.worker("b"), 2.0)
    doomed.cancelled = True
    # The lazy-deletion peek must look past the cancelled entry at the
    # top of the heap and report the first live completion.
    assert executor.next_completion() == survivor.end
    assert executor.pending == 1


def test_next_completion_all_cancelled_is_idle(executor):
    jobs = [executor.submit(executor.worker(f"w{i}"), float(i + 1)) for i in range(3)]
    for job in jobs:
        job.cancelled = True
    assert executor.next_completion() is None
    assert executor.pending == 0
    # Lazily-popped cancelled jobs must never fire once time passes.
    executor.clock.advance(10.0)
    assert executor.settle() == 0


def test_next_completion_pops_lazily_without_losing_live_jobs(executor):
    fired = []
    doomed = executor.submit(executor.worker("a"), 1.0, lambda: fired.append("doomed"))
    executor.submit(executor.worker("b"), 2.0, lambda: fired.append("live"))
    doomed.cancelled = True
    executor.next_completion()  # pops the cancelled top entry
    executor.clock.advance(5.0)
    executor.settle()
    assert fired == ["live"]


def test_crash_reset_cancels_pending_jobs(executor):
    fired = []
    executor.submit(executor.worker("w"), 1.0, lambda: fired.append(1))
    cancelled = executor.crash_reset()
    assert cancelled == 1
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
    assert executor.next_completion() is None
    # Post-reboot work schedules, peeks, and settles normally.
    job = executor.submit(executor.worker("w"), 1.0, lambda: fired.append("new"))
    assert executor.next_completion() == job.end
    end = executor.drain()
    assert fired == ["new"]
    assert end == job.end
    assert executor.pending == 0


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
