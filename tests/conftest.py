import threading

import pytest

from planlens.agents import MockBehavior, MockSummarizer, mock_bundle
from planlens.cli import synthetic_artifact_source
from planlens.feedback import default_components
from planlens.pipeline import InterventionPipeline, PipelineConfig
from planlens.trajectory import GenerationCheckpoint, Sample


def build_checkpoint(n_samples, g=0, trajectory_id="t"):
    samples = tuple(
        Sample(
            sample_id=f"s{i:03d}",
            generation_index=g,
            program_text=f"__global__ void k{i}() {{}}",
        )
        for i in range(n_samples)
    )
    return GenerationCheckpoint(trajectory_id=trajectory_id, g=g, samples=samples)


def build_pipe(checkpoint, behavior=None, config=None, fail_attempts=frozenset(), crash_on=frozenset()):
    behavior = behavior or MockBehavior(seed=1)
    config = config or PipelineConfig(seed=0)
    bundle = mock_bundle(behavior, fail_attempts=fail_attempts, crash_on=crash_on)
    source = synthetic_artifact_source(checkpoint, default_components())
    return InterventionPipeline(bundle, source, config=config)


class HeldSummarizer(MockSummarizer):
    """Holds its first call until a second call starts, or `hold` seconds
    pass, so that two threads missing one cache key overlap."""

    def __init__(self, hold=0.5):
        super().__init__()
        self.hold = hold
        self.first_started = threading.Event()
        self.second_started = threading.Event()
        self._order = threading.Lock()

    def summarize(self, artifacts):
        with self._order:
            first = not self.first_started.is_set()
            (self.first_started if first else self.second_started).set()
        if first:
            self.second_started.wait(self.hold)
        return super().summarize(artifacts)


def run_in_threads(first, second, started):
    """Run `first`, start `second` once the `started` event is set, join
    both and return their results; an exception in either is re-raised."""
    outcomes = [None, None]

    def call(index, fn):
        try:
            outcomes[index] = (True, fn())
        except BaseException as exc:  # re-raised in the calling thread
            outcomes[index] = (False, exc)

    threads = [threading.Thread(target=call, args=(0, first))]
    threads[0].start()
    assert started.wait(5)
    threads.append(threading.Thread(target=call, args=(1, second)))
    threads[1].start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    results = []
    for ok, value in outcomes:
        if not ok:
            raise value
        results.append(value)
    return results


@pytest.fixture
def checkpoint25():
    return build_checkpoint(25)
