import hashlib
import json
import threading
from collections import Counter
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import planlens.pipeline as pipeline_mod
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


def save_trajectory(store, path):
    """Write `store` as a trajectory file: one canonical JSON sample record
    per line, generations in order, as `TrajectoryStore.load` reads it."""
    with open(path, "w", encoding="utf-8") as fh:
        for sample in store.iter_samples():
            fh.write(json.dumps(sample.to_json(store.trajectory_id), sort_keys=True, separators=(",", ":")) + "\n")


def build_pipe(checkpoint, behavior=None, config=None, fail_attempts=frozenset(), crash_on=frozenset()):
    behavior = behavior or MockBehavior(seed=1)
    config = config or PipelineConfig(seed=0)
    bundle = mock_bundle(behavior, fail_attempts=fail_attempts, crash_on=crash_on)
    source = synthetic_artifact_source(checkpoint, default_components())
    return InterventionPipeline(bundle, source, config=config)


def only_stages(cache, kinds):
    """`cache` holding only the entries of the given stage kinds (e.g. {"anlz"})."""
    return cache._replace(entries={
        key: entry for key, entry in cache.entries.items()
        if isinstance(entry[1], dict) and entry[1].get("kind") in kinds
    })


class ChatHandler(BaseHTTPRequestHandler):
    """A stub chat backend: answers `echo:<model>` after failing the next
    `fail_times` requests with 503, and logs each (path, body, auth) in
    `seen`."""

    fail_times = 0
    seen: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).seen.append((self.path, body, self.headers.get("Authorization")))
        if type(self).fail_times > 0:
            type(self).fail_times -= 1
            self.send_response(503)
            self.end_headers()
            return
        payload = json.dumps({"content": f"echo:{body['model']}"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@contextmanager
def serve_chat():
    """A `ChatHandler` server on a free loopback port, as its base URL."""
    server = HTTPServer(("127.0.0.1", 0), ChatHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    ChatHandler.fail_times = 0
    ChatHandler.seen = []
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def chat_server():
    with serve_chat() as url:
        yield url


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


def record_computations(monkeypatch, cls, name="content_hash"):
    """Replace `cls.name` (a property or cached_property) with one of the
    same kind that appends each instance it computes the value for to the
    returned list; reads served from a memo append nothing."""
    descriptor = vars(cls)[name]
    compute = getattr(descriptor, "func", None) or descriptor.fget
    computed = []

    def recorded(self):
        computed.append(self)
        return compute(self)

    replacement = type(descriptor)(recorded)
    if hasattr(replacement, "__set_name__"):
        replacement.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, replacement)
    return computed


def count_schedule_work(monkeypatch):
    """Count the timing layer's per-task work from here on: latency draws
    (calls of the callable a `LatencyModel.drawer` returns) and trace events built."""
    work = Counter()
    drawer, event = pipeline_mod.LatencyModel.drawer, pipeline_mod.Event

    def counted_drawer(model, run_seed):
        draw = drawer(model, run_seed)

        def counted_draw(task):
            work["duration"] += 1
            return draw(task)

        return counted_draw

    def counted_event(*args):
        work["Event"] += 1
        return event(*args)

    monkeypatch.setattr(pipeline_mod.LatencyModel, "drawer", counted_drawer)
    monkeypatch.setattr(pipeline_mod, "Event", counted_event)
    return work


def event_digest(trace):
    """sha256 over each event but its run id, which differs between pipelines."""
    h = hashlib.sha256()
    for e in trace:
        row = [e.kind.value, e.sample_id, e.logical_time, e.wall_time, dict(e.payload)]
        h.update(json.dumps(row, sort_keys=True).encode("utf-8"))
    return h.hexdigest()
