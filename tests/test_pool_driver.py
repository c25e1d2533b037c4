"""The one process-pool driver, :func:`repro.analysis.parallel.pooled_map`.

Both the chunk-sharded map-reduce and the multi-trace analysis run
through it, so its two promises are checked through both callers:
when a pool cannot be created the serial loop returns exactly the
one-worker result, and an exception raised inside a worker body
propagates instead of being swallowed by that fallback.
"""

import multiprocessing
import os

import pytest

from repro.analysis import parallel_streaming_statistics
from repro.analysis.experiments import analyze_traces
from repro.analysis.parallel import pooled_map
from repro.trace_format import (CorruptChunkError, read_chunk_index,
                                write_synthetic_trace)


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Three small indexed traces of different seeds."""
    directory = tmp_path_factory.mktemp("pool_driver")
    paths = []
    for seed in range(3):
        path = str(directory / "t{}.ost".format(seed))
        write_synthetic_trace(path, events=6_000, nodes=1,
                              cores_per_node=4, task_types=3, seed=seed,
                              chunk_records=512)
        paths.append(path)
    return paths


@pytest.fixture
def no_process_pool(monkeypatch):
    """Make every pool creation fail as in a sandbox without
    semaphores; the number of attempts is returned."""
    attempts = []

    def refuse(self, *args, **kwargs):
        attempts.append(args)
        raise OSError("no process pools here")

    monkeypatch.setattr(type(multiprocessing.get_context()), "Pool",
                        refuse)
    return attempts


def _raises_outside(job):
    """Raise in any process but the one that built ``job``."""
    parent, chunk = job
    if os.getpid() != parent:
        raise CorruptChunkError("chunk {} truncated".format(chunk))
    return chunk


@pytest.fixture(scope="module")
def process_pools():
    """Skip where the platform cannot create process pools at all."""
    try:
        with multiprocessing.get_context().Pool(1):
            pass
    except (OSError, ImportError, PermissionError):
        pytest.skip("platform cannot create process pools")


class TestPoolCreationFallback:
    def test_map_reduce_matches_one_worker(self, traces,
                                           no_process_pool):
        serial = parallel_streaming_statistics(traces[0], workers=1)
        fallback = parallel_streaming_statistics(traces[0], workers=2)
        assert no_process_pool, "the pool path was never tried"
        assert fallback == serial

    def test_analyze_traces_matches_one_worker(self, traces,
                                               no_process_pool):
        serial = analyze_traces(traces, workers=1)
        fallback = analyze_traces(traces, workers=2)
        assert no_process_pool, "the pool path was never tried"
        assert fallback == serial

    def test_one_job_never_builds_a_pool(self, no_process_pool):
        assert pooled_map(abs, [-3], workers=4) == [3]
        assert no_process_pool == []


@pytest.mark.usefixtures("process_pools")
class TestWorkerErrorsPropagate:
    def test_worker_error_is_not_rerun_serially(self):
        jobs = [(os.getpid(), chunk) for chunk in range(4)]
        with pytest.raises(CorruptChunkError, match="truncated"):
            pooled_map(_raises_outside, jobs, workers=2)

    def test_damaged_chunk_fails_the_sharded_scan(self, traces,
                                                  tmp_path):
        data = bytearray(open(traces[0], "rb").read())
        entry = read_chunk_index(traces[0]).entries[1]
        data[entry.offset + entry.length // 2] ^= 0xFF
        path = tmp_path / "damaged.ost"
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptChunkError):
            parallel_streaming_statistics(str(path), workers=2)
