"""Shared fixtures: small machines, programs and traces.

Trace-producing fixtures are session-scoped: simulations are
deterministic, traces are immutable, and reusing them keeps the suite
fast.
"""

from __future__ import annotations

import pytest

from repro.runtime import (Machine, NumaAwareScheduler,
                           RandomStealScheduler, TraceCollector,
                           run_program)
from repro.workloads import (KmeansConfig, SeidelConfig, build_fork_join,
                             build_kmeans, build_random_dag, build_seidel)

TINY_SEIDEL = SeidelConfig(blocks=6, block_dim=16, steps=4)
TINY_KMEANS = KmeansConfig(num_points=64_000, block_size=4_000,
                           iterations=3)


def pytest_configure(config):
    """A ``RuntimeWarning`` raised from ``repro`` code (a float error
    such as a division by zero) fails the test that triggers it."""
    config.addinivalue_line("filterwarnings",
                            r"error::RuntimeWarning:repro(\.|$)")


@pytest.fixture(scope="session")
def machine():
    """A 4-node, 16-core NUMA machine."""
    return Machine(4, 4, name="test-machine")


@pytest.fixture(scope="session")
def seidel_program(machine):
    return build_seidel(machine, TINY_SEIDEL)


@pytest.fixture(scope="session")
def seidel_run(machine, seidel_program):
    collector = TraceCollector(machine)
    result, trace = run_program(seidel_program,
                                RandomStealScheduler(machine, seed=7),
                                collector=collector)
    return result, trace


@pytest.fixture(scope="session")
def seidel_trace_small(seidel_run):
    return seidel_run[1]


@pytest.fixture(scope="session")
def seidel_result(seidel_run):
    return seidel_run[0]


@pytest.fixture(scope="session")
def kmeans_run(machine):
    program = build_kmeans(machine, TINY_KMEANS)
    collector = TraceCollector(machine)
    result, trace = run_program(program,
                                NumaAwareScheduler(machine, seed=7),
                                collector=collector)
    return result, trace


@pytest.fixture(scope="session")
def kmeans_trace_small(kmeans_run):
    return kmeans_run[1]


@pytest.fixture(scope="session")
def forkjoin_trace(machine):
    program = build_fork_join(machine, width=12)
    collector = TraceCollector(machine)
    __, trace = run_program(program, RandomStealScheduler(machine, seed=3),
                            collector=collector)
    return trace


@pytest.fixture(scope="session")
def random_dag_trace(machine):
    program = build_random_dag(machine, num_tasks=120, seed=5)
    collector = TraceCollector(machine)
    __, trace = run_program(program, RandomStealScheduler(machine, seed=5),
                            collector=collector)
    return trace
