"""Single-run experiment harness shared by benches and examples.

Wires workloads, run-time configurations and tracing together:

* :func:`runtime_pair` builds the paper's two OpenStream configurations
  (Section IV): *non-optimized* (random work-stealing, NUMA-oblivious
  random data placement) and *optimized* (NUMA-aware scheduler and
  allocator with first-touch placement).
* :func:`seidel_trace` / :func:`kmeans_trace` run a workload under a
  configuration and return ``(SimResult, ColumnarTrace)``.

Scaling: the paper's machines and inputs are too large to simulate in
seconds, so the default shapes here are scaled down while preserving
every qualitative property.  Set the environment variable
``REPRO_SCALE`` to ``small`` (CI), ``default`` or ``paper`` to change
the preset globally.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ...runtime import (Machine, MemoryManager, NumaAwareScheduler,
                        RandomPlacement, RandomStealScheduler, SimConfig,
                        TraceCollector, run_program)
from ...workloads import (KmeansConfig, PipelineConfig, SeidelConfig,
                          WavefrontConfig, build_kmeans, build_pipeline,
                          build_seidel, build_wavefront)


@dataclass(frozen=True)
class ScalePreset:
    """Problem sizes for one scale level."""

    name: str
    seidel_machine_nodes: int
    seidel_blocks: int
    seidel_block_dim: int
    seidel_steps: int
    kmeans_machine_nodes: int
    kmeans_points: int
    kmeans_iterations: int


PRESETS = {
    "small": ScalePreset("small", seidel_machine_nodes=4,
                         seidel_blocks=16, seidel_block_dim=32,
                         seidel_steps=8, kmeans_machine_nodes=4,
                         kmeans_points=256_000, kmeans_iterations=3),
    "default": ScalePreset("default", seidel_machine_nodes=8,
                           seidel_blocks=24, seidel_block_dim=64,
                           seidel_steps=16, kmeans_machine_nodes=8,
                           kmeans_points=1_024_000, kmeans_iterations=5),
    # The paper's sizes: 24-node UV2000, 64x64 blocks of 256x256 doubles
    # over ~50 sweeps; 8-node Opteron, 40.96M points.  Slow in Python.
    "paper": ScalePreset("paper", seidel_machine_nodes=24,
                         seidel_blocks=64, seidel_block_dim=256,
                         seidel_steps=50, kmeans_machine_nodes=8,
                         kmeans_points=40_960_000, kmeans_iterations=6),
}


def preset(name=None):
    """The active scale preset (``REPRO_SCALE`` env var by default)."""
    name = name or os.environ.get("REPRO_SCALE", "default")
    if name not in PRESETS:
        raise KeyError("unknown scale preset {!r}; choose one of {}"
                       .format(name, sorted(PRESETS)))
    return PRESETS[name]


def runtime_pair(machine, optimized, seed=0):
    """(memory manager, scheduler) for one run-time configuration."""
    if optimized:
        memory = MemoryManager(machine)    # first-touch placement
        scheduler = NumaAwareScheduler(machine, seed=seed)
    else:
        memory = MemoryManager(
            machine, policy=RandomPlacement(machine.num_nodes, seed=seed))
        scheduler = RandomStealScheduler(machine, seed=seed)
    return memory, scheduler


def seidel_machine(scale=None):
    """The scaled-down SGI-UV2000-like machine seidel runs on."""
    return Machine(preset(scale).seidel_machine_nodes, 8,
                   name="SGI-UV2000-like")


def kmeans_machine(scale=None):
    """The scaled-down AMD-Opteron-like machine k-means runs on."""
    return Machine(preset(scale).kmeans_machine_nodes, 8,
                   name="AMD-Opteron-like")


def seidel_trace(optimized=True, scale=None, machine=None, config=None,
                 collect_rusage=True, collect_accesses=True, seed=0,
                 sim_config=None, faults=None):
    """Run seidel under one configuration; returns (result, trace)."""
    active = preset(scale)
    machine = machine if machine is not None else seidel_machine(scale)
    if config is None:
        config = SeidelConfig(blocks=active.seidel_blocks,
                              block_dim=active.seidel_block_dim,
                              steps=active.seidel_steps)
    memory, scheduler = runtime_pair(machine, optimized, seed=seed)
    program = build_seidel(machine, config, memory=memory)
    collector = TraceCollector(machine, collect_rusage=collect_rusage,
                               collect_accesses=collect_accesses)
    return run_program(program, scheduler, collector=collector,
                       config=sim_config, faults=faults)


#: The paper's k-means runs on a production OpenStream run-time whose
#: per-creation cost is small relative to the distance tasks; the
#: simulator's default creation cost is calibrated for seidel's
#: main-thread creation phase, so k-means runs override it.
KMEANS_SIM_CONFIG = SimConfig(create_cost=80)


def kmeans_trace(optimized=True, scale=None, machine=None, config=None,
                 block_size=10_000, optimize_branches=False,
                 collect_rusage=False, collect_accesses=True, seed=0,
                 sim_config=None, faults=None):
    """Run k-means under one configuration; returns (result, trace)."""
    active = preset(scale)
    machine = machine if machine is not None else kmeans_machine(scale)
    if config is None:
        config = KmeansConfig(num_points=active.kmeans_points,
                              block_size=block_size,
                              iterations=active.kmeans_iterations,
                              optimize_branches=optimize_branches)
    memory, scheduler = runtime_pair(machine, optimized, seed=seed)
    program = build_kmeans(machine, config, memory=memory)
    collector = TraceCollector(machine, collect_rusage=collect_rusage,
                               collect_accesses=collect_accesses)
    return run_program(program, scheduler, collector=collector,
                       config=sim_config or KMEANS_SIM_CONFIG,
                       faults=faults)


#: Wavefront grid order and pipeline frame count per scale preset.
WAVEFRONT_ORDERS = {"small": 12, "default": 20, "paper": 64}
PIPELINE_FRAMES = {"small": 48, "default": 96, "paper": 512}


def wavefront_trace(optimized=True, scale=None, machine=None,
                    config=None, seed=0, sim_config=None, faults=None,
                    collect_accesses=True):
    """Run the wavefront DAG under one configuration; returns
    ``(result, trace)``.  ``faults`` optionally plants a
    :class:`repro.runtime.faults.FaultInjectionConfig`."""
    active = preset(scale)
    # Wavefront parallelism is capped by the diagonal (= order), so a
    # narrower machine keeps cores meaningfully loaded.
    machine = machine if machine is not None else Machine(2, 4,
                                                          name="wavefront")
    if config is None:
        config = WavefrontConfig(order=WAVEFRONT_ORDERS[active.name],
                                 seed=seed)
    memory, scheduler = runtime_pair(machine, optimized, seed=seed)
    program = build_wavefront(machine, config, memory=memory)
    collector = TraceCollector(machine,
                               collect_accesses=collect_accesses)
    return run_program(program, scheduler, collector=collector,
                       config=sim_config, faults=faults)


def pipeline_trace(optimized=True, scale=None, machine=None,
                   config=None, seed=0, sim_config=None, faults=None,
                   straggler_stage=-1, collect_accesses=True):
    """Run the streaming pipeline under one configuration; returns
    ``(result, trace)``.  ``straggler_stage >= 0`` plants periodic
    application-level stragglers in that stage (the
    pipeline-with-stragglers scenario); ``faults`` additionally
    plants machine-level faults."""
    active = preset(scale)
    machine = machine if machine is not None else Machine(4, 4,
                                                          name="pipeline")
    if config is None:
        config = PipelineConfig(frames=PIPELINE_FRAMES[active.name],
                                straggler_stage=straggler_stage)
    memory, scheduler = runtime_pair(machine, optimized, seed=seed)
    program = build_pipeline(machine, config, memory=memory)
    collector = TraceCollector(machine,
                               collect_accesses=collect_accesses)
    return run_program(program, scheduler, collector=collector,
                       config=sim_config, faults=faults)


def kmeans_makespan(block_size, scale=None, machine=None, seed=0,
                    iterations=None, num_points=None):
    """Wall-clock (cycles) of one k-means run without tracing — the
    fast path behind the Fig. 12 block-size sweep."""
    active = preset(scale)
    machine = machine if machine is not None else kmeans_machine(scale)
    config = KmeansConfig(
        num_points=(active.kmeans_points if num_points is None
                    else num_points),
        block_size=block_size,
        iterations=(active.kmeans_iterations if iterations is None
                    else iterations))
    memory, scheduler = runtime_pair(machine, optimized=True, seed=seed)
    program = build_kmeans(machine, config, memory=memory)
    result, __ = run_program(program, scheduler,
                             config=KMEANS_SIM_CONFIG)
    return result.makespan
