"""Tests for the in-memory trace representation and its builder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RegionInfo, TopologyInfo, TraceBuilder


def make_builder(nodes=2, cores_per_node=2):
    return TraceBuilder(TopologyInfo(num_nodes=nodes,
                                     cores_per_node=cores_per_node))


class TestBuilder:
    def test_empty_trace(self):
        trace = make_builder().build()
        assert trace.begin == 0 and trace.end == 0
        assert len(trace.tasks) == 0

    def test_states_sorted_per_core(self):
        builder = make_builder()
        builder.state_interval(1, 0, 500, 600)
        builder.state_interval(0, 0, 100, 200)
        builder.state_interval(1, 1, 100, 400)
        trace = builder.build()
        starts = trace.states.core_column(1, "start")
        assert list(starts) == [100, 500]

    def test_zero_length_state_dropped(self):
        builder = make_builder()
        builder.state_interval(0, 0, 100, 100)
        assert len(builder.build().states) == 0

    def test_counter_samples_sorted(self):
        builder = make_builder()
        counter = builder.describe_counter("c")
        builder.counter_sample(0, counter, 300, 3.0)
        builder.counter_sample(0, counter, 100, 1.0)
        trace = builder.build()
        timestamps, values = trace.counter_samples(0, counter)
        assert list(timestamps) == [100, 300]
        assert list(values) == [1.0, 3.0]

    def test_time_bounds_span_all_event_kinds(self):
        builder = make_builder()
        counter = builder.describe_counter("c")
        builder.state_interval(0, 0, 50, 80)
        builder.task_execution(0, 0, 0, 60, 70)
        builder.counter_sample(0, counter, 500, 1.0)
        trace = builder.build()
        assert trace.begin == 50
        assert trace.end == 500

    def test_counter_lookup_by_name(self):
        builder = make_builder()
        builder.describe_counter("alpha")
        beta = builder.describe_counter("beta")
        trace = builder.build()
        assert trace.counter_id("beta") == beta
        with pytest.raises(KeyError):
            trace.counter_id("gamma")


class TestTaskIndex:
    def test_task_by_id(self):
        builder = make_builder()
        builder.task_execution(42, 1, 2, 100, 200)
        trace = builder.build()
        execution = trace.task_by_id(42)
        assert execution.core == 2
        assert execution.duration == 100

    def test_unknown_task_raises(self):
        trace = make_builder().build()
        with pytest.raises(KeyError):
            trace.task_by_id(7)

    def test_task_accesses_slice(self):
        builder = make_builder()
        builder.task_execution(1, 0, 0, 0, 10)
        builder.task_execution(2, 0, 0, 10, 20)
        builder.memory_access(2, 0, 0x1000, 64, True, 10)
        builder.memory_access(1, 0, 0x2000, 32, False, 0)
        builder.memory_access(2, 0, 0x3000, 16, False, 10)
        trace = builder.build()
        mine = trace.task_accesses(2)
        assert len(mine["address"]) == 2
        assert set(mine["address"]) == {0x1000, 0x3000}


class TestRegionLookup:
    def make_trace_with_regions(self):
        builder = make_builder()
        builder.describe_region(RegionInfo(
            region_id=0, address=0x10000, size=8192,
            page_nodes=(0, 1)))
        builder.describe_region(RegionInfo(
            region_id=1, address=0x20000, size=4096, page_nodes=(1,)))
        return builder.build()

    def test_region_of_hits(self):
        trace = self.make_trace_with_regions()
        assert trace.region_of(0x10000).region_id == 0
        assert trace.region_of(0x20000 + 4095).region_id == 1

    def test_region_of_misses(self):
        trace = self.make_trace_with_regions()
        assert trace.region_of(0x10000 - 1) is None
        assert trace.region_of(0x10000 + 8192) is None

    def test_node_of_address_uses_page_granularity(self):
        trace = self.make_trace_with_regions()
        assert trace.node_of_address(0x10000) == 0
        assert trace.node_of_address(0x10000 + 4096) == 1

    def test_unallocated_page_maps_to_none(self):
        builder = make_builder()
        builder.describe_region(RegionInfo(
            region_id=0, address=0x1000, size=4096, page_nodes=(-1,)))
        trace = builder.build()
        assert trace.node_of_address(0x1000) is None

    def test_vectorized_matches_scalar(self):
        trace = self.make_trace_with_regions()
        addresses = [0x10000, 0x10000 + 5000, 0x20000, 0x999, 0x30000]
        vector = trace.nodes_of_addresses(np.asarray(addresses))
        for address, node in zip(addresses, vector):
            scalar = trace.node_of_address(address)
            assert (scalar if scalar is not None else -1) == node

    @given(addresses=st.lists(
        st.integers(min_value=0, max_value=0x40000), max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_vectorized_always_matches_scalar(self, addresses):
        trace = self.make_trace_with_regions()
        vector = trace.nodes_of_addresses(
            np.asarray(addresses, dtype=np.int64))
        for address, node in zip(addresses, vector):
            scalar = trace.node_of_address(address)
            assert (scalar if scalar is not None else -1) == node


class TestIterators:
    def test_task_executions_roundtrip(self, seidel_trace_small):
        executions = list(seidel_trace_small.task_executions())
        assert len(executions) == len(seidel_trace_small.tasks)
        for execution in executions[:20]:
            assert (seidel_trace_small.task_by_id(execution.task_id)
                    == execution)

    def test_state_intervals_count(self, seidel_trace_small):
        intervals = list(seidel_trace_small.state_intervals())
        assert len(intervals) == len(seidel_trace_small.states)

    def test_repr_mentions_sizes(self, seidel_trace_small):
        text = repr(seidel_trace_small)
        assert "tasks=" in text and "states=" in text


class TestMergeCounterSeries:
    """The paper's separate-rusage-trace workflow (Section III-B)."""

    def make_pair(self):
        from repro.core import merge_counter_series
        main = make_builder()
        cycles = main.describe_counter("cache_misses")
        main.task_execution(0, 0, 0, 0, 100)
        main.counter_sample(0, cycles, 0, 1.0)
        aux = make_builder()
        rusage = aux.describe_counter("os_system_time_us")
        aux.counter_sample(0, rusage, 50, 7.0)
        aux.counter_sample(1, rusage, 60, 9.0)
        return main.build(), aux.build(), merge_counter_series

    def test_aux_counters_joined(self):
        main, aux, merge = self.make_pair()
        merged = merge(main, aux)
        names = {d.name for d in merged.counter_descriptions}
        assert names == {"cache_misses", "os_system_time_us"}
        counter_id = merged.counter_id("os_system_time_us")
        timestamps, values = merged.counter_samples(0, counter_id)
        assert list(values) == [7.0]
        assert len(merged.tasks) == 1   # main's events survive

    def test_name_clash_prefixed(self):
        from repro.core import merge_counter_series
        main = make_builder()
        main.describe_counter("shared")
        aux = make_builder()
        aux.describe_counter("shared")
        merged = merge_counter_series(main.build(), aux.build())
        names = {d.name for d in merged.counter_descriptions}
        assert names == {"shared", "aux:shared"}

    def test_counter_selection(self):
        main, aux, merge = self.make_pair()
        merged = merge(main, aux, counters=[])
        assert {d.name for d in merged.counter_descriptions} \
            == {"cache_misses"}

    def test_machine_mismatch_rejected(self):
        import pytest as _pytest
        from repro.core import (TopologyInfo, TraceBuilder,
                                merge_counter_series)
        main = TraceBuilder(TopologyInfo(2, 2)).build()
        aux = TraceBuilder(TopologyInfo(4, 2)).build()
        with _pytest.raises(ValueError):
            merge_counter_series(main, aux)

    def test_merged_trace_supports_metrics(self):
        """End-to-end: simulate twice (rusage separately), merge, run
        the Fig. 10 aggregation on the merged trace."""
        from repro.core import aggregate_counter_series, \
            merge_counter_series
        from repro.analysis.experiments import seidel_trace
        from repro.workloads import SeidelConfig
        from repro.runtime import Machine
        machine = Machine(2, 4)
        config = SeidelConfig(blocks=5, block_dim=16, steps=3)
        __, main = seidel_trace(machine=machine, config=config,
                                collect_rusage=False, seed=5)
        __, aux = seidel_trace(machine=machine, config=config,
                               collect_rusage=True, seed=5)
        merged = merge_counter_series(
            main, aux, counters=["os_system_time_us",
                                 "os_resident_kb"])
        __, totals = aggregate_counter_series(merged,
                                              "os_resident_kb", 10)
        assert totals[-1] > 0


class TestSingleStore:
    def test_every_producer_builds_a_columnar_trace(self, tmp_path,
                                                    seidel_trace_small):
        """The simulator, every reader and importer, window extraction,
        salvage and counter merging all produce the one store type."""
        from repro.core import ColumnarTrace, merge_counter_series
        from repro.trace_format import (build_window, export_chrome,
                                        export_paraver, ingest_trace,
                                        read_trace, read_trace_stream,
                                        salvage_trace, split_time_window,
                                        stream_records, write_trace)
        from trace_gen import make_random_trace
        trace = make_random_trace(3, events_per_core=20)
        path = str(tmp_path / "trace.ost")
        write_trace(trace, path, chunk_records=64)
        export_paraver(trace, str(tmp_path / "trace.prv"))
        export_chrome(trace, str(tmp_path / "trace.json"))
        start, end = trace.begin, trace.begin + trace.duration // 2
        with open(path, "rb") as stream:
            produced = [seidel_trace_small, read_trace(path),
                        read_trace_stream(stream)]
        produced += [ingest_trace(str(tmp_path / name))
                     for name in ("trace.ost", "trace.prv", "trace.json")]
        produced += [split_time_window(path, start, end),
                     build_window(stream_records(path), start, end),
                     salvage_trace(path)[0],
                     merge_counter_series(trace, trace)]
        read_trace(path, cache=True)                # writes the sidecar
        produced.append(split_time_window(path, start, end, cache=True))
        assert [type(store) for store in produced] == \
            [ColumnarTrace] * 11
