"""Aftermath core: the paper's contribution.

Trace model and indexes, filters, derived metrics, statistics, NUMA
locality analysis, task-graph reconstruction, correlation tools, symbol
tables and annotations.
"""

from .annotations import Annotation, AnnotationStore
from .columnar import (ColumnarTrace, LaneStack, RegionLookup,
                       merge_counter_series, traces_equal)
from .anomalies import (Anomaly, CounterCorrelation, correlate_counters,
                        detect_duration_outliers,
                        detect_frequency_throttling, detect_idle_phases,
                        detect_load_imbalance, detect_locality_anomalies,
                        detect_stragglers, scan)
from .correlation import (RegressionResult, counter_increase_per_task,
                          counter_rate_per_task, duration_vs_counter_rate,
                          export_task_table, linear_regression)
from .events import (CommEvent, CounterDescription, CounterSample,
                     DiscreteEvent, DiscreteEventKind, MemoryAccess,
                     RegionInfo, STATE_NAMES, StateInterval, TaskExecution,
                     TaskTypeInfo, TopologyInfo, WorkerState)
from .filters import (AllTasks, CoreFilter, DurationFilter, IntervalFilter,
                      NumaNodeFilter, PredicateFilter, TaskFilter,
                      TaskTypeFilter, filtered_tasks)
from .index import (counter_samples_in_interval, discrete_in_interval,
                    interval_slice, point_slice, states_in_interval,
                    tasks_in_interval)
from .interval_tree import MinMaxTree, segment_minmax
from .pyramid import StateIndex
from .metrics import (aggregate_counter_series,
                      average_task_duration_series,
                      bytes_between_nodes_series, counter_derivative_series,
                      counter_ratio_series, discrete_derivative,
                      interval_edges, state_count_series,
                      task_duration_stats)
from .numa import (average_remote_fraction, task_node_bytes,
                   task_predominant_nodes, task_remote_fractions)
from .statistics import (IntervalReport, average_parallelism,
                         counter_histogram,
                         communication_matrix, interval_report,
                         interval_report_out_of_core,
                         locality_fraction, per_core_state_time,
                         state_time_summary,
                         state_time_summary_out_of_core, steal_matrix,
                         task_duration_histogram)
from .schedule_analysis import (CriticalPathReport, TypeProfileEntry,
                                critical_path_report, describe_profile,
                                scheduling_delays, task_type_profile)
from .selection import (DataEndpoint, TaskDetails, describe_selection,
                        state_at, task_at, task_details)
from .symbols import Symbol, SymbolTable, resolve_task, symbols_from_trace
from .taskgraph import (TaskGraph, export_dot, graph_from_program,
                        reconstruct_task_graph, to_networkx)
from .trace import TraceBuilder

__all__ = [
    "Annotation", "AnnotationStore", "Anomaly", "CounterCorrelation",
    "correlate_counters", "detect_duration_outliers",
    "detect_frequency_throttling", "detect_idle_phases",
    "detect_load_imbalance", "detect_locality_anomalies",
    "detect_stragglers", "scan", "DataEndpoint", "TaskDetails",
    "describe_selection", "state_at", "task_at", "task_details",
    "CriticalPathReport", "TypeProfileEntry", "critical_path_report",
    "describe_profile", "scheduling_delays", "task_type_profile",
    "RegressionResult",
    "counter_increase_per_task", "counter_rate_per_task",
    "duration_vs_counter_rate", "export_task_table", "linear_regression",
    "CommEvent", "CounterDescription", "CounterSample", "DiscreteEvent",
    "DiscreteEventKind", "MemoryAccess", "RegionInfo", "STATE_NAMES",
    "StateInterval", "TaskExecution", "TaskTypeInfo", "TopologyInfo",
    "WorkerState", "AllTasks", "CoreFilter", "DurationFilter",
    "IntervalFilter", "NumaNodeFilter", "PredicateFilter", "TaskFilter",
    "TaskTypeFilter", "filtered_tasks", "counter_samples_in_interval",
    "discrete_in_interval", "interval_slice", "point_slice",
    "states_in_interval", "tasks_in_interval", "MinMaxTree",
    "segment_minmax", "StateIndex", "aggregate_counter_series",
    "average_task_duration_series",
    "bytes_between_nodes_series", "counter_derivative_series",
    "counter_ratio_series",
    "discrete_derivative", "interval_edges", "state_count_series",
    "task_duration_stats", "average_remote_fraction", "task_node_bytes",
    "task_predominant_nodes", "task_remote_fractions", "IntervalReport",
    "average_parallelism", "communication_matrix", "interval_report",
    "interval_report_out_of_core", "locality_fraction",
    "per_core_state_time", "state_time_summary",
    "state_time_summary_out_of_core",
    "steal_matrix", "task_duration_histogram", "counter_histogram",
    "Symbol", "SymbolTable",
    "resolve_task", "symbols_from_trace", "TaskGraph", "export_dot",
    "graph_from_program", "reconstruct_task_graph", "to_networkx",
    "TraceBuilder", "merge_counter_series",
    "ColumnarTrace", "LaneStack", "traces_equal",
    "RegionLookup",
]
