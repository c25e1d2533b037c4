"""Binary trace format with transparent compression (Section VI-A).

The out-of-core additions — seekable chunk index, chunk-granular
reading, synthetic trace files — are documented in
``docs/trace-format.md`` and ``docs/architecture.md``.
"""

from .cache import (CacheError, MappedPyramids, StaleCacheError,
                    default_cache_path, load_cache, write_cache)
from .chunked import (ChunkEntry, ChunkIndex, SalvageReport, ScanStats,
                      TraceVerification, read_chunk_index,
                      salvage_records, salvage_trace,
                      stream_window_records, verify_trace)
from .chrome import export_chrome, import_chrome
from .compression import codec_for_path, open_trace_file
from .format import (CorruptChunkError, FormatError, MAGIC, RecordTag,
                     VERSION)
from .ingest import (TraceSource, detect_source, ingest_trace,
                     register_source, registered_sources)
from .paraver import export_paraver, import_paraver
from .reader import read_trace, read_trace_stream
from .streaming import (StreamingStatistics, TaskHistogramAccumulator,
                        build_window, fold_records, split_time_window,
                        stream_records)
from .synthesize import write_synthetic_trace
from .writer import (DEFAULT_CHUNK_RECORDS, IndexedTraceWriter,
                     TraceWriter, write_trace)

__all__ = ["CacheError", "MappedPyramids", "StaleCacheError",
           "default_cache_path", "load_cache", "write_cache",
           "ChunkEntry", "ChunkIndex", "SalvageReport", "ScanStats",
           "TraceVerification", "read_chunk_index",
           "salvage_records", "salvage_trace",
           "stream_window_records", "verify_trace",
           "codec_for_path", "open_trace_file",
           "CorruptChunkError", "FormatError", "MAGIC", "RecordTag",
           "VERSION",
           "TraceSource", "detect_source", "ingest_trace",
           "register_source", "registered_sources",
           "export_chrome", "import_chrome",
           "export_paraver", "import_paraver",
           "read_trace", "read_trace_stream",
           "StreamingStatistics", "TaskHistogramAccumulator",
           "build_window", "fold_records", "split_time_window",
           "stream_records",
           "write_synthetic_trace", "DEFAULT_CHUNK_RECORDS",
           "IndexedTraceWriter", "TraceWriter", "write_trace"]
