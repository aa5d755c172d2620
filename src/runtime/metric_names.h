#ifndef EAFE_RUNTIME_METRIC_NAMES_H_
#define EAFE_RUNTIME_METRIC_NAMES_H_

namespace eafe::runtime::metric_names {

/// The metric-name registry: every `eafe_*` name a MetricGateway can be
/// asked for is declared here exactly once, and documented in README.md's
/// metrics section. eafe_lint's `metric-registry` rule enforces both
/// directions mechanically — a literal in src/ that is missing here, a
/// duplicate entry, an entry README does not document, or an entry no
/// code uses all fail the lint gate. Names ending in '_' (and the
/// pipeline prefix) are families: stage/kernel suffixes are appended at
/// runtime, so the registered name is the compile-time prefix.
///
/// Call sites keep their literals (grep for the name finds both the
/// publisher and this registry line); this header is the enumeration
/// operators read, not an indirection layer.

// -- runtime/thread_pool.cc: worker-pool load.
inline constexpr char kPoolTasksTotal[] = "eafe_pool_tasks_total";
inline constexpr char kPoolBusyWorkers[] = "eafe_pool_busy_workers";

// -- afe/search_pipeline.cc: search-task family prefix; the one family,
//    `eval`, appends _eval_busy_workers and _eval_items_total.
inline constexpr char kPipelinePrefix[] = "eafe_pipeline";

// -- simd/simd.cc: per-kernel dispatch family prefix; completed as
//    eafe_simd_dispatch_<kernel>_<level>.
inline constexpr char kSimdDispatchPrefix[] = "eafe_simd_dispatch_";

// -- afe/eval_service.cc: candidate-evaluation memo.
inline constexpr char kEvalRequestsTotal[] = "eafe_eval_requests_total";
inline constexpr char kEvalCacheHitsTotal[] = "eafe_eval_cache_hits_total";
inline constexpr char kEvalEvaluationsTotal[] = "eafe_eval_evaluations_total";

// -- serve/server/server.cc: TCP model server.
inline constexpr char kServerConnectionsAcceptedTotal[] =
    "eafe_server_connections_accepted_total";
inline constexpr char kServerConnectionsActive[] =
    "eafe_server_connections_active";
inline constexpr char kServerRequestsTotal[] = "eafe_server_requests_total";
inline constexpr char kServerShedTotal[] = "eafe_server_shed_total";
inline constexpr char kServerProtocolErrorsTotal[] =
    "eafe_server_protocol_errors_total";
inline constexpr char kServerBatchesTotal[] = "eafe_server_batches_total";
inline constexpr char kServerQueueDepth[] = "eafe_server_queue_depth";
inline constexpr char kServerBatchRows[] = "eafe_server_batch_rows";
inline constexpr char kServerRequestSeconds[] = "eafe_server_request_seconds";
inline constexpr char kServerBytesReadTotal[] = "eafe_server_bytes_read_total";
inline constexpr char kServerBytesWrittenTotal[] =
    "eafe_server_bytes_written_total";

}  // namespace eafe::runtime::metric_names

#endif  // EAFE_RUNTIME_METRIC_NAMES_H_
