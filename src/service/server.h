// A thin multi-tenant TCP query service over a shared tqp::Engine.
//
// The Engine facade is already a multi-session optimizer/executor — shared
// plan cache, admission control, catalog invalidation — so the service layer
// stays deliberately small: accept connections, read one TQL statement per
// line, run it through the shared Engine, and stream the result back as
// newline-delimited JSON frames. No third-party dependencies: the protocol
// is plain sockets plus the in-tree core/json.h writer.
//
// Wire protocol (all frames are single-line JSON objects, '\n'-terminated):
//
//   client → server   one TQL statement per line, or a backslash command:
//                       \stats   engine + server counters
//                       \metrics unified metrics registry (Prometheus + JSON)
//                       \trace on|off  per-connection query tracing/profiling
//                       \quit    close the connection
//   server → client   for a successful query:
//                       {"type":"schema","attrs":[{"name":..,"type":..},..]}
//                       {"type":"batch","rows":[[v,..],..]}     (repeated)
//                       {"type":"done","rows":N,"batches":M,
//                        "plan_cache_hit":b,"best_cost":..,"exec":{..}}
//                     for a failed query (connection stays usable):
//                       {"type":"error","message":"..."}
//                     for a request line longer than 1 MiB: one error
//                     frame, then the server closes the connection
//                     for \stats:
//                       {"type":"stats","server":{..},"engine":{..}}
//                     for \metrics (after publishing engine + server stats
//                     into MetricsRegistry::Global()):
//                       {"type":"metrics","prometheus":"..","metrics":{..}}
//                     with \trace on, two extra frames precede "done":
//                       {"type":"profile","profile":{..}}   (EXPLAIN ANALYZE)
//                       {"type":"trace","trace":{..}}       (Chrome trace)
//
// The "done" frame embeds ExecStats::ToJson()/EngineStats::ToJson() — the
// same renderings the benches embed, so service responses and bench JSON
// cannot drift.
//
// Lifecycle: Start() optionally warm-starts the plan cache from
// ServerOptions::snapshot_path (see service/plan_store.h), binds, and spawns
// the accept loop; Stop() drains connections, joins every thread, and writes
// a final snapshot. A snapshot_interval_s > 0 additionally snapshots on a
// background timer, so a crash loses at most one interval of warmth.
//
// Locking: the server takes no Engine locks itself — every query goes
// through the public Engine API, which owns the admission semaphore →
// catalog lock → state lock order. Server-internal state (the connection
// list) is guarded by a leaf mutex never held across Engine calls.
#ifndef TQP_SERVICE_SERVER_H_
#define TQP_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"

namespace tqp {

struct ServerOptions {
  /// Listen address. Tests and benches use the loopback default.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is readable via Server::port().
  uint16_t port = 0;
  /// Rows per "batch" frame.
  size_t batch_rows = 256;
  /// Plan-cache snapshot file. Empty = no persistence. When set, Start()
  /// imports it (missing/stale files are normal cold starts) and Stop()
  /// writes a final snapshot.
  std::string snapshot_path;
  /// Seconds between background snapshots; 0 = snapshot only on Stop().
  unsigned snapshot_interval_s = 0;
  /// listen(2) backlog.
  int backlog = 128;
};

/// Service-level counters (the Engine keeps its own in EngineStats).
struct ServerStats {
  uint64_t connections_total = 0;
  uint64_t connections_active = 0;
  uint64_t queries = 0;
  /// Error frames sent: failed queries and oversized request lines.
  uint64_t errors = 0;
  uint64_t batches_sent = 0;
  uint64_t rows_sent = 0;
  uint64_t snapshots_written = 0;
  /// Plan-cache entries imported at warm start.
  uint64_t plans_imported = 0;
  /// \metrics frames served.
  uint64_t metrics_requests = 0;
  /// Queries run with per-connection tracing on (\trace on).
  uint64_t traced_queries = 0;

  /// Every field once, in rendering order: f(name, value).
  template <typename F>
  void ForEachField(F&& f) const {
    f("connections_total", connections_total);
    f("connections_active", connections_active);
    f("queries", queries);
    f("errors", errors);
    f("batches_sent", batches_sent);
    f("rows_sent", rows_sent);
    f("snapshots_written", snapshots_written);
    f("plans_imported", plans_imported);
    f("metrics_requests", metrics_requests);
    f("traced_queries", traced_queries);
  }

  std::string ToJson() const;

  /// Publishes every counter above into `registry` as tqp_server_* gauges
  /// (idempotent set; the \metrics handler republishes per request).
  void PublishTo(MetricsRegistry* registry) const;
};

/// One server instance bound to one shared Engine. The Engine must outlive
/// the server. Thread-per-connection; every public method is thread-safe.
class Server {
 public:
  Server(Engine* engine, ServerOptions options);
  ~Server();  // calls Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Warm-starts from the snapshot (if configured), binds, listens, and
  /// starts accepting. Returns an error if the socket cannot be bound or a
  /// present snapshot file is corrupt.
  Status Start();

  /// Stops accepting, unblocks and joins every connection thread, writes a
  /// final snapshot (if configured). Idempotent.
  void Stop();

  /// The bound port (resolved after Start() when options.port == 0).
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  ServerStats stats() const;
  Engine* engine() const { return engine_; }

 private:
  struct Connection;

  void AcceptLoop();
  void SnapshotLoop();
  void ServeConnection(Connection* conn);
  /// Runs one TQL statement (or backslash command); appends response frames.
  void HandleLine(const std::string& line, Connection* conn,
                  std::string* out);
  void ReapFinishedLocked();

  Engine* engine_;
  ServerOptions options_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::thread snapshot_thread_;

  mutable std::mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::condition_variable snapshot_cv_;

  std::atomic<uint64_t> connections_total_{0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> batches_sent_{0};
  std::atomic<uint64_t> rows_sent_{0};
  std::atomic<uint64_t> snapshots_written_{0};
  std::atomic<uint64_t> plans_imported_{0};
  std::atomic<uint64_t> metrics_requests_{0};
  std::atomic<uint64_t> traced_queries_{0};
};

}  // namespace tqp

#endif  // TQP_SERVICE_SERVER_H_
