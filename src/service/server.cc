#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "core/json.h"
#include "core/metrics.h"
#include "core/profile.h"
#include "service/plan_store.h"

namespace tqp {

namespace {

/// The longest request line a connection may send. The connection buffers
/// a line until its newline arrives; past this many bytes without one it
/// gets an error frame and is closed, so no client can grow the server's
/// memory without bound.
constexpr size_t kMaxLineBytes = size_t{1} << 20;

/// One {"type":"error"} frame, '\n'-terminated.
std::string ErrorFrame(const std::string& message) {
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String("error");
  w.Key("message").String(message);
  w.EndObject();
  std::string frame = w.Take();
  frame.push_back('\n');
  return frame;
}

/// Renders one attribute value into a result row. Ints and time points are
/// JSON numbers (the schema frame carries the column types, so a client can
/// tell them apart); non-finite doubles become null, matching JsonWriter.
void WriteRowValue(JsonWriter* w, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      w->Null();
      return;
    case ValueType::kInt:
      w->Int(v.AsInt());
      return;
    case ValueType::kDouble:
      w->Double(v.AsDouble());
      return;
    case ValueType::kString:
      w->String(v.AsString());
      return;
    case ValueType::kTime:
      w->Int(v.AsTime());
      return;
  }
}

/// Sends the whole buffer, retrying short writes. MSG_NOSIGNAL turns a
/// vanished peer into an EPIPE return instead of a process signal.
bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

std::string ServerStats::ToJson() const { return StatsToJson(*this); }

void ServerStats::PublishTo(MetricsRegistry* registry) const {
  PublishStatsGauges(*this, "tqp_server_", registry);
}

struct Server::Connection {
  int fd = -1;
  std::thread thread;
  std::atomic<bool> finished{false};
  /// \trace on|off — queries on this connection run traced + profiled and
  /// stream trace/profile frames. Only the owning connection thread touches
  /// it.
  bool trace = false;
};

Server::Server(Engine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {
  TQP_CHECK(engine_ != nullptr);
}

Server::~Server() { Stop(); }

Status Server::Start() {
  TQP_CHECK(!running_.load());

  if (!options_.snapshot_path.empty()) {
    auto loaded = LoadPlanCache(engine_, options_.snapshot_path);
    if (!loaded.ok()) return loaded.status();
    plans_imported_.store(loaded->imported, std::memory_order_relaxed);
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Error("service: socket() failed: " +
                         std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Error("service: bad listen address '" + options_.host +
                         "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status st = Status::Error("service: bind(" + options_.host + ":" +
                              std::to_string(options_.port) +
                              ") failed: " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    Status st = Status::Error("service: listen() failed: " +
                              std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    Status st = Status::Error("service: getsockname() failed: " +
                              std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  port_ = ntohs(bound.sin_port);

  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (!options_.snapshot_path.empty() && options_.snapshot_interval_s > 0) {
    snapshot_thread_ = std::thread([this] { SnapshotLoop(); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false)) return;

  // Unblock accept(2); the loop exits on the failed accept + cleared flag.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& conn : connections_) {
      // Unblocks the connection thread's recv(2); it finishes its current
      // query first, so no response is torn mid-frame.
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
  snapshot_cv_.notify_all();
  if (snapshot_thread_.joinable()) snapshot_thread_.join();

  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(connections_);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }

  if (!options_.snapshot_path.empty()) {
    if (SavePlanCache(*engine_, options_.snapshot_path).ok()) {
      snapshots_written_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_total = connections_total_.load(std::memory_order_relaxed);
  s.queries = queries_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.batches_sent = batches_sent_.load(std::memory_order_relaxed);
  s.rows_sent = rows_sent_.load(std::memory_order_relaxed);
  s.snapshots_written = snapshots_written_.load(std::memory_order_relaxed);
  s.plans_imported = plans_imported_.load(std::memory_order_relaxed);
  s.metrics_requests = metrics_requests_.load(std::memory_order_relaxed);
  s.traced_queries = traced_queries_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    uint64_t active = 0;
    for (const auto& conn : connections_) {
      if (!conn->finished.load(std::memory_order_acquire)) ++active;
    }
    s.connections_active = active;
  }
  return s;
}

void Server::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running_.load(std::memory_order_acquire)) break;
      continue;  // transient accept failure (e.g. EMFILE); keep serving
    }
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_total_.fetch_add(1, std::memory_order_relaxed);

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      ReapFinishedLocked();
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
  }
}

void Server::ReapFinishedLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->finished.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::SnapshotLoop() {
  std::mutex wait_mu;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(wait_mu);
      snapshot_cv_.wait_for(
          lock, std::chrono::seconds(options_.snapshot_interval_s),
          [this] { return !running_.load(std::memory_order_acquire); });
    }
    if (!running_.load(std::memory_order_acquire)) return;
    if (SavePlanCache(*engine_, options_.snapshot_path).ok()) {
      snapshots_written_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Server::ServeConnection(Connection* conn) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    size_t nl = buffer.find('\n');
    if ((nl == std::string::npos ? buffer.size() : nl) > kMaxLineBytes) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      SendAll(conn->fd,
              ErrorFrame("request line longer than " +
                         std::to_string(kMaxLineBytes) + " bytes"));
      // FIN after the frame: the client reads the frame, then EOF, even if
      // closing with its unread bytes still queued resets the connection.
      ::shutdown(conn->fd, SHUT_WR);
      break;
    }
    if (nl == std::string::npos) {
      ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;  // peer closed or Stop() shut the read side down
      }
      buffer.append(chunk, static_cast<size_t>(n));
      continue;
    }
    std::string line = buffer.substr(0, nl);
    buffer.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line == "\\quit") break;

    std::string out;
    HandleLine(line, conn, &out);
    if (!SendAll(conn->fd, out)) break;
  }
  ::close(conn->fd);
  conn->finished.store(true, std::memory_order_release);
}

void Server::HandleLine(const std::string& line, Connection* conn,
                        std::string* out) {
  if (line == "\\stats") {
    JsonWriter w;
    w.BeginObject();
    w.Key("type").String("stats");
    w.Key("server").Raw(stats().ToJson());
    w.Key("engine").Raw(engine_->stats().ToJson());
    w.EndObject();
    *out += w.Take();
    out->push_back('\n');
    return;
  }
  if (line == "\\metrics") {
    metrics_requests_.fetch_add(1, std::memory_order_relaxed);
    // Refresh the registry from the live stats snapshots, then render both
    // formats from the same state — the Prometheus text and the JSON in one
    // frame can never disagree.
    MetricsRegistry& reg = MetricsRegistry::Global();
    engine_->stats().PublishTo(&reg);
    stats().PublishTo(&reg);
    JsonWriter w;
    w.BeginObject();
    w.Key("type").String("metrics");
    w.Key("prometheus").String(reg.ToPrometheusText());
    w.Key("metrics").Raw(reg.ToJson());
    w.EndObject();
    *out += w.Take();
    out->push_back('\n');
    return;
  }
  if (line == "\\trace on" || line == "\\trace off") {
    conn->trace = line == "\\trace on";
    JsonWriter w;
    w.BeginObject();
    w.Key("type").String("trace_mode");
    w.Key("on").Bool(conn->trace);
    w.EndObject();
    *out += w.Take();
    out->push_back('\n');
    return;
  }

  QueryRunOptions run;
  run.trace = conn->trace;
  run.profile = conn->trace;
  if (conn->trace) traced_queries_.fetch_add(1, std::memory_order_relaxed);
  auto result = engine_->Query(line, run);
  if (!result.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    *out += ErrorFrame(result.status().message());
    return;
  }
  queries_.fetch_add(1, std::memory_order_relaxed);
  const QueryResult& qr = *result;
  const Relation& rel = qr.relation;

  {
    JsonWriter w;
    w.BeginObject();
    w.Key("type").String("schema");
    w.Key("attrs").BeginArray();
    for (const Attribute& a : rel.schema().attrs()) {
      w.BeginObject();
      w.Key("name").String(a.name);
      w.Key("type").String(ValueTypeName(a.type));
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    *out += w.Take();
    out->push_back('\n');
  }

  const size_t batch_rows = options_.batch_rows == 0 ? 256 : options_.batch_rows;
  size_t batches = 0;
  for (size_t start = 0; start < rel.size(); start += batch_rows) {
    const size_t end = std::min(rel.size(), start + batch_rows);
    JsonWriter w;
    w.BeginObject();
    w.Key("type").String("batch");
    w.Key("rows").BeginArray();
    for (size_t i = start; i < end; ++i) {
      w.BeginArray();
      for (const Value& v : rel.tuple(i).values()) WriteRowValue(&w, v);
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
    *out += w.Take();
    out->push_back('\n');
    ++batches;
  }
  batches_sent_.fetch_add(batches, std::memory_order_relaxed);
  rows_sent_.fetch_add(rel.size(), std::memory_order_relaxed);

  if (qr.profile != nullptr) {
    JsonWriter w;
    w.BeginObject();
    w.Key("type").String("profile");
    w.Key("profile").Raw(qr.profile->ToJson());
    w.EndObject();
    *out += w.Take();
    out->push_back('\n');
  }
  if (!qr.trace_json.empty()) {
    JsonWriter w;
    w.BeginObject();
    w.Key("type").String("trace");
    w.Key("trace").Raw(qr.trace_json);
    w.EndObject();
    *out += w.Take();
    out->push_back('\n');
  }

  {
    JsonWriter w;
    w.BeginObject();
    w.Key("type").String("done");
    w.Key("rows").Uint(rel.size());
    w.Key("batches").Uint(batches);
    w.Key("plan_cache_hit").Bool(qr.plan_cache_hit);
    w.Key("best_cost").Double(qr.best_cost);
    w.Key("initial_cost").Double(qr.initial_cost);
    w.Key("plans_considered").Uint(qr.plans_considered);
    w.Key("truncated").Bool(qr.truncated);
    w.Key("plan_fingerprint").Uint(qr.plan_fingerprint);
    w.Key("exec").Raw(qr.exec.ToJson());
    w.EndObject();
    *out += w.Take();
    out->push_back('\n');
  }
}

}  // namespace tqp
