// Socket front-end of the serving engine.
//
// Listens on a Unix-domain socket (the default for local serving: no
// network stack, filesystem permissions) or a loopback TCP port, accepts
// connections on a dedicated thread and runs one handler thread per
// connection. Handlers speak the framed protocol of serve/protocol.hpp and
// call straight into the ServeEngine — concurrency control (batching,
// admission, shedding) lives there, not in the socket layer.
//
// Overload and failure containment:
//   - Every connection's frame I/O is deadline-bounded (read / write /
//     idle timeouts), so a slow-loris peer can never pin a handler thread.
//   - A max-connections cap with oldest-idle eviction bounds the handler
//     pool; EMFILE/ENFILE on accept() backs off briefly instead of
//     crashing the accept loop.
//   - A malformed frame is answered with kBadFrame and the connection is
//     closed; an I/O error (failpoint-injectable via serve.frame.read /
//     serve.frame.write / serve.frame.partial / serve.conn.read /
//     serve.conn.write / serve.accept.overload) tears down only its own
//     connection. The accept loop and every other client keep running.
//   - begin_drain()/drain() implement graceful shutdown: stop accepting,
//     answer new predicts with kShuttingDown, let accepted work finish
//     under a bound, then stop() closes what is left.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/engine.hpp"

namespace ls::serve {

class ServeServer;

/// What on_frame() tells the server to do once the frame is answered.
enum class FrameDisposition : std::uint8_t {
  kKeep,        ///< keep the connection open for the next frame
  kClose,       ///< wind down this connection only
  kStopServer,  ///< stop the whole server (the shutdown verb)
};

/// Per-frame context handed to a FrameHandler: where to write the reply,
/// under which I/O budgets, and the server's lifecycle state.
struct FrameContext {
  int fd = -1;
  FrameTimeouts timeouts;
  bool draining = false;
  /// Stable 1-based id of the connection the frame arrived on — the
  /// router tier folds it into the consistent-hash key so one client's
  /// stream sticks to one replica.
  std::uint64_t conn_id = 0;
  ServeServer* server = nullptr;
};

/// Application logic behind the socket front-end. ServeServer owns accept,
/// connection governance, frame deadlines, draining and teardown; the
/// handler owns what each verb means. The stock EngineFrameHandler serves
/// a local ServeEngine; the router tier (src/route) implements the same
/// interface to proxy frames onto replicas.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;

  /// Serves one decoded request frame, writing the reply with
  /// write_frame() on ctx.fd under ctx.timeouts. A thrown IoError drops
  /// the connection (counted as a write timeout when classified so); any
  /// other exception counts as a protocol error and drops the connection.
  virtual FrameDisposition on_frame(const FrameContext& ctx,
                                    const Frame& frame) = 0;

  /// Drain predicate beyond the in-flight frame count: true when no work
  /// is pending behind the sockets (e.g. the engine queue is empty).
  virtual bool quiesced() const { return true; }
};

/// The stock handler: serves a local ServeEngine (predict / reload /
/// stats / ping / health / shutdown — the verbs serve_tool exposes).
class EngineFrameHandler final : public FrameHandler {
 public:
  explicit EngineFrameHandler(ServeEngine& engine) : engine_(&engine) {}
  FrameDisposition on_frame(const FrameContext& ctx,
                            const Frame& frame) override;
  bool quiesced() const override { return engine_->idle(); }

 private:
  ServeEngine* engine_;
};

/// Listener configuration: set `unix_path` for AF_UNIX (preferred), or
/// leave it empty and set `tcp_port` (0 = kernel-assigned, see port())
/// for loopback TCP.
struct ServerOptions {
  std::string unix_path;
  int tcp_port = -1;
  int backlog = 64;
  /// Connection cap (0 = unlimited). At the cap, the oldest connection
  /// that is idle between frames is evicted to admit the newcomer; when
  /// every connection is mid-request the newcomer is rejected instead.
  std::size_t max_connections = 256;
  /// Whole-frame receive budget once a frame's first byte arrived
  /// (anti-slow-loris). 0 = unbounded.
  double read_timeout_ms = 5000.0;
  /// Whole-frame send budget (peer stops draining its buffer). 0 = off.
  double write_timeout_ms = 5000.0;
  /// How long a connection may sit between frames before it is closed.
  /// 0 = forever (the eviction policy still bounds the total).
  double idle_timeout_ms = 0.0;
  /// Pause after an fd-exhaustion accept() failure (EMFILE/ENFILE/...)
  /// before retrying, so the accept loop degrades instead of spinning.
  double accept_backoff_ms = 20.0;
};

/// Point-in-time socket-layer statistics (engine stats live in ServeStats).
struct ServerStats {
  std::int64_t connections_total = 0;
  std::int64_t frames_total = 0;
  std::int64_t evictions_total = 0;       ///< oldest-idle evicted at the cap
  std::int64_t rejected_total = 0;        ///< cap hit with no idle victim
  std::int64_t idle_timeouts_total = 0;
  std::int64_t read_timeouts_total = 0;
  std::int64_t write_timeouts_total = 0;
  std::int64_t accept_overload_total = 0; ///< EMFILE-class accept backoffs
  std::int64_t protocol_errors_total = 0;
  std::size_t connections_open = 0;
  bool draining = false;
  double drain_seconds = 0.0;             ///< duration of the last drain()
};

/// Threaded socket server over a FrameHandler. The handler (or engine)
/// must outlive the server and is shared — in-process callers can keep
/// using an engine directly while it is being served.
class ServeServer {
 public:
  /// Serves a local engine through the stock EngineFrameHandler.
  ServeServer(ServeEngine& engine, ServerOptions opts);
  /// Serves an arbitrary handler (the router tier's entry point).
  ServeServer(FrameHandler& handler, ServerOptions opts);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds, listens and spawns the accept thread. Throws ls::Error when
  /// the address cannot be bound.
  void start();

  /// Closes the listener and every open connection, then joins all
  /// threads. Idempotent; the destructor calls it.
  void stop();

  /// Blocks until a client sends kShutdownReq or another thread calls
  /// stop(). The caller still runs stop() afterwards to join threads.
  void wait();

  /// Enters the draining state: stops accepting new connections and
  /// answers further predict requests with kShuttingDown, while accepted
  /// work keeps flowing. Idempotent.
  void begin_drain();

  /// begin_drain(), then blocks until every in-flight frame is answered
  /// and the engine queue is empty, or `bound_ms` elapses. Returns true
  /// when fully quiesced within the bound. Call stop() afterwards.
  bool drain(double bound_ms);

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// Socket-layer counters; engine counters come from ServeEngine::stats().
  ServerStats server_stats() const;

  /// Human-readable socket-layer stats block (appended to the engine's
  /// block in the kStatsReq reply).
  std::string stats_text() const;

  /// Actual TCP port after start() (useful with tcp_port = 0).
  int port() const { return port_; }

  /// Counts one malformed frame / payload. Public so FrameHandler
  /// implementations can attribute decode failures to this listener.
  void note_protocol_error();

 private:
  /// Per-connection bookkeeping shared between its handler thread and the
  /// accept loop's governance (eviction victim selection).
  struct Conn {
    Conn(int fd_, std::uint64_t id_) : fd(fd_), id(id_) {}
    const int fd;
    const std::uint64_t id;
    std::atomic<std::int64_t> frames{0};
    std::atomic<std::int64_t> last_active_us{0};
    /// False while parked between frames — the eviction predicate.
    std::atomic<bool> in_request{false};
  };

  void accept_loop();
  void accept_overload_backoff();
  void handle_connection(std::shared_ptr<Conn> conn);
  void request_stop();
  /// Joins handler threads whose connections already finished. mu_ held.
  void reap_finished_locked();
  /// Admits `fd` under the connection cap, evicting the oldest idle
  /// connection if needed. Returns false when the newcomer was rejected.
  bool govern_and_register(int fd);

  FrameHandler* handler_;
  /// Set by the engine-taking constructor, which wraps the engine in an
  /// EngineFrameHandler owned here.
  std::unique_ptr<FrameHandler> owned_handler_;
  ServerOptions opts_;
  /// Atomic because stop() claims-and-closes it (exchange to -1) while the
  /// accept thread re-reads it each iteration.
  std::atomic<int> listen_fd_{-1};
  int port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> draining_{false};
  std::thread accept_thread_;
  mutable std::mutex mu_;          // guards conns_ / handlers_ / finished_
  std::condition_variable stop_cv_;
  std::vector<std::shared_ptr<Conn>> conns_;
  /// Live handler threads by id; finished handlers enqueue their id in
  /// finished_ and are joined on the next accept (or in stop()), so the
  /// thread table stays proportional to open connections, not to the
  /// connection churn since startup.
  std::map<std::thread::id, std::thread> handlers_;
  std::vector<std::thread::id> finished_;

  /// Frames currently being served (read done, response not yet written) —
  /// the drain() predicate, together with ServeEngine::idle().
  std::atomic<int> active_frames_{0};
  std::atomic<std::int64_t> connections_total_{0};
  std::atomic<std::int64_t> frames_total_{0};
  std::atomic<std::int64_t> evictions_total_{0};
  std::atomic<std::int64_t> rejected_total_{0};
  std::atomic<std::int64_t> idle_timeouts_total_{0};
  std::atomic<std::int64_t> read_timeouts_total_{0};
  std::atomic<std::int64_t> write_timeouts_total_{0};
  std::atomic<std::int64_t> accept_overload_total_{0};
  std::atomic<std::int64_t> protocol_errors_total_{0};
  std::atomic<double> drain_seconds_{0.0};
};

/// Daemon main loop for a started server: ignores SIGPIPE (a dead peer is
/// an error on its own connection, not the process's death), routes
/// SIGTERM/SIGINT through a self-pipe to a watcher thread that runs
/// drain(drain_ms) and logs "drain complete|timed out", then blocks until
/// a shutdown verb, a signal-driven drain or stop() ends serving. Returns
/// with the server stopped and the signal handlers still installed (a
/// later signal is a no-op). One server per process.
void serve_until_shutdown(ServeServer& server, double drain_ms);

}  // namespace ls::serve
