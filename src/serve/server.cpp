#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"

namespace ls::serve {

namespace {

void close_quiet(int fd) {
  if (fd >= 0) ::close(fd);
}

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

FrameTimeouts io_timeouts(const ServerOptions& o) {
  FrameTimeouts t;
  t.read_ms = o.read_timeout_ms;
  t.write_ms = o.write_timeout_ms;
  t.idle_ms = o.idle_timeout_ms;
  return t;
}

/// True for accept() failures that mean resource exhaustion rather than a
/// closed listener: back off and retry instead of exiting the accept loop.
bool accept_errno_is_overload(int err) {
  return err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM;
}

/// Self-pipe for SIGTERM/SIGINT: the handler only writes one byte (the
/// single async-signal-safe thing worth doing) and a watcher thread runs
/// the actual drain sequence outside signal context.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_terminate_signal(int) {
  const char byte = 1;
  // Best-effort: if the pipe is already closed we are shutting down anyway.
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

/// Exception-safe decrement for the in-flight frame counter.
struct FrameGuard {
  explicit FrameGuard(std::atomic<int>& c) : counter(c) {
    counter.fetch_add(1, std::memory_order_acq_rel);
  }
  ~FrameGuard() { counter.fetch_sub(1, std::memory_order_acq_rel); }
  std::atomic<int>& counter;
};

}  // namespace

ServeServer::ServeServer(ServeEngine& engine, ServerOptions opts)
    : handler_(nullptr),
      owned_handler_(std::make_unique<EngineFrameHandler>(engine)),
      opts_(std::move(opts)) {
  handler_ = owned_handler_.get();
}

ServeServer::ServeServer(FrameHandler& handler, ServerOptions opts)
    : handler_(&handler), opts_(std::move(opts)) {}

ServeServer::~ServeServer() { stop(); }

void ServeServer::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  LS_FAILPOINT("serve.server.start");

  if (!opts_.unix_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    LS_CHECK(listen_fd_ >= 0,
             "serve: socket() failed: " << std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    LS_CHECK(opts_.unix_path.size() < sizeof(addr.sun_path),
             "unix socket path too long: " << opts_.unix_path);
    std::strncpy(addr.sun_path, opts_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    // A stale socket file from a crashed predecessor would fail the bind.
    ::unlink(opts_.unix_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const int err = errno;
      close_quiet(listen_fd_);
      listen_fd_ = -1;
      running_.store(false);
      throw Error("serve: bind(" + opts_.unix_path +
                  ") failed: " + std::strerror(err));
    }
  } else {
    LS_CHECK(opts_.tcp_port >= 0, "serve: no unix path and no tcp port");
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    LS_CHECK(listen_fd_ >= 0,
             "serve: socket() failed: " << std::strerror(errno));
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opts_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const int err = errno;
      close_quiet(listen_fd_);
      listen_fd_ = -1;
      running_.store(false);
      throw Error("serve: bind(127.0.0.1:" + std::to_string(opts_.tcp_port) +
                  ") failed: " + std::strerror(err));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  }

  LS_CHECK(::listen(listen_fd_, opts_.backlog) == 0,
           "serve: listen() failed: " << std::strerror(errno));
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ServeServer::accept_overload_backoff() {
  // Interruptible pause: stop() must never wait out a long backoff.
  const auto until =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              std::max(0.0, opts_.accept_backoff_ms)));
  while (running_.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void ServeServer::accept_loop() {
  for (;;) {
    const int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0) return;  // stop()/begin_drain() already claimed the listener
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      if (accept_errno_is_overload(err)) {
        // Out of fds (or kernel memory): the listener is still good, the
        // process just cannot take more work right now. Pausing lets the
        // backlog queue new peers while open connections finish and free
        // descriptors — a fatal exit here would turn transient pressure
        // into an outage.
        accept_overload_total_.fetch_add(1, std::memory_order_release);
        metrics::counter_add("serve.accept_overload_total");
        accept_overload_backoff();
        continue;
      }
      // stop() closed the listener (EBADF/EINVAL) — a clean exit.
      return;
    }
    if (!running_.load(std::memory_order_acquire)) {
      close_quiet(fd);
      return;
    }
    if (draining_.load(std::memory_order_acquire)) {
      // Listener close and the draining flag race by a hair; refuse
      // whatever slipped through.
      close_quiet(fd);
      continue;
    }
    try {
      LS_FAILPOINT("serve.accept.overload");
    } catch (const std::exception&) {
      // Injected fd exhaustion: treat exactly like the errno path above.
      close_quiet(fd);
      accept_overload_total_.fetch_add(1, std::memory_order_release);
      metrics::counter_add("serve.accept_overload_total");
      accept_overload_backoff();
      continue;
    }
    if (!govern_and_register(fd)) close_quiet(fd);
  }
}

bool ServeServer::govern_and_register(int fd) {
  const std::int64_t now = now_us();
  std::lock_guard<std::mutex> lk(mu_);
  reap_finished_locked();
  if (opts_.max_connections > 0 && conns_.size() >= opts_.max_connections) {
    // At the cap: evict the connection that has been parked between frames
    // the longest. Only its fd is shut down here — the handler thread owns
    // the close, so the accept loop can never shut down a recycled fd.
    std::shared_ptr<Conn> victim;
    for (const auto& c : conns_) {
      if (c->in_request.load(std::memory_order_acquire)) continue;
      if (!victim || c->last_active_us.load(std::memory_order_acquire) <
                         victim->last_active_us.load(
                             std::memory_order_acquire)) {
        victim = c;
      }
    }
    if (!victim) {
      // Every connection is mid-request: shedding the newcomer is the only
      // move that does not abort work already paid for.
      rejected_total_.fetch_add(1, std::memory_order_release);
      metrics::counter_add("serve.rejected_total");
      return false;
    }
    ::shutdown(victim->fd, SHUT_RDWR);
    conns_.erase(std::remove(conns_.begin(), conns_.end(), victim),
                 conns_.end());
    evictions_total_.fetch_add(1, std::memory_order_release);
    metrics::counter_add("serve.evictions_total");
  }
  const std::int64_t conn_id =
      connections_total_.fetch_add(1, std::memory_order_release) + 1;
  auto conn =
      std::make_shared<Conn>(fd, static_cast<std::uint64_t>(conn_id));
  conn->last_active_us.store(now, std::memory_order_release);
  conns_.push_back(conn);
  metrics::counter_add("serve.connections_total");
  std::thread t([this, conn] { handle_connection(conn); });
  const std::thread::id id = t.get_id();
  handlers_.emplace(id, std::move(t));
  return true;
}

void ServeServer::reap_finished_locked() {
  // Joining under mu_ is safe: a handler's id lands in finished_ in its own
  // final critical section, after which the thread only closes its fd and
  // returns — it never takes mu_ again.
  std::vector<std::thread::id> pending;
  for (const std::thread::id id : finished_) {
    auto it = handlers_.find(id);
    if (it == handlers_.end()) {
      // Handler finished before govern_and_register() recorded its thread;
      // keep the id for the next reap.
      pending.push_back(id);
      continue;
    }
    it->second.join();
    handlers_.erase(it);
  }
  finished_ = std::move(pending);
}

void ServeServer::handle_connection(std::shared_ptr<Conn> conn) {
  const int fd = conn->fd;
  const FrameTimeouts t = io_timeouts(opts_);
  bool usable = true;
  try {
    // Nonblocking mode makes every read()/write() return immediately, so
    // the poll()-based deadlines in read_frame/write_frame are authoritative
    // even for frames larger than the socket buffer.
    make_nonblocking(fd);
  } catch (const std::exception&) {
    usable = false;
  }

  Frame frame;
  while (usable) {
    conn->in_request.store(false, std::memory_order_release);
    bool alive = false;
    try {
      LS_FAILPOINT("serve.conn.read");
      alive = read_frame(fd, frame, t);
    } catch (const IoError& e) {
      switch (e.kind()) {
        case IoErrorKind::kIdle:
          idle_timeouts_total_.fetch_add(1, std::memory_order_release);
          metrics::counter_add("serve.idle_timeouts_total");
          break;
        case IoErrorKind::kTimeout:
          // Slow-loris: the frame started but never finished inside the
          // read budget. Drop the connection; the worker is free again.
          read_timeouts_total_.fetch_add(1, std::memory_order_release);
          metrics::counter_add("serve.read_timeouts_total");
          break;
        case IoErrorKind::kClosed:
          break;  // peer vanished mid-frame; nothing left to say
        default:
          // Stream desync (kTorn) or socket error: answer kBadFrame on a
          // best-effort basis and drop only this client.
          protocol_errors_total_.fetch_add(1, std::memory_order_release);
          metrics::counter_add("serve.protocol_errors_total");
          try {
            write_frame(
                fd, MsgType::kStatusResp,
                encode_status_response(Status::kBadFrame, "bad frame"), t);
          } catch (const std::exception&) {
          }
          break;
      }
      break;
    } catch (const std::exception&) {
      protocol_errors_total_.fetch_add(1, std::memory_order_release);
      metrics::counter_add("serve.protocol_errors_total");
      try {
        write_frame(fd, MsgType::kStatusResp,
                    encode_status_response(Status::kBadFrame, "bad frame"),
                    t);
      } catch (const std::exception&) {
      }
      break;
    }
    if (!alive) break;

    conn->in_request.store(true, std::memory_order_release);
    conn->last_active_us.store(now_us(), std::memory_order_release);
    conn->frames.fetch_add(1, std::memory_order_relaxed);
    frames_total_.fetch_add(1, std::memory_order_release);
    metrics::counter_add("serve.frames_total");

    bool keep = false;
    try {
      FrameGuard g(active_frames_);
      FrameContext ctx;
      ctx.fd = fd;
      ctx.timeouts = t;
      ctx.draining = draining_.load(std::memory_order_acquire);
      ctx.conn_id = conn->id;
      ctx.server = this;
      const FrameDisposition d = handler_->on_frame(ctx, frame);
      if (d == FrameDisposition::kStopServer) request_stop();
      keep = d == FrameDisposition::kKeep;
    } catch (const IoError& e) {
      if (e.kind() == IoErrorKind::kTimeout) {
        write_timeouts_total_.fetch_add(1, std::memory_order_release);
        metrics::counter_add("serve.write_timeouts_total");
      }
      break;  // response undeliverable — nothing left to say to this client
    } catch (const std::exception&) {
      protocol_errors_total_.fetch_add(1, std::memory_order_release);
      metrics::counter_add("serve.protocol_errors_total");
      break;
    }
    conn->last_active_us.store(now_us(), std::memory_order_release);
    if (!keep) break;
  }

  // Deregister BEFORE closing: once the fd is closed the number can be
  // recycled by a new accept, and the eviction scan must never be able to
  // shut down a recycled descriptor.
  {
    std::lock_guard<std::mutex> lk(mu_);
    conns_.erase(std::remove(conns_.begin(), conns_.end(), conn),
                 conns_.end());
    finished_.push_back(std::this_thread::get_id());
  }
  ::shutdown(fd, SHUT_RDWR);
  close_quiet(fd);
}

FrameDisposition EngineFrameHandler::on_frame(const FrameContext& ctx,
                                              const Frame& frame) {
  const int fd = ctx.fd;
  const FrameTimeouts& t = ctx.timeouts;
  switch (frame.type) {
    case MsgType::kPredictReq: {
      std::string model;
      SparseVector x;
      double deadline_ms = 0.0;
      try {
        decode_predict_request(frame.payload, model, x, &deadline_ms);
      } catch (const std::exception&) {
        ctx.server->note_protocol_error();
        write_frame(fd, MsgType::kPredictResp,
                    encode_predict_response(
                        PredictResult{Status::kBadFrame, 0.0, 0.0}),
                    t);
        return FrameDisposition::kKeep;
      }
      if (ctx.draining) {
        // New work is refused during drain; only requests accepted before
        // begin_drain() still flow to completion.
        write_frame(fd, MsgType::kPredictResp,
                    encode_predict_response(
                        PredictResult{Status::kShuttingDown, 0.0, 0.0}),
                    t);
        return FrameDisposition::kKeep;
      }
      const PredictResult r =
          engine_->predict(model, std::move(x), deadline_ms);
      LS_FAILPOINT("serve.conn.write");
      write_frame(fd, MsgType::kPredictResp, encode_predict_response(r), t);
      return FrameDisposition::kKeep;
    }
    case MsgType::kReloadReq: {
      std::string model;
      try {
        model = decode_reload_request(frame.payload);
      } catch (const std::exception&) {
        write_frame(fd, MsgType::kStatusResp,
                    encode_status_response(Status::kBadFrame, "bad frame"),
                    t);
        return FrameDisposition::kKeep;
      }
      try {
        engine_->reload_model(model);
        write_frame(
            fd, MsgType::kStatusResp,
            encode_status_response(Status::kOk, "reloaded " + model), t);
      } catch (const std::exception& e) {
        // A failed reload leaves the previous version serving.
        write_frame(fd, MsgType::kStatusResp,
                    encode_status_response(Status::kInternal, e.what()), t);
      }
      return FrameDisposition::kKeep;
    }
    case MsgType::kStatsReq:
      write_frame(fd, MsgType::kStatusResp,
                  encode_status_response(Status::kOk,
                                         engine_->stats_text() +
                                             ctx.server->stats_text()),
                  t);
      return FrameDisposition::kKeep;
    case MsgType::kHealthReq: {
      // Drain state outranks the engine view: a draining server must stop
      // receiving traffic even though the engine is still healthy.
      const char* state = ctx.draining ? "draining" : engine_->health_name();
      write_frame(fd, MsgType::kStatusResp,
                  encode_status_response(Status::kOk, state), t);
      return FrameDisposition::kKeep;
    }
    case MsgType::kModelsReq:
      write_frame(
          fd, MsgType::kStatusResp,
          encode_status_response(Status::kOk, engine_->models_text()), t);
      return FrameDisposition::kKeep;
    case MsgType::kPingReq:
      write_frame(fd, MsgType::kStatusResp,
                  encode_status_response(Status::kOk, "pong"), t);
      return FrameDisposition::kKeep;
    case MsgType::kShutdownReq:
      write_frame(fd, MsgType::kStatusResp,
                  encode_status_response(Status::kOk, "shutting down"), t);
      return FrameDisposition::kStopServer;
    case MsgType::kIngestReq:
      // The serve tier hosts no training windows; ingest belongs to the
      // trainer daemon's handler. Answer rather than desync the stream.
      write_frame(fd, MsgType::kStatusResp,
                  encode_status_response(Status::kBadFrame,
                                         "ingest not supported here"),
                  t);
      return FrameDisposition::kKeep;
    case MsgType::kPredictResp:
    case MsgType::kStatusResp:
      // Response types are not valid requests.
      ctx.server->note_protocol_error();
      write_frame(fd, MsgType::kStatusResp,
                  encode_status_response(Status::kBadFrame,
                                         "response type sent as request"),
                  t);
      return FrameDisposition::kKeep;
  }
  return FrameDisposition::kKeep;
}

void ServeServer::note_protocol_error() {
  protocol_errors_total_.fetch_add(1, std::memory_order_release);
  metrics::counter_add("serve.protocol_errors_total");
}

void ServeServer::request_stop() {
  {
    // The lock pairs with wait()'s predicate check so the notify cannot
    // slip between a waiter's check and its block.
    std::lock_guard<std::mutex> lk(mu_);
    stop_requested_.store(true, std::memory_order_release);
  }
  stop_cv_.notify_all();
}

void ServeServer::wait() {
  std::unique_lock<std::mutex> lk(mu_);
  stop_cv_.wait(lk, [&] {
    return stop_requested_.load(std::memory_order_acquire) ||
           !running_.load(std::memory_order_acquire);
  });
}

void ServeServer::begin_drain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  metrics::annotate("serve.state", "draining");
  // Closing the listener refuses new connections at the kernel level; the
  // accept thread sees lfd < 0 (or a failing accept) and exits. exchange()
  // claims the fd so a concurrent stop() cannot double-close it.
  const int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    close_quiet(lfd);
  }
}

bool ServeServer::drain(double bound_ms) {
  begin_drain();
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double, std::milli>(
                   std::max(0.0, bound_ms)));
  bool quiesced = false;
  for (;;) {
    if (active_frames_.load(std::memory_order_acquire) == 0 &&
        handler_->quiesced()) {
      quiesced = true;
      break;
    }
    if (bound_ms > 0 && std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  drain_seconds_.store(secs, std::memory_order_release);
  metrics::gauge_set("serve.drain_seconds", secs);
  return quiesced;
}

void ServeServer::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  request_stop();

  // Closing the listener unblocks accept(); shutting down the client fds
  // unblocks any handler parked in read_frame(). exchange() claims the fd
  // so the accept thread never touches it after the close.
  const int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    close_quiet(lfd);
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& c : conns_) ::shutdown(c->fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // Handlers deregister themselves but their threads are joined here, after
  // the accept loop is down, so no new ones can appear.
  std::map<std::thread::id, std::thread> handlers;
  {
    std::lock_guard<std::mutex> lk(mu_);
    handlers.swap(handlers_);
    finished_.clear();
  }
  for (auto& [id, thread] : handlers) {
    (void)id;
    if (thread.joinable()) thread.join();
  }
  if (!opts_.unix_path.empty()) ::unlink(opts_.unix_path.c_str());
}

ServerStats ServeServer::server_stats() const {
  ServerStats s;
  s.connections_total = connections_total_.load(std::memory_order_acquire);
  s.frames_total = frames_total_.load(std::memory_order_acquire);
  s.evictions_total = evictions_total_.load(std::memory_order_acquire);
  s.rejected_total = rejected_total_.load(std::memory_order_acquire);
  s.idle_timeouts_total =
      idle_timeouts_total_.load(std::memory_order_acquire);
  s.read_timeouts_total =
      read_timeouts_total_.load(std::memory_order_acquire);
  s.write_timeouts_total =
      write_timeouts_total_.load(std::memory_order_acquire);
  s.accept_overload_total =
      accept_overload_total_.load(std::memory_order_acquire);
  s.protocol_errors_total =
      protocol_errors_total_.load(std::memory_order_acquire);
  s.draining = draining_.load(std::memory_order_acquire);
  s.drain_seconds = drain_seconds_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lk(mu_);
    s.connections_open = conns_.size();
  }
  return s;
}

std::string ServeServer::stats_text() const {
  const ServerStats s = server_stats();
  std::ostringstream os;
  os << "connections_open " << s.connections_open << '\n'
     << "connections_total " << s.connections_total << '\n'
     << "frames_total " << s.frames_total << '\n'
     << "evictions_total " << s.evictions_total << '\n'
     << "rejected_total " << s.rejected_total << '\n'
     << "idle_timeouts_total " << s.idle_timeouts_total << '\n'
     << "read_timeouts_total " << s.read_timeouts_total << '\n'
     << "write_timeouts_total " << s.write_timeouts_total << '\n'
     << "accept_overload_total " << s.accept_overload_total << '\n'
     << "server_protocol_errors_total " << s.protocol_errors_total << '\n'
     << "draining " << (s.draining ? 1 : 0) << '\n'
     << "drain_seconds " << s.drain_seconds << '\n';
  return os.str();
}

void serve_until_shutdown(ServeServer& server, double drain_ms) {
  std::signal(SIGPIPE, SIG_IGN);
  LS_CHECK(::pipe(g_signal_pipe) == 0, "serve_until_shutdown: pipe() failed");
  struct sigaction sa{};
  sa.sa_handler = on_terminate_signal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  std::thread signal_watcher([&] {
    char byte = 0;
    ssize_t n;
    do {
      n = ::read(g_signal_pipe[0], &byte, 1);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return;  // write end closed: normal shutdown, nothing to do
    std::printf("signal received, draining (bound %gms)...\n", drain_ms);
    std::fflush(stdout);
    const bool quiesced = server.drain(drain_ms);
    std::printf("drain %s in %.3fs\n", quiesced ? "complete" : "timed out",
                server.server_stats().drain_seconds);
    std::fflush(stdout);
    server.stop();  // wakes server.wait() below
  });

  server.wait();  // until kShutdownReq, SIGTERM/SIGINT drain, or stop()

  // Unblock the watcher if it is still parked on the pipe (shutdown came
  // through the protocol verb), then finish teardown in one place.
  ::close(g_signal_pipe[1]);
  g_signal_pipe[1] = -1;
  signal_watcher.join();
  ::close(g_signal_pipe[0]);
  g_signal_pipe[0] = -1;
  server.stop();
}

}  // namespace ls::serve
