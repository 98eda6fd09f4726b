// route_tool — the replicated-serving router daemon.
//
// Fronts N serve_tool replicas behind one socket speaking the unchanged
// LSRV protocol: clients need no changes, they just point at the router.
// A consistent-hash ring gives each (model, client) stream a sticky
// replica, a background prober tracks replica health, per-replica circuit
// breakers trip on transport failures, and idempotent requests fail over
// along the ring — a rolling restart of every replica in sequence loses
// zero requests.
//
//   # three replicas (separate terminals or a supervisor)
//   ./serve_tool --socket /tmp/ls_r1.sock --models demo=/tmp/ls_demo_model.txt
//   ./serve_tool --socket /tmp/ls_r2.sock --models demo=/tmp/ls_demo_model.txt
//   ./serve_tool --socket /tmp/ls_r3.sock --models demo=/tmp/ls_demo_model.txt
//
//   # the router in front of them
//   ./route_tool --socket /tmp/ls_router.sock
//       --replicas unix:/tmp/ls_r1.sock,unix:/tmp/ls_r2.sock,unix:/tmp/ls_r3.sock
//       (one line)
//
//   # clients talk to the router exactly like to a single daemon
//   ./serve_client --socket /tmp/ls_router.sock --mode ping
//   ./serve_client --socket /tmp/ls_router.sock --mode bench --model demo
//       --data /tmp/ls_demo_test.libsvm --retries 8 --timeout-ms 2000   (one line)
//
// SIGTERM/SIGINT drain the router (stop accepting, finish in-flight
// frames) exactly like serve_tool; `--mode shutdown` stops the router
// only, never the replicas.
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/observability.hpp"
#include "route/router.hpp"
#include "serve/server.hpp"

namespace {

int run(int argc, char** argv) {
  ls::CliParser cli("route_tool",
                    "Consistent-hash router over N serve_tool replicas "
                    "with health probing, circuit breakers and failover");
  cli.add_flag("replicas", "",
               "comma-separated replica endpoints: unix:PATH or tcp:PORT");
  cli.add_flag("socket", "", "unix-domain socket path to listen on");
  cli.add_flag("port", "-1",
               "loopback TCP port to listen on instead of --socket "
               "(0 = kernel-assigned, printed at startup)");
  cli.add_flag("vnodes", "64", "virtual ring points per replica");
  cli.add_flag("probe-interval-ms", "200",
               "base health-probe cadence per replica (jittered)");
  cli.add_flag("probe-timeout-ms", "250",
               "hard per-probe deadline (connect and request)");
  cli.add_flag("probe-backoff-max-ms", "2000",
               "cap of the per-replica probe backoff after failures");
  cli.add_flag("breaker-failures", "5",
               "consecutive transport failures that open a breaker");
  cli.add_flag("breaker-open-ms", "1000",
               "breaker cooldown before a half-open trial");
  cli.add_flag("upstream-timeout-ms", "2000",
               "per-attempt upstream request budget (0 = unbounded)");
  cli.add_flag("max-failover", "0",
               "max distinct replicas tried per request (0 = all)");
  cli.add_flag("max-connections", "256",
               "downstream connection cap (0 = unlimited)");
  cli.add_flag("read-timeout-ms", "5000",
               "per-frame receive budget (0 = unbounded)");
  cli.add_flag("write-timeout-ms", "5000",
               "per-frame send budget (0 = unbounded)");
  cli.add_flag("idle-timeout-ms", "0",
               "close connections idle this long (0 = keep forever)");
  cli.add_flag("drain-ms", "5000",
               "bound on finishing in-flight work after SIGTERM/SIGINT");
  ls::add_observability_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  const ls::ObservabilityScope observability(cli);

  ls::route::RouterOptions ropts;
  ropts.ring.vnodes = static_cast<int>(cli.get_int("vnodes"));
  ropts.probe.interval_ms = cli.get_double("probe-interval-ms");
  ropts.probe.probe_timeout_ms = cli.get_double("probe-timeout-ms");
  ropts.probe.backoff_max_ms = cli.get_double("probe-backoff-max-ms");
  ropts.probe.seed ^= static_cast<std::uint64_t>(::getpid());
  ropts.breaker.failure_threshold =
      static_cast<int>(cli.get_int("breaker-failures"));
  ropts.breaker.open_ms = cli.get_double("breaker-open-ms");
  ropts.upstream_request_timeout_ms = cli.get_double("upstream-timeout-ms");
  ropts.max_failover = static_cast<int>(cli.get_int("max-failover"));

  ls::serve::ServerOptions listen;
  listen.unix_path = cli.get("socket");
  listen.tcp_port = static_cast<int>(cli.get_int("port"));
  listen.max_connections =
      static_cast<std::size_t>(cli.get_int("max-connections"));
  listen.read_timeout_ms = cli.get_double("read-timeout-ms");
  listen.write_timeout_ms = cli.get_double("write-timeout-ms");
  listen.idle_timeout_ms = cli.get_double("idle-timeout-ms");
  const double drain_ms = cli.get_double("drain-ms");
  LS_CHECK(!listen.unix_path.empty() || listen.tcp_port >= 0,
           "pass --socket PATH or --port N (0 = kernel-assigned)");

  const std::vector<ls::route::ReplicaEndpoint> replicas =
      ls::route::parse_replica_list(cli.get("replicas"));
  ls::route::Router router(replicas, ropts);
  router.start();

  ls::serve::ServeServer server(router, listen);
  server.start();
  if (!listen.unix_path.empty()) {
    std::printf("routing on unix:%s -> %zu replicas\n",
                listen.unix_path.c_str(), replicas.size());
  } else {
    std::printf("routing on tcp:127.0.0.1:%d -> %zu replicas\n",
                server.port(), replicas.size());
  }
  for (const auto& ep : replicas) {
    std::printf("  replica %s\n", ep.id().c_str());
  }
  std::fflush(stdout);

  ls::serve::serve_until_shutdown(server, drain_ms);
  router.stop();

  std::printf("--- final stats ---\n%s%s", router.stats_text().c_str(),
              server.stats_text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "route_tool: %s\n", e.what());
    return 1;
  }
}
