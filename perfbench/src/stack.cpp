#include "stack.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "svm/serialize.hpp"

namespace perfbench {

namespace lsv = ls::serve;

namespace {

std::unique_ptr<lsv::ServeServer> listen_on(lsv::FrameHandler& h,
                                            const std::string& path) {
  lsv::ServerOptions o;
  o.unix_path = path;
  auto s = std::make_unique<lsv::ServeServer>(h, o);
  s->start();
  return s;
}

std::unique_ptr<lsv::ServeServer> listen_on(lsv::ServeEngine& e,
                                            const std::string& path) {
  lsv::ServerOptions o;
  o.unix_path = path;
  auto s = std::make_unique<lsv::ServeServer>(e, o);
  s->start();
  return s;
}

}  // namespace

void Stack::shutdown() {
  if (trainer) trainer->stop();
  if (trainer_server) trainer_server->stop();
  if (router_server) router_server->stop();
  if (router) router->stop();
  if (replica) replica->stop();
  if (server) server->stop();
  if (engine) engine->stop();
  trainer_server.reset();
  handler.reset();
  trainer.reset();
  router_server.reset();
  router.reset();
  replica.reset();
  server.reset();
  engine.reset();
}

std::unique_ptr<Stack> build_stack(const Inputs& in,
                                   const std::string& served_name,
                                   const std::string& served_path, int k,
                                   Tracer& tracer) {
  auto stack = std::make_unique<Stack>();
  Stack& s = *stack;
  const std::string tag = std::to_string(k);
  s.served_name = served_name;
  s.serve_sock = "s" + tag + ".sock";
  s.replica_sock = "r" + tag + ".sock";
  s.router_sock = "q" + tag + ".sock";
  s.trainer_sock = "t" + tag + ".sock";
  s.stream_model_path = "stream" + tag + ".model";
  ls::save_model_file(s.stream_model_path, in.bootstrap_model);

  s.engine = std::make_unique<lsv::ServeEngine>(lsv::ServeOptions{});
  s.engine->start();
  traced(tracer, "serve.load_model.served",
         [&] { s.engine->load_model(served_name, served_path); });
  traced(tracer, "serve.load_model.stream",
         [&] { s.engine->load_model(kStreamModel, s.stream_model_path); });
  s.server = listen_on(*s.engine, s.serve_sock);
  s.replica = listen_on(*s.engine, s.replica_sock);

  std::vector<ls::route::ReplicaEndpoint> replicas(2);
  replicas[0].unix_path = s.serve_sock;
  replicas[1].unix_path = s.replica_sock;
  s.router = std::make_unique<ls::route::Router>(replicas,
                                                 ls::route::RouterOptions{});
  s.router->start();
  s.router_server = listen_on(*s.router, s.router_sock);
  const auto give_up = Clock::now() + std::chrono::seconds(10);
  while (s.router->stats().routable_replicas < replicas.size()) {
    if (Clock::now() > give_up) {
      throw std::runtime_error("router replicas never became routable");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ls::train::TrainerOptions topts;
  topts.publish_unix = s.serve_sock;
  s.trainer = std::make_unique<ls::train::ContinuousTrainer>(topts);
  ls::train::TrainerModelConfig cfg;
  cfg.name = kStreamModel;
  cfg.model_path = s.stream_model_path;
  cfg.wal_dir = "wal" + tag;
  s.trainer->add_model(cfg);
  for (std::int64_t id = 0; id < Inputs::kBootstrapRows; ++id) {
    const ls::index_t row = id % in.stream.rows();
    ls::SparseVector x;
    in.stream.X.gather_row(row, x);
    const auto st = s.trainer->ingest(
        kStreamModel, std::move(x),
        in.stream.y[static_cast<std::size_t>(row)], nullptr, id);
    if (st != lsv::Status::kOk) {
      throw std::runtime_error("bootstrap ingest refused");
    }
  }
  s.handler = std::make_unique<ls::train::TrainFrameHandler>(*s.trainer);
  s.trainer_server = listen_on(*s.handler, s.trainer_sock);
  return stack;
}

}  // namespace perfbench
