// The serving and training tier of one run, built from library defaults:
//
//   ServeEngine ── ServeServer  s<k>.sock   (direct predicts, trainer
//        │                                   publishes reloads here)
//        └────── ServeServer  r<k>.sock   (second replica endpoint)
//   Router over {s<k>, r<k>} ── ServeServer q<k>.sock (routed predicts)
//   ContinuousTrainer ── TrainFrameHandler ── ServeServer t<k>.sock
//
// The two replica endpoints share one engine: the router hop is what the
// routed phase measures, and a second copy of every model would double
// set-up time without touching that hop. Socket paths are relative to the
// run's working directory.
#pragma once

#include <memory>
#include <string>

#include "inputs.hpp"
#include "route/router.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "train/continuous_trainer.hpp"
#include "train/handler.hpp"
#include "tracer.hpp"

namespace perfbench {

inline const std::string kStreamModel = "stream";

struct Stack {
  std::string served_name;  ///< the family's served profile name
  std::string serve_sock, replica_sock, router_sock, trainer_sock;
  std::string stream_model_path;

  std::unique_ptr<ls::serve::ServeEngine> engine;
  std::unique_ptr<ls::serve::ServeServer> server;
  std::unique_ptr<ls::serve::ServeServer> replica;
  std::unique_ptr<ls::route::Router> router;
  std::unique_ptr<ls::serve::ServeServer> router_server;
  std::unique_ptr<ls::train::ContinuousTrainer> trainer;
  std::unique_ptr<ls::train::TrainFrameHandler> handler;
  std::unique_ptr<ls::serve::ServeServer> trainer_server;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { shutdown(); }

  /// Stops everything in reverse start order and waits for each part.
  void shutdown();
};

/// Builds stack number `k` (file and socket names carry k so repeated
/// set-ups never collide): starts the engine, loads the served model from
/// `served_path` and the bootstrap stream model, starts the replica
/// endpoints and the router (returns once both replicas are routable),
/// opens the trainer with a fresh journal and ingests the bootstrap rows.
/// The trainer's cadence thread is not started. Throws on any failure.
std::unique_ptr<Stack> build_stack(const Inputs& in,
                                   const std::string& served_name,
                                   const std::string& served_path, int k,
                                   Tracer& tracer);

}  // namespace perfbench
