// Micro-batcher: the bounded request queue of the serving engine.
//
// Concurrent predict requests are coalesced into batches that the worker
// pool scores with one multiply_dense_batch stream instead of one SMSV per
// request. There is one batching rule (DESIGN.md §12): a worker that is
// free takes, at once, up to max_batch queued requests of one tenant's
// cohort — the tenant with the least service so far on a start-time
// virtual clock (DESIGN.md §17). Nothing waits for a batch to fill;
// batches grow only while every worker is busy scoring, so a lone request
// is never delayed and a flooding tenant cannot starve a trickling one.
// With a single tenant the rule is plain FIFO.
//
// A cohort is one model version (batches never mix models — they share
// one BatchPredictor call); extraction keeps arrival order within the
// cohort and leaves the skipped requests in their order. Admission control
// happens at submit(): when the queue already holds max_queue requests, or
// the tenant already holds max_per_model, the submission is rejected
// immediately — shedding at the door is cheaper than timing out after
// queueing.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "formats/sparse_vector.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace ls::serve {

/// One queued request: the model version pinned at submit time, the
/// request vector, the client's remaining latency budget (0 = none) and
/// the promise the worker fulfills.
struct BatchRequest {
  std::shared_ptr<const LoadedModel> model;
  SparseVector x;
  double deadline_ms = 0.0;
  std::chrono::steady_clock::time_point enqueued;
  std::promise<PredictResult> done;
};

/// Batcher configuration.
struct BatcherOptions {
  /// Requests per batch; also the SMSV batch width (clamped to
  /// [1, kMaxSmsvBatch] by the engine).
  index_t max_batch = 64;
  /// Admission limit: submissions beyond this queue depth are shed.
  std::size_t max_queue = 1024;
  /// Per-tenant admission quota: a model name with this many requests
  /// already queued has further submissions shed (kOverloaded) even while
  /// the shared queue has room — one tenant's burst cannot monopolise the
  /// queue. 0 = no per-tenant limit (default).
  std::size_t max_per_model = 0;
};

/// Why submit() rejected a request (reported via its out-parameter so the
/// engine can count queue sheds and quota sheds separately).
enum class SubmitReject : std::uint8_t {
  kNone = 0,
  kQueueFull = 1,
  kModelQuota = 2,
};

/// Bounded, fair-queued request queue (thread-safe).
class MicroBatcher {
 public:
  explicit MicroBatcher(BatcherOptions opts);

  /// Enqueues a request and returns the future its worker will fulfill, or
  /// std::nullopt when the queue is full or the model's tenant quota is
  /// exhausted (admission control; the caller maps that to
  /// Status::kOverloaded, with the reject kind reported through `reject`
  /// when non-null). After stop() the returned future is already satisfied
  /// with kShuttingDown.
  std::optional<std::future<PredictResult>> submit(
      std::shared_ptr<const LoadedModel> model, SparseVector x,
      double deadline_ms = 0.0, SubmitReject* reject = nullptr);

  /// Blocks until a request is queued, then moves up to max_batch requests
  /// of the least-served tenant's frontmost cohort into `out` (previous
  /// contents discarded). Returns false when the batcher was stopped and
  /// the queue fully drained — the worker's exit signal. A successful
  /// extraction claims one in-flight batch *under the queue lock*, so
  /// there is no instant at which a batch has left the queue but is not
  /// yet accounted for — the drain predicate (quiesced()) can never
  /// observe "empty and idle" while a batch is about to be scored. The
  /// worker releases the claim with batch_done().
  bool next_batch(std::vector<BatchRequest>& out);

  /// Releases the in-flight claim of one extracted batch once its every
  /// request has been answered.
  void batch_done();

  /// True when no request is queued and no extracted batch is still being
  /// scored — evaluated under one lock, so it is an atomic statement about
  /// both conditions (the engine's drain predicate).
  bool quiesced() const;

  /// Fails every queued request with kShuttingDown and wakes all waiting
  /// workers, whose next_batch() calls then return false. Idempotent;
  /// submissions after stop() are rejected with kShuttingDown.
  void stop();

  /// Current queue depth (requests admitted but not yet extracted).
  std::size_t depth() const;

  const BatcherOptions& options() const { return opts_; }

 private:
  /// The cohort to extract: the model of the frontmost queued request
  /// whose tenant has the least service (ties resolve FIFO). mu_ held,
  /// queue non-empty.
  const LoadedModel* least_served_cohort_locked() const;

  BatcherOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<BatchRequest> queue_;
  /// Per-tenant accounting, keyed by model *name* (a tenant spans versions
  /// across reloads). `queued` backs the admission quota; `service` is the
  /// fair-queuing virtual clock: it advances by the batch size on every
  /// extraction, and a tenant going from idle to active starts at the
  /// current virtual time (start-time fairness — an idle tenant banks no
  /// credit). Entries are erased at queued == 0, so the map only holds
  /// active tenants (mu_).
  struct TenantState {
    std::uint64_t service = 0;
    std::size_t queued = 0;
  };
  std::unordered_map<std::string, TenantState> tenants_;
  /// Service of the most recently served tenant (mu_).
  std::uint64_t virtual_time_ = 0;
  /// Batches extracted by next_batch() but not yet batch_done() (mu_).
  int in_flight_ = 0;
  bool stopped_ = false;
};

}  // namespace ls::serve
