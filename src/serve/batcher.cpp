#include "serve/batcher.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

namespace ls::serve {

namespace {

std::future<PredictResult> ready_future(Status s) {
  std::promise<PredictResult> p;
  p.set_value(PredictResult{s, 0.0, 0.0});
  return p.get_future();
}

}  // namespace

MicroBatcher::MicroBatcher(BatcherOptions opts) : opts_(opts) {
  opts_.max_batch = std::max<index_t>(1, opts_.max_batch);
  opts_.max_queue = std::max<std::size_t>(1, opts_.max_queue);
}

std::optional<std::future<PredictResult>> MicroBatcher::submit(
    std::shared_ptr<const LoadedModel> model, SparseVector x,
    double deadline_ms, SubmitReject* reject) {
  if (reject) *reject = SubmitReject::kNone;
  BatchRequest req;
  req.model = std::move(model);
  req.x = std::move(x);
  req.deadline_ms = deadline_ms;
  req.enqueued = std::chrono::steady_clock::now();
  std::future<PredictResult> fut = req.done.get_future();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return ready_future(Status::kShuttingDown);
    if (queue_.size() >= opts_.max_queue) {
      if (reject) *reject = SubmitReject::kQueueFull;
      return std::nullopt;
    }
    auto [it, inserted] = tenants_.try_emplace(req.model->name);
    if (opts_.max_per_model > 0 && it->second.queued >= opts_.max_per_model) {
      if (reject) *reject = SubmitReject::kModelQuota;
      return std::nullopt;
    }
    // A tenant that just became active starts its clock at the current
    // virtual time, so idle periods bank no service credit.
    if (inserted) it->second.service = virtual_time_;
    ++it->second.queued;
    queue_.push_back(std::move(req));
  }
  cv_.notify_one();
  return fut;
}

bool MicroBatcher::next_batch(std::vector<BatchRequest>& out) {
  out.clear();
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return stopped_ || !queue_.empty(); });
  if (stopped_) return false;

  // Take the least-served tenant's frontmost cohort right away: nothing
  // waits for a batch to fill, batches grow while the workers are busy.
  // Extraction keeps arrival order within the cohort.
  const LoadedModel* cohort = least_served_cohort_locked();
  std::deque<BatchRequest> rest;
  while (!queue_.empty() &&
         static_cast<index_t>(out.size()) < opts_.max_batch) {
    if (queue_.front().model.get() == cohort) {
      out.push_back(std::move(queue_.front()));
    } else {
      rest.push_back(std::move(queue_.front()));
    }
    queue_.pop_front();
  }
  // Re-prepend the skipped other-model requests in their original order.
  for (auto it = rest.rbegin(); it != rest.rend(); ++it) {
    queue_.push_front(std::move(*it));
  }
  // Advance the served tenant's virtual clock and release its quota slots.
  const auto it = tenants_.find(out.front().model->name);
  it->second.service += out.size();
  virtual_time_ = it->second.service;
  it->second.queued -= out.size();
  if (it->second.queued == 0) tenants_.erase(it);
  if (!queue_.empty()) {
    // Leftover work (other models, or overflow past max_batch): hand it
    // to another worker instead of waiting for the next submit.
    cv_.notify_one();
  }
  // Claim the in-flight slot before the lock drops: from here until
  // batch_done() the batcher is not quiesced, with no gap in between.
  ++in_flight_;
  return true;
}

void MicroBatcher::batch_done() {
  std::lock_guard<std::mutex> lk(mu_);
  --in_flight_;
}

bool MicroBatcher::quiesced() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.empty() && in_flight_ == 0;
}

const LoadedModel* MicroBatcher::least_served_cohort_locked() const {
  // Every queued request's tenant has an entry, so the minimum exists.
  std::uint64_t least = std::numeric_limits<std::uint64_t>::max();
  for (const auto& [name, st] : tenants_) least = std::min(least, st.service);
  // The chosen tenant's frontmost request names the model version (a
  // tenant can span two versions across a reload; the older one queued
  // first). Ties across tenants resolve FIFO: first match from the front.
  for (const BatchRequest& r : queue_) {
    if (tenants_.at(r.model->name).service == least) return r.model.get();
  }
  return queue_.front().model.get();  // unreachable fallback
}

void MicroBatcher::stop() {
  std::deque<BatchRequest> drained;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopped_ = true;
    drained.swap(queue_);
    tenants_.clear();
  }
  cv_.notify_all();
  for (BatchRequest& req : drained) {
    req.done.set_value(PredictResult{Status::kShuttingDown, 0.0, 0.0});
  }
}

std::size_t MicroBatcher::depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

}  // namespace ls::serve
