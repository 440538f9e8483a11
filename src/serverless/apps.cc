#include "serverless/apps.h"

#include <stdexcept>

namespace escra::serverless {

namespace {
// Lithops retries failed tasks; a task is abandoned after this many
// attempts.
constexpr int kMaxAttempts = 5;
}  // namespace

ActionSpec make_image_process_action() {
  ActionSpec a;
  a.name = "image-process";
  a.io_before = sim::milliseconds(150);   // fetch image from the data store
  a.cpu_cost = sim::milliseconds(1200);   // metadata + thumbnail
  a.cpu_sigma = 0.30;
  a.io_after = sim::milliseconds(100);    // write thumbnail back
  a.working_mem = 110 * memcg::kMiB;      // decoded image + scratch
  return a;
}

ActionSpec make_grid_task_action() {
  ActionSpec a;
  a.name = "grid-task";
  a.io_before = sim::seconds(10);         // load dataset shard from Redis
  a.cpu_cost = sim::seconds(13);          // fit + score one parameter cell
  a.cpu_sigma = 0.20;
  a.io_after = sim::seconds(5);           // push scores back
  a.working_mem = 140 * memcg::kMiB;      // vectorized reviews + model
  return a;
}

GridSearchJob::GridSearchJob(sim::Simulation& sim, OpenWhisk& platform,
                             Params params, JobDone on_done)
    : sim_(sim), platform_(platform), params_(params), on_done_(std::move(on_done)) {
  if (params_.total_tasks == 0) {
    throw std::invalid_argument("GridSearchJob: zero tasks");
  }
}

void GridSearchJob::start() {
  started_at_ = sim_.now();
  for (std::size_t t = 0; t < params_.total_tasks; ++t) submit_task(1);
}

void GridSearchJob::submit_task(int attempt) {
  platform_.invoke("grid-task", [this, attempt](bool ok) {
    if (ok) {
      ++done_;
    } else if (attempt < kMaxAttempts) {
      // Lithops re-queues a failed task (e.g. the worker pod OOMed).
      ++retries_;
      submit_task(attempt + 1);
      return;
    } else {
      ++failed_;
    }
    if (finished() && on_done_) {
      on_done_(sim_.now() - started_at_);
      on_done_ = nullptr;
    }
  });
}

}  // namespace escra::serverless
