// The two serverless benchmark applications (Section VI-F).
//
// ImageProcess: a single-function app (read image -> process metadata,
// create thumbnail -> write result). Driven open-loop: one request every
// 0.8 s for 10 minutes, four iterations, each starting with a cold pool.
//
// GridSearch: a Lithops-style batch job — 960 hyperparameter-tuning tasks
// fanned out over up to ~115 worker pods; each task loads data from the
// store (I/O), fits/scores a classifier (CPU), and writes results back.
// The job's latency is the completion time of the last task. The I/O:CPU
// mix (~55% off-CPU) is what gives Escra room to cut aggregate CPU limits
// roughly in half without slowing the job.
#pragma once

#include <cstdint>
#include <functional>

#include "serverless/openwhisk.h"
#include "sim/time.h"

namespace escra::serverless {

// The ImageProcess user action.
ActionSpec make_image_process_action();

// One GridSearch task (one worker-pool work item).
ActionSpec make_grid_task_action();

// Fans `total_tasks` grid-task invocations into the platform at start and
// reports the job make-span.
class GridSearchJob {
 public:
  struct Params {
    std::size_t total_tasks = 960;
  };
  using JobDone = std::function<void(sim::Duration makespan)>;

  GridSearchJob(sim::Simulation& sim, OpenWhisk& platform, Params params,
                JobDone on_done);

  // Submits every task now (the Lithops map call).
  void start();

  std::size_t tasks_completed() const { return done_; }
  std::size_t tasks_failed() const { return failed_; }
  std::size_t retries() const { return retries_; }
  bool finished() const { return done_ + failed_ == params_.total_tasks; }

 private:
  void submit_task(int attempt);
  sim::Simulation& sim_;
  OpenWhisk& platform_;
  Params params_;
  JobDone on_done_;
  sim::TimePoint started_at_ = 0;
  std::size_t done_ = 0;
  std::size_t failed_ = 0;
  std::size_t retries_ = 0;
};

}  // namespace escra::serverless
