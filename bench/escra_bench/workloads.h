// The four named workloads of escra_bench. Each is open-loop on the
// simulated clock: its generators fire on schedule whatever the system
// does, and every input is derived from the run's seed and the workload's
// name (see README.md for why each was chosen).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace escra_bench {

// The population an isolated layer timing (iso.cc) runs at.
struct IsoShape {
  int nodes = 0;
  int per_node = 0;
  double node_cores = 20.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // One rep: builds a fresh system from the workload's inputs, runs its
  // set-up, then the fixed simulated timed span. `spans` is non-null for
  // traced and checked reps.
  virtual RepResult run(RunKind kind, Spans* spans) = 0;

  // Checks beyond the fingerprint on the reference rep (the last rep run);
  // returns "" when they pass.
  virtual std::string verify(const RepResult& reference) = 0;

  virtual IsoShape iso_shape() const = 0;
  // Replicas that fold every WAL record: the leader's book plus each
  // standby (0 when the workload runs without HA).
  virtual int wal_replicas() const { return 0; }
};

const std::vector<std::string>& workload_names();

// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool quick);

}  // namespace escra_bench
