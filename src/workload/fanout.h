// Fan-out request/response workload over the shaped data plane (src/bw).
//
// Models the fan-out pattern that makes per-container bandwidth limits
// matter: a frontend container broadcasts a small request to four backend
// containers spread across nodes, each backend answers with a much
// larger response, and the request completes only when the *last* response
// lands — so one bandwidth-starved backend drags the whole request's tail.
//
// The load is deliberately skewed and shifting: at any moment one backend
// is "hot" (its responses are eight times larger), and the hot seat
// rotates every five seconds. A static equal split of the NIC leaves
// the hot backend throttling behind its token bucket while the cold
// backends' headroom idles; Escra's event-driven bandwidth arm follows the
// rotation, which is exactly the p99 gap bench/fig_bw_fanout.cc measures.
//
// All traffic runs through net::Network::send_flow on Channel::kAppData, so
// an attached bw::ClusterShaper shapes it and the shaping shows up in the
// recorded end-to-end latency. Arrivals are open-loop Poisson at 30 req/s
// (latency from intended arrival time, coordinated-omission free, like
// LoadGenerator).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/histogram.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace escra::workload {

class FanoutWorkload {
 public:
  // One backend replica: the container the response bytes are charged to
  // and the node endpoint it answers from.
  struct Backend {
    std::uint32_t container = 0;
    net::EndpointId endpoint = 0;
  };

  // `frontend`/`frontend_endpoint` identify the aggregating container;
  // `backends` must be non-empty. The rng drives arrivals and the rotating
  // choice of which cold backends join each request.
  FanoutWorkload(sim::Simulation& sim, net::Network& net,
                 std::uint32_t frontend, net::EndpointId frontend_endpoint,
                 std::vector<Backend> backends, sim::Rng rng);
  ~FanoutWorkload();

  FanoutWorkload(const FanoutWorkload&) = delete;
  FanoutWorkload& operator=(const FanoutWorkload&) = delete;

  // Issues requests from `at` until `until`; in-flight requests still
  // complete and record after the window closes.
  void run(sim::TimePoint at, sim::TimePoint until);
  void stop();

  // Index of the backend holding the hot seat at time `t`.
  std::size_t hot_backend(sim::TimePoint t) const;

  // --- results ---
  std::uint64_t issued() const { return issued_; }
  std::uint64_t completed() const { return completed_; }
  // Full-request latency (intended arrival -> last response), microseconds.
  const sim::Histogram& latency() const { return latency_; }

 private:
  void issue_next();
  void launch(std::uint64_t request, sim::TimePoint intended);
  void on_response(std::uint64_t request);

  struct Pending {
    std::size_t outstanding = 0;
    sim::TimePoint intended = 0;
  };

  sim::Simulation& sim_;
  net::Network& net_;
  std::uint32_t frontend_;
  net::EndpointId frontend_endpoint_;
  std::vector<Backend> backends_;
  std::size_t fanout_;  // backends contacted per request
  sim::Rng rng_;

  bool running_ = false;
  sim::TimePoint stop_at_ = 0;
  sim::EventHandle next_event_;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::size_t rotor_ = 0;  // round-robin cursor over cold backends
  std::unordered_map<std::uint64_t, Pending> pending_;
  sim::Histogram latency_;
};

}  // namespace escra::workload
