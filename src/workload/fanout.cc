#include "workload/fanout.h"

#include <algorithm>
#include <stdexcept>

namespace escra::workload {

namespace {
// Backends contacted per request (clamped to the backend count).
constexpr std::size_t kFanout = 4;
// Request leg, frontend -> backend.
constexpr std::size_t kRequestBytes = 1'500;
// Response leg, backend -> frontend; the bandwidth-heavy direction.
constexpr std::size_t kResponseBytes = 32'000;
// The hot backend's responses are this many times larger.
constexpr double kHotMultiplier = 8.0;
// The hot seat moves to the next backend (in vector order) this often.
constexpr sim::Duration kHotRotate = sim::seconds(5);
// Poisson arrival rate, requests per second.
constexpr double kLambda = 30.0;
static_assert(kFanout > 0 && kLambda > 0.0 && kHotRotate > 0);
}  // namespace

FanoutWorkload::FanoutWorkload(sim::Simulation& sim, net::Network& net,
                               std::uint32_t frontend,
                               net::EndpointId frontend_endpoint,
                               std::vector<Backend> backends, sim::Rng rng)
    : sim_(sim),
      net_(net),
      frontend_(frontend),
      frontend_endpoint_(frontend_endpoint),
      backends_(std::move(backends)),
      fanout_(std::min(kFanout, backends_.size())),
      rng_(rng) {
  if (backends_.empty()) {
    throw std::invalid_argument("FanoutWorkload: no backends");
  }
}

FanoutWorkload::~FanoutWorkload() { stop(); }

void FanoutWorkload::run(sim::TimePoint at, sim::TimePoint until) {
  stop();
  running_ = true;
  stop_at_ = until;
  next_event_ = sim_.schedule_at(at, [this] { issue_next(); });
}

void FanoutWorkload::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(next_event_);
}

std::size_t FanoutWorkload::hot_backend(sim::TimePoint t) const {
  return static_cast<std::size_t>(t / kHotRotate) % backends_.size();
}

void FanoutWorkload::issue_next() {
  if (!running_ || sim_.now() > stop_at_) return;
  const std::uint64_t request = ++issued_;
  launch(request, sim_.now());
  const double gap_s = rng_.exponential(kLambda);
  next_event_ =
      sim_.schedule_after(std::max<sim::Duration>(
                              1, static_cast<sim::Duration>(gap_s * 1e6)),
                          [this] { issue_next(); });
}

void FanoutWorkload::launch(std::uint64_t request, sim::TimePoint intended) {
  // The hot backend always participates (it is where the bytes are); the
  // remaining fanout-1 picks walk the cold backends round-robin, so every
  // backend keeps a baseline flow and the skew is purely in response size.
  const std::size_t hot = hot_backend(sim_.now());
  std::vector<std::size_t> picks;
  picks.reserve(fanout_);
  picks.push_back(hot);
  while (picks.size() < fanout_) {
    rotor_ = (rotor_ + 1) % backends_.size();
    if (rotor_ != hot) picks.push_back(rotor_);
  }

  pending_[request] = Pending{picks.size(), intended};
  for (const std::size_t index : picks) {
    const Backend& backend = backends_[index];
    net_.send_flow(
        net::Channel::kAppData, frontend_endpoint_, backend.endpoint,
        frontend_, backend.container, kRequestBytes,
        [this, request, backend] {
          // The backend answers immediately; the response size depends on
          // who is hot *now*, not at issue time — a rotation mid-request
          // shifts load exactly as a cache going cold would.
          std::size_t bytes = kResponseBytes;
          const std::size_t hot_now = hot_backend(sim_.now());
          if (backends_[hot_now].container == backend.container) {
            bytes = static_cast<std::size_t>(
                static_cast<double>(bytes) * kHotMultiplier);
          }
          net_.send_flow(net::Channel::kAppData, backend.endpoint,
                         frontend_endpoint_, backend.container, frontend_,
                         bytes, [this, request] { on_response(request); });
        });
  }
}

void FanoutWorkload::on_response(std::uint64_t request) {
  const auto it = pending_.find(request);
  if (it == pending_.end()) return;
  if (--it->second.outstanding > 0) return;
  latency_.record(
      std::max<std::int64_t>(1, sim_.now() - it->second.intended));
  ++completed_;
  pending_.erase(it);
}

}  // namespace escra::workload
