#include "layers.hpp"

namespace perfbench {

void LayerClock::enter(Layer layer) {
  const Clock::time_point now = Clock::now();
  if (!stack_.empty()) {
    Frame& top = stack_.back();
    self_ns_[static_cast<std::size_t>(top.layer)] +=
        std::chrono::duration<double, std::nano>(now - top.resumed).count();
  }
  stack_.push_back({layer, now});
}

void LayerClock::exit() {
  const Clock::time_point now = Clock::now();
  Frame& top = stack_.back();
  self_ns_[static_cast<std::size_t>(top.layer)] +=
      std::chrono::duration<double, std::nano>(now - top.resumed).count();
  stack_.pop_back();
  if (!stack_.empty()) stack_.back().resumed = now;
}

std::uint64_t TimedTransport::schedule(dnsboot::net::SimTime delay,
                                       TimerHandler fn) {
  return inner_.schedule(delay, [this, fn = std::move(fn)] {
    LayerScope scope(clock_, layer_);
    fn();
  });
}

void TimedTransport::bind(const dnsboot::net::IpAddress& address,
                          DatagramHandler handler) {
  inner_.bind(address, [this, handler = std::move(handler)](
                           const dnsboot::net::Datagram& dgram) {
    if (capture_ != nullptr && capture_->size() < kMaxCaptured) {
      capture_->push_back({dgram.destination, dgram.payload, dgram.tcp});
    }
    LayerScope scope(clock_, layer_);
    handler(dgram);
  });
}

std::size_t TimedTransport::run(std::size_t max_events) {
  LayerScope scope(clock_, Layer::kNet);
  return inner_.run(max_events);
}

}  // namespace perfbench
