// Tracing from outside the program: decorators that sit on the program's
// public seams (net::Transport, longitudinal::WorldMotion) and charge the
// wall time spent behind them to a layer.
//
// A LayerClock keeps a stack of open layers. Entering a layer pauses the
// one below it, so each layer accumulates self time: the simnet event loop
// (Layer::kNet, opened around Transport::run) is charged only for the time
// outside the handlers and timers it calls, and a timer handler that calls
// PolicyClock::advance is charged only for its time outside advance().
//
// Everything here is single-threaded: each simulated world (one survey
// shard, one monitor pass) owns its own LayerClock and decorators.
#pragma once

#include <array>
#include <vector>

#include "bench_util.hpp"
#include "longitudinal/world_motion.hpp"
#include "net/transport.hpp"

namespace perfbench {

enum class Layer : std::size_t {
  kNet,     // simnet event loop, outside every wrapped handler
  kServer,  // handlers and timers of the simulated authoritative servers
  kClient,  // handlers and timers of the measuring side (resolver+scanner,
            // or the longitudinal monitor)
  kMotion,  // world motion: PolicyClock::advance and its registry resolver
  kCount,
};

class LayerClock {
 public:
  void enter(Layer layer);
  void exit();
  double self_ms(Layer layer) const {
    return self_ns_[static_cast<std::size_t>(layer)] / 1e6;
  }

 private:
  struct Frame {
    Layer layer;
    Clock::time_point resumed;
  };
  std::vector<Frame> stack_;
  std::array<double, static_cast<std::size_t>(Layer::kCount)> self_ns_{};
};

class LayerScope {
 public:
  LayerScope(LayerClock* clock, Layer layer) : clock_(clock) {
    if (clock_ != nullptr) clock_->enter(layer);
  }
  ~LayerScope() {
    if (clock_ != nullptr) clock_->exit();
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  LayerClock* clock_;
};

// A datagram delivered to a wrapped handler, kept when capture is on: the
// traffic a survey actually sends to its servers. Capture stops after
// kMaxCaptured datagrams, which bounds the corpus of a long monitor run.
inline constexpr std::size_t kMaxCaptured = 50000;
struct CapturedQuery {
  dnsboot::net::IpAddress destination;
  dnsboot::Bytes payload;
  bool tcp = false;
};

// Transport decorator. Handlers bound and timers scheduled through it run
// inside a LayerScope of `layer`; run() opens Layer::kNet around the inner
// transport's event loop. Everything else forwards unchanged, so a world
// driven through the decorator produces the same bytes as one driven
// directly. Handlers and timers registered through it refer to it, so it
// must outlive the inner transport's last event.
class TimedTransport : public dnsboot::net::Transport {
 public:
  TimedTransport(dnsboot::net::Transport& inner, LayerClock* clock, Layer layer,
                 std::vector<CapturedQuery>* capture = nullptr)
      : inner_(inner), clock_(clock), layer_(layer), capture_(capture) {}
  TimedTransport(const TimedTransport&) = delete;
  TimedTransport& operator=(const TimedTransport&) = delete;

  dnsboot::net::SimTime now() const override { return inner_.now(); }
  std::uint64_t schedule(dnsboot::net::SimTime delay, TimerHandler fn) override;
  void cancel(std::uint64_t timer_id) override { inner_.cancel(timer_id); }
  void bind(const dnsboot::net::IpAddress& address,
            DatagramHandler handler) override;
  void unbind(const dnsboot::net::IpAddress& address) override {
    inner_.unbind(address);
  }
  bool is_bound(const dnsboot::net::IpAddress& address) const override {
    return inner_.is_bound(address);
  }
  void send(const dnsboot::net::IpAddress& source,
            const dnsboot::net::IpAddress& destination, dnsboot::Bytes payload,
            bool tcp = false) override {
    inner_.send(source, destination, std::move(payload), tcp);
  }
  void send(dnsboot::net::Datagram dgram) override {
    inner_.send(std::move(dgram));
  }
  bool models_ports() const override { return inner_.models_ports(); }
  std::size_t run(std::size_t max_events = SIZE_MAX) override;
  std::uint64_t datagrams_sent() const override {
    return inner_.datagrams_sent();
  }
  std::uint64_t datagrams_delivered() const override {
    return inner_.datagrams_delivered();
  }
  std::uint64_t bytes_sent() const override { return inner_.bytes_sent(); }
  const dnsboot::obs::MetricsRegistry* metrics_registry() const override {
    return inner_.metrics_registry();
  }

 private:
  dnsboot::net::Transport& inner_;
  LayerClock* clock_;
  Layer layer_;
  std::vector<CapturedQuery>* capture_;
};

// WorldMotion decorator: advance() runs inside Layer::kMotion.
class TimedMotion : public dnsboot::longitudinal::WorldMotion {
 public:
  TimedMotion(dnsboot::longitudinal::WorldMotion& inner, LayerClock* clock)
      : inner_(inner), clock_(clock) {}

  std::string_view motion_name() const override { return inner_.motion_name(); }
  std::size_t planned_steps() const override { return inner_.planned_steps(); }
  std::vector<dnsboot::net::SimTime> step_times() const override {
    return inner_.step_times();
  }
  void advance(dnsboot::net::SimTime now) override {
    LayerScope scope(clock_, Layer::kMotion);
    inner_.advance(now);
  }
  std::uint64_t applied() const override { return inner_.applied(); }
  std::uint64_t failed() const override { return inner_.failed(); }

 private:
  dnsboot::longitudinal::WorldMotion& inner_;
  LayerClock* clock_;
};

}  // namespace perfbench
