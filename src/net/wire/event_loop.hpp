// EventLoop — a non-blocking epoll reactor with a deadline heap.
//
// This is the real-time twin of SimNetwork's event heap: file descriptors
// register interest masks with callbacks, timers sit in a binary min-heap
// on their absolute deadline, and poll() runs one epoll_wait + timer-expiry
// pass. Time is the monotonic clock in microseconds since loop
// construction, so SimTime arithmetic from the simulator carries over
// unchanged.
//
// Single-threaded by design — one loop per worker thread, share-nothing
// (the SO_REUSEPORT model). The only cross-thread entry point is wakeup(),
// which is async-signal-safe and wakes a blocking poll(). Under
// DNSBOOT_VERIFY that contract is enforced at runtime: re-entering poll()
// from inside a dispatched callback fails ("reactor-reentrancy"), as does
// mutating the loop (schedule/cancel/watch/unwatch) from another thread
// while a poll is in flight ("loop-cross-thread") — see base/verify.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/transport.hpp"

namespace dnsboot::net {

class EventLoop {
 public:
  // epoll event mask (EPOLLIN/EPOLLOUT/...) of the wakeup.
  using IoHandler = std::function<void(std::uint32_t events)>;
  using TimerHandler = Transport::TimerHandler;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Monotonic microseconds since construction.
  SimTime now() const;

  // Run `fn` once, in the first poll() that starts its timer pass at or
  // after now() + delay. A timer scheduled from inside a timer pass waits
  // for the next poll(), even at delay 0. Returns a non-zero timer id for
  // cancel().
  std::uint64_t schedule(SimTime delay, TimerHandler fn);
  void cancel(std::uint64_t timer_id);
  // Scheduled timers that have neither fired nor been cancelled.
  std::size_t live_timers() const { return timers_.size(); }

  // Register or update interest in `fd`. `events` is an epoll mask; the
  // handler fires with the ready mask. unwatch() must precede close(fd).
  void watch(int fd, std::uint32_t events, IoHandler handler);
  void unwatch(int fd);

  // One reactor pass: wait for io (at most `max_wait`, clipped to the next
  // timer deadline, so one call sleeps exactly until that timer is due),
  // dispatch ready fds, then fire due timers. Returns the number of
  // callbacks dispatched.
  std::size_t poll(SimTime max_wait);

  // Wake a blocking poll() from another thread or a signal handler.
  void wakeup();

  // First fatal loop error (epoll/eventfd syscall failure), empty if none.
  const std::string& error() const { return error_; }

 private:
  // Fire every live timer due at the pass's start and scheduled before it.
  std::size_t fire_due_timers();

  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;  // eventfd, watched for cross-thread wakeups
  SimTime epoch_us_ = 0;

  // (absolute deadline_us, id), earliest on top; no horizon. Cancellation is lazy: cancel()
  // drops the handler from timers_, and the dead entry is discarded when it
  // reaches the top.
  std::priority_queue<std::pair<SimTime, std::uint64_t>,
                      std::vector<std::pair<SimTime, std::uint64_t>>,
                      std::greater<>>
      deadlines_;
  std::unordered_map<std::uint64_t, TimerHandler> timers_;  // live only
  std::uint64_t next_timer_id_ = 1;

  std::unordered_map<int, IoHandler> io_;
  std::string error_;

#if defined(DNSBOOT_VERIFY)
  // Reactor guard state: the verify::thread_tag() of the thread currently
  // inside poll(), 0 when idle. Mutators compare against it; poll() uses it
  // to detect re-entry. Setup-then-run handoff (build the loop on one
  // thread, run it on another) is legal — ownership is only asserted while
  // a poll is actually in flight.
  friend class EventLoopPollScope;
  void verify_not_mid_poll(const char* op) const;
  std::atomic<std::uint64_t> poll_owner_{0};
#endif
};

}  // namespace dnsboot::net
