// serve workload: an open loop of real UDP over loopback into a
// dnsboot-serve style worker (the world's AuthServers attached to a
// WireTransport, served by run_forever on its own thread).
//
// The query mix is the traffic a simulated survey of the same world sent
// to its servers, captured by a server-side TimedTransport; each query goes
// to the loopback port of the server it was captured at. Queries leave on a
// fixed schedule whatever the server does, and latency is measured from
// when each was due, so a stall also charges the queries queued behind it.
// Every answer must equal, byte for byte after the ID, what
// AuthServer::handle (plus the UDP truncation rule) answers on the same
// query bytes.
//
// Phases: a warm-up, then the nominal rate (the latency figures), then a
// saturating closed loop (the server's cost: answers per second of its
// worker's CPU time), then a ladder of fixed offered rates up to the first failing
// one, bisected between the last pass and the first failure (the capacity
// figure on this host, reported but not gated: it follows the host's load).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <initializer_list>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "analysis/survey.hpp"
#include "ecosystem/plan.hpp"
#include "kernels.hpp"
#include "layers.hpp"
#include "net/wire/wire_transport.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace dns = dnsboot::dns;
namespace ecosystem = dnsboot::ecosystem;
namespace net = dnsboot::net;

namespace {

constexpr double kScaleDenom = 1000000;  // ~310 zones
constexpr double kNominalQps = 5000;
// Queries kept in flight by the saturating closed loop: enough that the
// worker always finds queries waiting on its sockets, few enough that they
// fit the sockets' buffers and nothing is shed.
constexpr std::size_t kSaturationWindow = 256;
constexpr std::int64_t kLostAfterNs = 1000000000;
constexpr double kLadderStartQps = 20000;
constexpr double kLadderFactor = 1.5;
constexpr int kBisections = 4;
constexpr double kP99LimitUs = 20000;
constexpr double kMaxFailedRatio = 0.001;
constexpr double kWarmupSeconds = 0.5;
constexpr double kStepSeconds = 1.0;
constexpr int kSetupRepeats = 8;
constexpr std::int64_t kWindowNs = 250000000;
constexpr std::size_t kSlots = 65536;  // one per DNS ID
constexpr std::size_t kBatch = 64;

// Thread placement. The server worker, the generator and the receiver each
// get a CPU of their own (when the host has four): left to the scheduler,
// they sometimes share one, which halves capacity and doubles latency from
// one run to the next. The measured phases run in kSlices slices that turn
// the three threads one step further round CPUs 0-3 each time: on a shared
// host one vCPU can run far slower than another for minutes, and the
// figures should not hang on which one the worker landed. Placement is
// best effort; a refusal changes nothing.
constexpr int kServerCpu = 1;
constexpr int kSenderCpu = 2;
constexpr int kReceiverCpu = 3;
constexpr int kSlices = 8;

// A serving world: the servers of one ecosystem on one WireTransport,
// answered by one worker thread.
struct ServingWorld {
  double plan_ms = 0;
  double build_ms = 0;
  double bind_ms = 0;
  std::unique_ptr<net::SimNetwork> buildnet;
  std::unique_ptr<ecosystem::Ecosystem> eco;
  std::unique_ptr<LayerClock> clock;
  std::unique_ptr<net::WireTransport> transport;
  std::unique_ptr<TimedTransport> timed;  // traced worlds only
  std::thread worker;

  ServingWorld() = default;
  ServingWorld(const ServingWorld&) = delete;
  ServingWorld& operator=(const ServingWorld&) = delete;
  ~ServingWorld() { stop(); }

  void start() {
    worker = std::thread([this] {
      pin_current_thread(placed_cpu(kServerCpu, 0));
      transport->run_forever();
    });
  }
  void place(int rotation) {
    if (worker.joinable()) pin_thread(worker.native_handle(), placed_cpu(kServerCpu, rotation));
  }
  void stop() {
    if (worker.joinable()) {
      transport->stop();
      worker.join();
    }
  }
  // CPU time the serving thread has used so far.
  double worker_cpu_s() {
    return worker.joinable() ? thread_cpu_s(worker.native_handle()) : 0;
  }
};

// Builds the world and binds its endpoints to consecutive loopback ports
// below the kernel's ephemeral range. A base whose ports are taken is
// skipped without rebuilding; returns nullptr (with *error set) when no
// base fits.
std::unique_ptr<ServingWorld> make_world(const ecosystem::EcosystemConfig& config,
                                         std::uint64_t seed, bool traced,
                                         std::string* error) {
  auto world = std::make_unique<ServingWorld>();
  const Clock::time_point started = Clock::now();
  const ecosystem::EcosystemPlan plan = ecosystem::make_ecosystem_plan(config);
  world->plan_ms = ms_since(started);
  world->buildnet = std::make_unique<net::SimNetwork>(seed ^ 0xd15b007);
  world->eco = std::make_unique<ecosystem::Ecosystem>(
      ecosystem::build_shard(*world->buildnet, config, plan, 0, 1));
  world->build_ms = ms_since(started) - world->plan_ms;
  if (traced) world->clock = std::make_unique<LayerClock>();

  const Clock::time_point bind_started = Clock::now();
  const std::uint32_t pid = static_cast<std::uint32_t>(::getpid());
  for (std::uint32_t attempt = 0; attempt < 8; ++attempt) {
    const auto base =
        static_cast<std::uint16_t>(10000 + ((pid + attempt * 7919) * 131) % 20000);
    net::WireAddressMap map(net::RealEndpoint{0x7f000001, base});
    bool fits = true;
    for (const auto& server : world->eco->servers) {
      for (const auto& address : server->addresses()) fits = fits && map.add(address);
    }
    if (!fits) {
      *error = "port space exhausted";
      continue;
    }
    world->timed.reset();
    world->transport = std::make_unique<net::WireTransport>(map);
    net::Transport* attach_to = world->transport.get();
    if (traced) {
      world->timed = std::make_unique<TimedTransport>(
          *world->transport, world->clock.get(), Layer::kServer);
      attach_to = world->timed.get();
    }
    for (const auto& server : world->eco->servers) {
      for (const auto& address : server->addresses()) {
        server->attach(*attach_to, address);
      }
    }
    if (world->transport->error().empty()) {
      world->bind_ms = ms_since(bind_started);
      return world;
    }
    *error = world->transport->error();
  }
  return nullptr;
}

// One query of the replayed mix, ready to send.
struct WireQuery {
  sockaddr_in to{};
  dnsboot::Bytes payload;
  dnsboot::Bytes expected;  // answer with the query's original ID
};

struct Slot {
  std::atomic<std::uint64_t> seq{0};  // 0 = free, else send number + 1
  std::atomic<std::int64_t> due_ns{0};
  std::atomic<std::uint32_t> query{0};
};

struct PhaseResult {
  double offered_qps = 0;   // as configured
  double achieved_qps = 0;  // sent / span of the send schedule
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t unanswered = 0;
  double seconds = 0;       // span of the phase
  Samples latency_us;
  Samples late_us;  // generator lateness
  Samples window_p99_us;  // p99 of each kWindowNs slice of the schedule
  bool backlog_growing = false;

  double failed_ratio() const {
    return sent > 0 ? static_cast<double>(mismatched + unanswered) /
                          static_cast<double>(sent)
                    : 1.0;
  }
  // The phase's p99: the median over its windows' p99s.
  double p99() const { return median(window_p99_us.values()); }
  bool passes() const {
    return failed_ratio() <= kMaxFailedRatio && p99() <= kP99LimitUs &&
           !backlog_growing;
  }
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class LoadGenerator {
 public:
  explicit LoadGenerator(std::vector<WireQuery> queries)
      : queries_(std::move(queries)), slots_(kSlots) {}
  ~LoadGenerator() {
    if (fd_ >= 0) ::close(fd_);
  }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  // Where the generator and receiver threads run from the next phase on.
  void place(int rotation) { rotation_ = rotation; }

  bool open(std::string* error) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_ < 0) {
      *error = "client socket";
      return false;
    }
    int size = 8 << 20;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &size, sizeof(size));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &size, sizeof(size));
    sockaddr_in local{};
    local.sin_family = AF_INET;
    local.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&local), sizeof(local)) != 0) {
      *error = "client bind";
      return false;
    }
    return true;
  }

  // Offers `qps` for `seconds` on a fixed schedule, then waits for
  // stragglers. The receiver runs on its own thread for the phase.
  PhaseResult run_phase(double qps, double seconds) {
    // Sleep instead of spinning: on a shared VM a spinning client steals
    // the CPU time the server needs. With 1 ns timer slack the wake-ups
    // land within microseconds of the schedule.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    pin_current_thread(placed_cpu(kSenderCpu, rotation_));
    PhaseResult result;
    result.offered_qps = qps;
    for (Slot& slot : slots_) slot.seq.store(0, std::memory_order_relaxed);
    stop_receiver_.store(false);
    std::vector<double> latencies;
    std::vector<std::int64_t> answer_due;
    std::uint64_t answered = 0;
    std::uint64_t mismatched = 0;
    std::thread receiver([&] {
      pin_current_thread(placed_cpu(kReceiverCpu, rotation_));
      receive(&latencies, &answer_due, &answered, &mismatched);
    });

    const std::uint64_t total = static_cast<std::uint64_t>(std::llround(qps * seconds));
    const double interval_ns = 1e9 / qps;
    const std::int64_t start = now_ns() + 1000000;  // 1 ms to settle
    std::vector<mmsghdr> msgs(kBatch);
    std::vector<iovec> iov(kBatch);
    std::vector<dnsboot::Bytes> buffers(kBatch);
    std::int64_t last_send = start;
    std::uint64_t next = 0;
    while (next < total) {
      const std::int64_t due = start + static_cast<std::int64_t>(next * interval_ns);
      std::int64_t now = now_ns();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = now_ns();
      }
      // Everything due by now goes out in one sendmmsg.
      std::size_t n = 0;
      while (n < kBatch && next < total) {
        const std::int64_t due_i =
            start + static_cast<std::int64_t>(next * interval_ns);
        if (due_i > now) break;
        const std::uint32_t qi = static_cast<std::uint32_t>(next % queries_.size());
        const std::uint16_t id = static_cast<std::uint16_t>(next % kSlots);
        Slot& slot = slots_[id];
        // A query still outstanding 65536 sends later is unanswered.
        slot.seq.exchange(0, std::memory_order_acq_rel);
        slot.due_ns.store(due_i, std::memory_order_relaxed);
        slot.query.store(qi, std::memory_order_relaxed);
        slot.seq.store(next + 1, std::memory_order_release);
        buffers[n] = queries_[qi].payload;
        buffers[n][0] = static_cast<std::uint8_t>(id >> 8);
        buffers[n][1] = static_cast<std::uint8_t>(id & 0xff);
        iov[n].iov_base = buffers[n].data();
        iov[n].iov_len = buffers[n].size();
        std::memset(&msgs[n], 0, sizeof(mmsghdr));
        msgs[n].msg_hdr.msg_name = &queries_[qi].to;
        msgs[n].msg_hdr.msg_namelen = sizeof(sockaddr_in);
        msgs[n].msg_hdr.msg_iov = &iov[n];
        msgs[n].msg_hdr.msg_iovlen = 1;
        result.late_us.add(static_cast<double>(now - due_i) / 1e3);
        ++n;
        ++next;
      }
      std::size_t off = 0;
      while (off < n) {
        const int sent = ::sendmmsg(fd_, msgs.data() + off,
                                    static_cast<unsigned>(n - off), 0);
        if (sent <= 0) break;  // a dropped send shows up as unanswered
        off += static_cast<std::size_t>(sent);
      }
      last_send = now;
    }
    result.sent = total;
    result.achieved_qps =
        last_send > start ? static_cast<double>(total - 1) /
                                (static_cast<double>(last_send - start) / 1e9)
                          : qps;

    // Stragglers get 100 ms past the last due time.
    const std::int64_t drain_until = start +
                                     static_cast<std::int64_t>(total * interval_ns) +
                                     100000000;
    while (now_ns() < drain_until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop_receiver_.store(true);
    receiver.join();

    result.answered = answered;
    result.mismatched = mismatched;
    result.unanswered = total - std::min(total, answered + mismatched);
    for (double v : latencies) result.latency_us.add(v);
    // p99 per window of the schedule: one host stall spoils one window, not
    // the phase's figure.
    std::vector<Samples> windows(
        static_cast<std::size_t>(total * interval_ns / kWindowNs) + 1);
    for (std::size_t i = 0; i < latencies.size(); ++i) {
      windows[std::min<std::size_t>(windows.size() - 1,
                                    static_cast<std::size_t>(
                                        (answer_due[i] - start) / kWindowNs))]
          .add(latencies[i]);
    }
    for (const Samples& window : windows) {
      if (window.size() >= 100) result.window_p99_us.add(window.percentile(99));
    }
    // Backlog: answers to the last fifth of the schedule waiting much longer
    // than answers to the first fifth.
    if (latencies.size() >= 50) {
      const std::int64_t span = static_cast<std::int64_t>(total * interval_ns);
      Samples head;
      Samples tail;
      for (std::size_t i = 0; i < latencies.size(); ++i) {
        const std::int64_t at = answer_due[i] - start;
        if (at < span / 5) head.add(latencies[i]);
        if (at >= span - span / 5) tail.add(latencies[i]);
      }
      result.backlog_growing = !head.empty() && !tail.empty() &&
                               tail.percentile(50) > 2 * head.percentile(50) + 200;
    }
    return result;
  }

  // Keeps `window` queries in flight for `seconds`, sending and receiving
  // on this one thread: the server always has queries waiting but never a
  // backlog, so on loopback none is lost and every answer is checked. A
  // query unanswered for kLostAfterNs counts as unanswered.
  PhaseResult run_saturated(std::size_t window, double seconds) {
    pin_current_thread(placed_cpu(kSenderCpu, rotation_));
    PhaseResult result;
    std::vector<std::int64_t> sent_ns(kSlots, -1);  // per DNS ID; -1 = free
    std::vector<std::uint32_t> query_of(kSlots, 0);
    std::vector<mmsghdr> out(kBatch);
    std::vector<iovec> out_iov(kBatch);
    std::vector<dnsboot::Bytes> out_buffers(kBatch);
    std::vector<mmsghdr> in(kBatch);
    std::vector<iovec> in_iov(kBatch);
    std::size_t outstanding = 0;
    std::uint64_t next = 0;
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t last_answer = start;
    for (std::int64_t now = start;; now = now_ns()) {
      const bool sending = now < end;
      if (!sending && (outstanding == 0 || now - last_answer > kLostAfterNs)) break;
      std::size_t n = 0;
      while (sending && outstanding < window && n < kBatch) {
        const std::uint32_t qi = static_cast<std::uint32_t>(next % queries_.size());
        const std::uint16_t id = static_cast<std::uint16_t>(next % kSlots);
        if (sent_ns[id] >= 0) {  // still out 65 536 sends later: lost
          ++result.unanswered;
          --outstanding;
        }
        sent_ns[id] = now;
        query_of[id] = qi;
        out_buffers[n] = queries_[qi].payload;
        out_buffers[n][0] = static_cast<std::uint8_t>(id >> 8);
        out_buffers[n][1] = static_cast<std::uint8_t>(id & 0xff);
        out_iov[n].iov_base = out_buffers[n].data();
        out_iov[n].iov_len = out_buffers[n].size();
        std::memset(&out[n], 0, sizeof(mmsghdr));
        out[n].msg_hdr.msg_name = &queries_[qi].to;
        out[n].msg_hdr.msg_namelen = sizeof(sockaddr_in);
        out[n].msg_hdr.msg_iov = &out_iov[n];
        out[n].msg_hdr.msg_iovlen = 1;
        ++n;
        ++next;
        ++outstanding;
      }
      result.sent += n;
      std::size_t off = 0;
      while (off < n) {
        const int sent = ::sendmmsg(fd_, out.data() + off,
                                    static_cast<unsigned>(n - off), 0);
        if (sent <= 0) break;  // a dropped send times out as unanswered
        off += static_cast<std::size_t>(sent);
      }

      for (std::size_t i = 0; i < kBatch; ++i) {
        in_iov[i].iov_base = receive_buffers_[i].data();
        in_iov[i].iov_len = receive_buffers_[i].size();
        std::memset(&in[i], 0, sizeof(mmsghdr));
        in[i].msg_hdr.msg_iov = &in_iov[i];
        in[i].msg_hdr.msg_iovlen = 1;
      }
      const int got = ::recvmmsg(fd_, in.data(), kBatch, MSG_DONTWAIT, nullptr);
      for (int i = 0; i < got; ++i) {
        const std::size_t len = in[i].msg_len;
        const std::uint8_t* data = receive_buffers_[i].data();
        if (len < 12) continue;
        const std::size_t id = (static_cast<std::size_t>(data[0]) << 8) | data[1];
        if (sent_ns[id] < 0) continue;  // already counted as lost
        const dnsboot::Bytes& expected = queries_[query_of[id]].expected;
        if (expected.size() == len &&
            std::memcmp(expected.data() + 2, data + 2, len - 2) == 0) {
          ++result.answered;
          result.latency_us.add(static_cast<double>(now - sent_ns[id]) / 1e3);
        } else {
          ++result.mismatched;
        }
        sent_ns[id] = -1;
        --outstanding;
        last_answer = now;
      }
      if (sending && outstanding > 0 && now - last_answer > kLostAfterNs) {
        for (std::int64_t& at : sent_ns) {
          if (at >= 0) {
            ++result.unanswered;
            at = -1;
          }
        }
        outstanding = 0;
        last_answer = now;
      }
    }
    result.unanswered += outstanding;
    result.seconds = static_cast<double>(now_ns() - start) / 1e9;
    result.achieved_qps = static_cast<double>(result.answered) / result.seconds;
    return result;
  }

 private:
  void receive(std::vector<double>* latencies, std::vector<std::int64_t>* answer_due,
               std::uint64_t* answered, std::uint64_t* mismatched) {
    std::vector<mmsghdr> msgs(kBatch);
    std::vector<iovec> iov(kBatch);
    std::vector<std::array<std::uint8_t, 65536>>& buffers = receive_buffers_;
    // Busy-polls when it has a CPU of its own: sleeping in poll() would add
    // the receiver's wake-up latency to every sample. On a smaller host it
    // sleeps rather than take the server's CPU.
    const bool own_cpu = std::thread::hardware_concurrency() >= 4;
    pollfd pfd{fd_, POLLIN, 0};
    while (!stop_receiver_.load()) {
      if (!own_cpu && ::poll(&pfd, 1, 10) <= 0) continue;
      for (std::size_t i = 0; i < kBatch; ++i) {
        iov[i].iov_base = buffers[i].data();
        iov[i].iov_len = buffers[i].size();
        std::memset(&msgs[i], 0, sizeof(mmsghdr));
        msgs[i].msg_hdr.msg_iov = &iov[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
      }
      const int n = ::recvmmsg(fd_, msgs.data(), kBatch, MSG_DONTWAIT, nullptr);
      if (n <= 0) continue;
      const std::int64_t now = now_ns();
      for (int i = 0; i < n; ++i) {
        const std::size_t len = msgs[i].msg_len;
        const std::uint8_t* data = buffers[i].data();
        if (len < 12) continue;
        Slot& slot = slots_[(static_cast<std::size_t>(data[0]) << 8) | data[1]];
        std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
        if (seq == 0) continue;  // late duplicate or already reused
        const std::int64_t due = slot.due_ns.load(std::memory_order_relaxed);
        const std::uint32_t qi = slot.query.load(std::memory_order_relaxed);
        if (!slot.seq.compare_exchange_strong(seq, 0, std::memory_order_acq_rel)) {
          continue;
        }
        const dnsboot::Bytes& expected = queries_[qi].expected;
        const bool same = expected.size() == len &&
                          std::memcmp(expected.data() + 2, data + 2, len - 2) == 0;
        if (!same) {
          ++*mismatched;
          continue;
        }
        ++*answered;
        latencies->push_back(static_cast<double>(now - due) / 1e3);
        answer_due->push_back(due);
      }
    }
  }

  std::vector<WireQuery> queries_;
  std::vector<Slot> slots_;
  std::vector<std::array<std::uint8_t, 65536>> receive_buffers_{kBatch};
  std::atomic<bool> stop_receiver_{false};
  int fd_ = -1;
  int rotation_ = 0;
};

// Keeps CPUs out of idle while it lives: one SCHED_IDLE thread spins on
// each and gives way to any other thread there at once. An idle vCPU
// halts, and a query that arrives then waits for the hypervisor to run the
// vCPU again: a cost of the host, not of the program, that measured a few
// µs on a quiet host and ten times that on a busy one.
class IdleSpinners {
 public:
  explicit IdleSpinners(std::initializer_list<int> cpus) {
    if (std::thread::hardware_concurrency() < static_cast<unsigned>(kPlacements)) return;
    for (int cpu : cpus) {
      threads_.emplace_back([this, cpu] {
        pin_current_thread(cpu);
        sched_param param{};
        ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (std::thread& thread : threads_) thread.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// One phase made of slices: counts add up, samples pool.
PhaseResult merge_phases(const std::vector<PhaseResult>& slices) {
  PhaseResult out;
  for (const PhaseResult& slice : slices) {
    out.offered_qps = slice.offered_qps;
    out.achieved_qps += slice.achieved_qps / static_cast<double>(slices.size());
    out.sent += slice.sent;
    out.answered += slice.answered;
    out.mismatched += slice.mismatched;
    out.unanswered += slice.unanswered;
    out.seconds += slice.seconds;
    for (double v : slice.latency_us.values()) out.latency_us.add(v);
    for (double v : slice.late_us.values()) out.late_us.add(v);
    for (double v : slice.window_p99_us.values()) out.window_p99_us.add(v);
    out.backlog_growing = out.backlog_growing || slice.backlog_growing;
  }
  return out;
}

void place(ServingWorld& world, LoadGenerator& generator, int slice) {
  world.place(slice % kPlacements);
  generator.place(slice % kPlacements);
}

// The nominal rate for `seconds`, in slices that rotate the placement,
// with the server's and the generator's CPUs kept out of idle (the
// receiver busy-polls on its own).
PhaseResult run_nominal(ServingWorld& world, LoadGenerator& generator,
                        double seconds) {
  std::vector<PhaseResult> slices;
  for (int i = 0; i < kSlices; ++i) {
    place(world, generator, i);
    const IdleSpinners awake{placed_cpu(kServerCpu, i), placed_cpu(kSenderCpu, i)};
    slices.push_back(generator.run_phase(kNominalQps, seconds / kSlices));
  }
  place(world, generator, 0);
  return merge_phases(slices);
}

std::vector<WireQuery> wire_queries(ServingWorld& world,
                                    const std::vector<CapturedQuery>& mix,
                                    RunResult& result) {
  const ServerByAddress servers = index_servers(*world.eco);
  std::vector<WireQuery> out;
  std::size_t undecodable = 0;
  for (const CapturedQuery& q : mix) {
    auto real = world.transport->address_map().real_for(q.destination);
    auto server = servers.find(q.destination);
    auto query = dns::Message::decode(q.payload);
    if (!real || server == servers.end() || !query.ok()) continue;
    WireQuery wq;
    wq.to.sin_family = AF_INET;
    wq.to.sin_addr.s_addr = htonl(real->host);
    wq.to.sin_port = htons(real->port);
    wq.payload = q.payload;
    wq.expected = expected_udp_answer(*server->second, query.value());
    if (!dns::Message::decode(wq.expected).ok()) ++undecodable;
    out.push_back(std::move(wq));
  }
  result.check(undecodable == 0,
               std::to_string(undecodable) + " reference answers do not decode");
  return out;
}

void add_phase_notes(const std::string& prefix, const PhaseResult& phase,
                     RunResult& result) {
  result.note(prefix + ".offered_qps", phase.offered_qps, "1/s");
  result.note(prefix + ".achieved_qps", phase.achieved_qps, "1/s");
  result.note(prefix + ".p99_us", phase.p99(), "us");
  result.note(prefix + ".failed_ratio", phase.failed_ratio(), "ratio");
}

}  // namespace

RunResult run_serve_workload(const RunConfig& run) {
  RunResult result;
  ecosystem::EcosystemConfig config;
  config.seed = run.seed;
  config.scale = 1.0 / kScaleDenom;

  // The mix: a simulated survey of the same world, its server traffic
  // captured at the servers.
  std::vector<CapturedQuery> captured;
  net::SimNetwork capture_net(run.seed ^ 0xd15b007);
  const ecosystem::Ecosystem capture_eco = ecosystem::build_shard(
      capture_net, config, ecosystem::make_ecosystem_plan(config), 0, 1);
  TimedTransport capture_side(capture_net, nullptr, Layer::kServer, &captured);
  for (const auto& server : capture_eco.servers) {
    for (const auto& address : server->addresses()) {
      server->attach(capture_side, address);
    }
  }
  dnsboot::analysis::run_survey(capture_net, capture_eco.hints,
                                capture_eco.scan_targets,
                                capture_eco.ns_domain_to_operator, capture_eco.now);
  const std::vector<CapturedQuery> mix =
      replayable_queries(captured, index_servers(capture_eco));
  result.note("mix.captured", static_cast<double>(captured.size()), "count");
  result.note("mix.replayed", static_cast<double>(mix.size()), "count");

  // Set-up, repeated: world build + bind, on the CPU clock at reference
  // speed, each time on the next CPU round. The last world serves.
  Samples setup_s;
  Samples reference_ms;
  Samples plan_ms;
  Samples build_ms;
  Samples bind_ms;
  std::unique_ptr<ServingWorld> world;
  std::string error;
  for (int i = 0; i < kSetupRepeats; ++i) {
    world.reset();
    pin_current_thread(placed_cpu(0, i));
    const double t = thread_cpu_s();
    world = make_world(config, run.seed, false, &error);
    const double cpu_s = thread_cpu_s() - t;
    const double reference_s = reference_work_cpu_s();
    setup_s.add(at_reference_speed(cpu_s, reference_s));
    reference_ms.add(reference_s * 1e3);
    if (world == nullptr) break;
    plan_ms.add(world->plan_ms);
    build_ms.add(world->build_ms);
    bind_ms.add(world->bind_ms);
  }
  result.timing("setup.serve_ref_s", "s", setup_s);
  result.timing("setup.build_ms", "ms", build_ms);
  result.timing("setup.bind_ms", "ms", bind_ms);
  if (world == nullptr || mix.empty()) {
    result.check(false, "serve set-up failed: " +
                            (mix.empty() ? std::string("empty query mix") : error));
    result.attempted = 1;
    result.failed = 1;
    return result;
  }
  LoadGenerator generator(wire_queries(*world, mix, result));
  if (!generator.open(&error)) {
    result.check(false, error);
    result.attempted = result.failed = 1;
    return result;
  }
  world->start();

  generator.run_phase(kNominalQps, kWarmupSeconds);
  const double budget = run.seconds - kWarmupSeconds;
  const double nominal_seconds = 0.2 * budget;
  const bool rss_reset = reset_peak_rss();
  const PhaseResult nominal = run_nominal(*world, generator, nominal_seconds);
  const double peak_mib = peak_rss_mib();

  // Saturation: the worker's cost per answer, on its own CPU clock, so the
  // host's scheduling of the client and server threads stays out of it.
  // Before and after each slice the reference work runs on the worker's
  // CPU; the median over the slices of answers per CPU-second at reference
  // speed is reported.
  std::vector<PhaseResult> saturated_slices;
  Samples slice_answers_per_ref_s;
  Samples slice_answers_per_cpu_s;
  double saturation_cpu_s = 0;
  for (int i = 0; i < kSlices; ++i) {
    place(*world, generator, i);
    pin_current_thread(placed_cpu(kServerCpu, i));
    const double reference_before_s = reference_work_cpu_s();
    const double cpu_started = world->worker_cpu_s();
    saturated_slices.push_back(
        generator.run_saturated(kSaturationWindow, 0.2 * budget / kSlices));
    const double cpu_s = world->worker_cpu_s() - cpu_started;
    pin_current_thread(placed_cpu(kServerCpu, i));
    const double reference_s = 0.5 * (reference_before_s + reference_work_cpu_s());
    reference_ms.add(reference_s * 1e3);
    saturation_cpu_s += cpu_s;
    if (cpu_s > 0) {
      const double answered = static_cast<double>(saturated_slices.back().answered);
      slice_answers_per_ref_s.add(answered / at_reference_speed(cpu_s, reference_s));
      slice_answers_per_cpu_s.add(answered / cpu_s);
    }
  }
  place(*world, generator, 0);
  const PhaseResult saturated = merge_phases(saturated_slices);
  const double answers_per_ref_s = median(slice_answers_per_ref_s.values());
  result.timing("serve.saturation_answers_per_ref_s", "1/s", slice_answers_per_ref_s);
  result.timing("serve.saturation_answers_per_cpu_s", "1/s", slice_answers_per_cpu_s);
  result.timing("host.reference_ms", "ms", reference_ms);

  // Ladder: fixed rates up to the first failure, then bisect.
  std::vector<PhaseResult> steps;
  std::optional<PhaseResult> best;
  double lo = 0;
  double hi = 0;
  // A rate fails only when two tries in a row fail, so one scheduling
  // stall on a shared host does not end the search early.
  auto try_rate = [&](double qps) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      steps.push_back(generator.run_phase(qps, kStepSeconds));
      if (steps.back().passes()) {
        best = steps.back();
        return true;
      }
    }
    return false;
  };
  for (double qps = kLadderStartQps; qps < 2e6; qps *= kLadderFactor) {
    if (!try_rate(qps)) {
      hi = qps;
      break;
    }
    lo = qps;
  }
  // Bisect between the last rate that passed and the first that failed;
  // when even the first rung fails, search below it.
  for (int i = 0; i < kBisections && hi > 0; ++i) {
    const double mid = lo > 0 ? std::sqrt(lo * hi) : hi / 2;
    (try_rate(mid) ? lo : hi) = mid;
  }
  world->stop();

  // Correctness: the nominal phase and the closed loop must answer
  // everything right; ladder steps above capacity fail by design and are
  // not counted.
  result.attempted = nominal.sent + saturated.sent;
  result.failed = nominal.mismatched + nominal.unanswered + saturated.mismatched +
                  saturated.unanswered;
  result.check(nominal.mismatched == 0,
               std::to_string(nominal.mismatched) +
                   " answers differ from AuthServer::handle at the nominal rate");
  result.check(nominal.unanswered == 0,
               std::to_string(nominal.unanswered) +
                   " queries unanswered at the nominal rate");
  result.check(saturated.mismatched == 0,
               std::to_string(saturated.mismatched) +
                   " answers differ from AuthServer::handle at saturation");
  result.check(saturated.unanswered == 0,
               std::to_string(saturated.unanswered) +
                   " queries unanswered at saturation");

  const Summary latency = nominal.latency_us.summary();
  const double qps_at_limit = best ? best->achieved_qps : 0;
  result.timing("serve.nominal_latency_us", "us", nominal.latency_us);
  result.timing("serve.gen_late_us", "us", nominal.late_us);
  result.timing("serve.nominal_window_p99_us", "us", nominal.window_p99_us);
  const double median_reference_s = median(reference_ms.values()) / 1e3;
  result.e2e("rate_ref_per_s", answers_per_ref_s, "1/s");
  result.e2e("p50_ref_us", at_reference_speed(latency.p50, median_reference_s), "us");
  result.e2e("setup_s", setup_s.summary().p50, "s");
  result.e2e("peak_rss_mib", peak_mib, "MiB");
  result.note("answers_per_ref_s", answers_per_ref_s, "1/s");
  result.note("answers_per_cpu_s", median(slice_answers_per_cpu_s.values()), "1/s");
  result.note("qps_at_limit", qps_at_limit, "1/s");
  result.note("p50_us", latency.p50, "us");
  result.note("p99_us", nominal.p99(), "us");
  result.note("p99_us.whole_phase", nominal.latency_us.percentile(99), "us");
  result.note("p90_us.whole_phase", nominal.latency_us.percentile(90), "us");
  result.note("p95_us.whole_phase", nominal.latency_us.percentile(95), "us");
  result.note("nominal_qps", kNominalQps, "1/s");
  result.note("p99_limit_us", kP99LimitUs, "us");
  result.note("workers", 1, "count");
  result.note("peak_rss_since_start", rss_reset ? 0 : 1, "bool");
  add_phase_notes("nominal", nominal, result);
  result.note("saturation.achieved_qps", saturated.achieved_qps, "1/s");
  result.note("saturation.failed_ratio", saturated.failed_ratio(), "ratio");
  result.note("saturation.window", kSaturationWindow, "count");
  result.note("saturation.answered", static_cast<double>(saturated.answered), "count");
  result.note("saturation.worker_cpu_s", saturation_cpu_s, "s");
  result.note("saturation.worker_busy",
              saturated.seconds > 0 ? saturation_cpu_s / saturated.seconds : 0, "ratio");
  for (std::size_t i = 0; i < steps.size(); ++i) {
    add_phase_notes("ladder." + std::to_string(i), steps[i], result);
  }

  if (!run.trace) return result;

  const auto* registry = world->transport->metrics_registry();
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  result.layer("net.wire.recv_batch",
               ratio(registry->counter_value("dnsboot_wire_datagrams_delivered"),
                     registry->counter_value("dnsboot_wire_udp_recv_batches")),
               "count");
  result.layer("net.wire.send_batch",
               ratio(registry->counter_value("dnsboot_wire_datagrams_sent"),
                     registry->counter_value("dnsboot_wire_udp_send_batches")),
               "count");
  result.layer("serve.gen_late_us", nominal.late_us.percentile(99), "us");
  result.layer("ecosystem.plan_ms", plan_ms.percentile(50), "ms");
  result.layer("ecosystem.build_shard_ms", build_ms.percentile(50), "ms");

  // Traced serving: a second world whose servers sit behind a server-side
  // TimedTransport; the same nominal phase gives the tracing overhead.
  world.reset();
  std::unique_ptr<ServingWorld> traced = make_world(config, run.seed, true, &error);
  if (traced == nullptr) {
    result.check(false, "traced serve set-up failed: " + error);
    return result;
  }
  LoadGenerator traced_generator(wire_queries(*traced, mix, result));
  if (!traced_generator.open(&error)) {
    result.check(false, error);
    return result;
  }
  traced->start();
  const PhaseResult traced_warmup =
      traced_generator.run_phase(kNominalQps, kWarmupSeconds);
  const PhaseResult traced_nominal =
      run_nominal(*traced, traced_generator, nominal_seconds);
  traced->stop();
  result.attempted += traced_nominal.sent;
  result.failed += traced_nominal.mismatched + traced_nominal.unanswered;
  result.check(traced_nominal.mismatched + traced_nominal.unanswered == 0,
               "traced serving answered differently or dropped queries");
  // Handler time per query over every query the traced world answered.
  result.note("traced.server_handler_us",
              ratio(traced->clock->self_ms(Layer::kServer) * 1e3,
                    static_cast<double>(traced_warmup.answered + traced_warmup.mismatched +
                                        traced_nominal.answered +
                                        traced_nominal.mismatched)),
              "us");
  result.layer("trace.overhead_ratio",
               traced_nominal.latency_us.percentile(50) / latency.p50 - 1.0, "ratio");

  run_kernels(capture_eco, mix, result);
  return result;
}

}  // namespace perfbench
