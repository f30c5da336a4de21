// loadgen.hpp — open- and closed-loop UDP query generator.
//
// One LoadGenerator runs on one generator thread over one or two connected
// UDP sockets. Request k of a run is the k-th query of the workload's
// stream (modulo its length); its DNS id is k mod 2^16, which is how a
// reply finds its request again.
//
//   open loop    request k is due at start + k / rate and is sent when
//                due no matter how many are outstanding; its latency is
//                counted from the due time, so generator stalls show up
//                as latency, and the send lag is reported on its own.
//   closed loop  a fixed window of requests is kept outstanding; each
//                reply releases the next request. Throughput is the
//                completion rate.
//
// A request unanswered after kAttemptTimeout is sent again, as a stub
// resolver would, up to kAttempts sends in all; only then does it count
// as timed out. Its latency still runs from its first due or send time.
//
// Replies are checked by the workload's oracle as they arrive. A reply
// the oracle marks truncated is retried over TCP by the retry hook
// (blocking, on the generator thread) and timed to its completion.
//
// A generator owns its sockets' ids for its whole life, across phases,
// so it knows which earlier requests held each id: a late reply to one
// of them is dropped, and any other reply to a question not asked on
// that id is a wrong answer.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "stats.hpp"
#include "transport/socket.hpp"
#include "util/bytes.hpp"

namespace civicbench {

/// Oracle outcome for one reply. The check hook returns Stray exactly
/// when the reply answers another question than the request's.
enum class Verdict : std::uint8_t { Ok, Wrong, Truncated, Timeout, Stray };

struct LoadHooks {
  /// Wire form of request k (any id; the generator patches it).
  std::function<const sns::util::Bytes&(std::uint64_t k)> wire;
  /// Called just before request k is sent (optional).
  std::function<void(std::uint64_t k)> on_send;
  /// Oracle for the reply to request k.
  std::function<Verdict(std::uint64_t k, std::span<const std::uint8_t> reply)> check;
  /// TCP retry of request k after a truncated UDP reply (optional).
  std::function<Verdict(std::uint64_t k)> retry_tcp;
};

struct LoadResult {
  OpCount ops;
  std::uint64_t completed = 0;    // answered and checked Ok
  std::uint64_t tcp_retries = 0;  // truncated replies retried over TCP
  std::uint64_t resent = 0;       // UDP requests sent again after a timeout
  double seconds = 0.0;           // measured span of the phase
  std::vector<double> latency_us;      // per answered request
  std::vector<std::uint64_t> latency_k;  // ... and which request it was
  std::vector<double> tcp_latency_us;  // subset that went through TCP
  std::vector<double> lag_us;          // open loop: send time − due time
};

class LoadGenerator {
 public:
  /// Drives the given connected UDP sockets (not owned; they must
  /// outlive the generator, and no one else may use them meanwhile).
  /// Datagrams already queued on them are dropped.
  LoadGenerator(std::vector<int> sockets, LoadHooks hooks);

  /// Open loop at `rate` requests/s for `seconds`, then waits up to
  /// kTimeout for stragglers. Request numbering starts at `first`.
  LoadResult run_open(double rate, double seconds, std::uint64_t first);

  /// Closed loop with `window` requests outstanding per socket.
  LoadResult run_closed(std::size_t window, double seconds, std::uint64_t first);

  /// How long one send of a request may go unanswered before it is
  /// sent again, and how many sends a request gets before it counts as
  /// timed out (and, in a closed loop, is replaced).
  static constexpr std::chrono::milliseconds kAttemptTimeout{200};
  static constexpr int kAttempts = 3;
  /// Longest a request can stay outstanding.
  static constexpr std::chrono::milliseconds kTimeout = kAttemptTimeout * kAttempts;

 private:
  struct Slot {
    std::uint64_t k = 0;
    std::int64_t start_ns = 0;  // due time (open) or send time (closed)
    std::int64_t sent_ns = 0;   // latest send
    int sends = 0;
    std::uint32_t socket = 0;
    bool active = false;
    bool used = false;  // k and socket name a request that was sent
    /// Requests that held this id before k, newest first. Three id
    /// cycles take longer than kTimeout even at a quarter million
    /// requests per second, so a reply later than that is lost, not
    /// late.
    struct Earlier {
      std::uint64_t k = 0;
      std::uint32_t socket = 0;
      bool valid = false;
    };
    std::array<Earlier, 3> earlier{};
  };

  void send_batch(std::uint32_t socket, const std::vector<std::uint64_t>& ks,
                  LoadResult& result);
  /// Drains every readable reply, counting finished requests per
  /// socket in `done_per_socket`.
  void receive(LoadResult& result, std::vector<std::uint32_t>& done_per_socket,
               bool record_latency);
  void finish(Slot& slot, Verdict verdict, std::int64_t now_ns, LoadResult& result,
              bool record_latency);
  /// Sends again every request unanswered for kAttemptTimeout and
  /// times out those out of attempts (all of them when `final`),
  /// counting timed-out ones per socket.
  void expire(std::int64_t now_ns, LoadResult& result,
              std::vector<std::uint32_t>& done_per_socket, bool final = false);
  /// Waits up to kTimeout for the outstanding requests, sending again
  /// as due, then times out what is left.
  void drain(LoadResult& result, std::vector<std::uint32_t>& done_per_socket,
             bool record_latency);
  void wait_readable(std::int64_t timeout_ns);
  /// Whether `reply`, on socket `s`, answers a request this generator
  /// sent earlier with the same id (late, or repeated).
  bool answers_earlier(const Slot& slot, std::uint32_t s, std::span<const std::uint8_t> reply);

  std::vector<int> sockets_;
  LoadHooks hooks_;
  std::vector<Slot> slots_;
  std::uint64_t outstanding_ = 0;
};

/// A connected, non-blocking UDP socket on 127.0.0.1 aimed at `to`.
[[nodiscard]] sns::transport::FdHandle connect_udp(const sns::transport::Endpoint& to);

/// Nanoseconds on the steady clock.
[[nodiscard]] std::int64_t now_ns();

/// Lets the calling thread's timed waits wake within microseconds
/// instead of the default 50 µs timer slack.
void tighten_timer_slack();

}  // namespace civicbench
