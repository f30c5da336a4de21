#include "loadgen.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/socket.h>

namespace civicbench {

namespace {

constexpr std::size_t kBatch = 64;
constexpr std::size_t kMaxDatagram = 65535;
constexpr std::int64_t kSweepEveryNs = 50'000'000;

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void tighten_timer_slack() { (void)prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

sns::transport::FdHandle connect_udp(const sns::transport::Endpoint& to) {
  sns::transport::FdHandle fd(::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw std::runtime_error(sns::transport::errno_message("socket"));
  sockaddr_in local{};
  local.sin_family = AF_INET;
  local.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&local), sizeof local) != 0)
    throw std::runtime_error(sns::transport::errno_message("bind"));
  sockaddr_in remote{};
  to.to_sockaddr(remote);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&remote), sizeof remote) != 0)
    throw std::runtime_error(sns::transport::errno_message("connect"));
  int size = 4 << 20;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &size, sizeof size);
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &size, sizeof size);
  return fd;
}

LoadGenerator::LoadGenerator(std::vector<int> sockets, LoadHooks hooks)
    : sockets_(std::move(sockets)), hooks_(std::move(hooks)), slots_(1u << 16) {
  if (sockets_.empty()) throw std::runtime_error("LoadGenerator needs a socket");
  // A late reply to an earlier phase could carry an id this generator
  // reuses; drop whatever is still queued.
  std::uint8_t sink[2048];
  for (int fd : sockets_)
    while (::recv(fd, sink, sizeof sink, MSG_DONTWAIT) > 0) {
    }
}

void LoadGenerator::finish(Slot& slot, Verdict verdict, std::int64_t now, LoadResult& result,
                       bool record_latency) {
  slot.active = false;
  --outstanding_;
  switch (verdict) {
    case Verdict::Ok:
      ++result.completed;
      if (record_latency) {
        result.latency_us.push_back(static_cast<double>(now - slot.start_ns) / 1e3);
        result.latency_k.push_back(slot.k);
      }
      break;
    case Verdict::Timeout:
      ++result.ops.timed_out;
      break;
    case Verdict::Wrong:
    case Verdict::Truncated:
    case Verdict::Stray:
      ++result.ops.wrong;
      break;
  }
}

void LoadGenerator::send_batch(std::uint32_t socket, const std::vector<std::uint64_t>& ks,
                           LoadResult& result) {
  if (ks.empty()) return;
  std::vector<sns::util::Bytes> bufs(ks.size());
  std::vector<iovec> iov(ks.size());
  std::vector<mmsghdr> msgs(ks.size());
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (hooks_.on_send) hooks_.on_send(ks[i]);
    bufs[i] = hooks_.wire(ks[i]);
    const auto id = static_cast<std::uint16_t>(ks[i] & 0xffff);
    bufs[i][0] = static_cast<std::uint8_t>(id >> 8);
    bufs[i][1] = static_cast<std::uint8_t>(id & 0xff);
    iov[i] = {bufs[i].data(), bufs[i].size()};
    msgs[i] = {};
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  std::size_t sent = 0;
  int spins = 0;
  while (sent < ks.size()) {
    int n = ::sendmmsg(sockets_[socket], msgs.data() + sent,
                       static_cast<unsigned>(ks.size() - sent), 0);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if ((errno == EAGAIN || errno == EINTR || errno == ENOBUFS) && ++spins < 1000) continue;
    break;
  }
  const std::int64_t now = now_ns();
  for (std::size_t i = 0; i < ks.size(); ++i) {
    ++result.ops.attempted;
    auto& slot = slots_[ks[i] & 0xffff];
    if (slot.active) finish(slot, Verdict::Timeout, now, result, false);
    // A request the socket would not take (i >= sent) is treated like
    // a lost datagram: expire() sends it again.
    if (slot.used) {
      std::rotate(slot.earlier.rbegin(), slot.earlier.rbegin() + 1, slot.earlier.rend());
      slot.earlier[0] = {slot.k, slot.socket, true};
    }
    slot.k = ks[i];
    slot.socket = socket;
    slot.sent_ns = now;
    slot.sends = 1;
    slot.active = true;
    slot.used = true;
    ++outstanding_;
  }
}

void LoadGenerator::receive(LoadResult& result, std::vector<std::uint32_t>& done_per_socket,
                        bool record_latency) {
  static thread_local std::vector<std::uint8_t> storage(kBatch * kMaxDatagram);
  iovec iov[kBatch];
  mmsghdr msgs[kBatch];
  for (std::uint32_t s = 0; s < sockets_.size(); ++s) {
    for (;;) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        iov[i] = {storage.data() + i * kMaxDatagram, kMaxDatagram};
        msgs[i] = {};
        msgs[i].msg_hdr.msg_iov = &iov[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
      }
      int n = ::recvmmsg(sockets_[s], msgs, kBatch, MSG_DONTWAIT, nullptr);
      if (n <= 0) break;
      const std::int64_t now = now_ns();
      for (int i = 0; i < n; ++i) {
        std::span<const std::uint8_t> reply(storage.data() + static_cast<std::size_t>(i) * kMaxDatagram,
                                            msgs[i].msg_len);
        if (reply.size() < 12) continue;
        const auto id = static_cast<std::uint16_t>((reply[0] << 8) | reply[1]);
        auto& slot = slots_[id];
        const bool waiting = slot.active && slot.socket == s;
        Verdict verdict = waiting ? hooks_.check(slot.k, reply) : Verdict::Stray;
        if (verdict == Verdict::Stray) {
          if (answers_earlier(slot, s, reply)) continue;
          // A reply to a question never asked on this id.
          if (!waiting) {
            ++result.ops.wrong;
            continue;
          }
          verdict = Verdict::Wrong;
        }
        std::int64_t done = now;
        if (verdict == Verdict::Truncated && hooks_.retry_tcp) {
          ++result.tcp_retries;
          verdict = hooks_.retry_tcp(slot.k);
          done = now_ns();
          if (verdict == Verdict::Ok && record_latency)
            result.tcp_latency_us.push_back(static_cast<double>(done - slot.start_ns) / 1e3);
        }
        finish(slot, verdict, done, result, record_latency);
        ++done_per_socket[s];
      }
      if (static_cast<std::size_t>(n) < kBatch) break;
    }
  }
}

bool LoadGenerator::answers_earlier(const Slot& slot, std::uint32_t s,
                                    std::span<const std::uint8_t> reply) {
  if (!slot.active && slot.used && slot.socket == s && hooks_.check(slot.k, reply) != Verdict::Stray)
    return true;
  for (const auto& e : slot.earlier)
    if (e.valid && e.socket == s && hooks_.check(e.k, reply) != Verdict::Stray) return true;
  return false;
}

void LoadGenerator::expire(std::int64_t now, LoadResult& result,
                           std::vector<std::uint32_t>& done_per_socket, bool final) {
  if (outstanding_ == 0) return;
  const std::int64_t limit = std::chrono::nanoseconds(kAttemptTimeout).count();
  for (auto& slot : slots_) {
    if (!slot.active || (!final && now - slot.sent_ns < limit)) continue;
    if (!final && slot.sends < kAttempts) {
      sns::util::Bytes wire = hooks_.wire(slot.k);
      wire[0] = static_cast<std::uint8_t>((slot.k >> 8) & 0xff);
      wire[1] = static_cast<std::uint8_t>(slot.k & 0xff);
      (void)::send(sockets_[slot.socket], wire.data(), wire.size(), 0);
      slot.sent_ns = now;
      ++slot.sends;
      ++result.resent;
      continue;
    }
    ++done_per_socket[slot.socket];
    finish(slot, Verdict::Timeout, now, result, false);
  }
}

void LoadGenerator::drain(LoadResult& result, std::vector<std::uint32_t>& done_per_socket,
                          bool record_latency) {
  const std::int64_t until = now_ns() + std::chrono::nanoseconds(kTimeout).count();
  std::int64_t next_sweep = now_ns() + kSweepEveryNs;
  while (outstanding_ > 0 && now_ns() < until) {
    wait_readable(1'000'000);
    receive(result, done_per_socket, record_latency);
    const std::int64_t now = now_ns();
    if (now >= next_sweep) {
      expire(now, result, done_per_socket);
      next_sweep = now + kSweepEveryNs;
    }
  }
  expire(now_ns(), result, done_per_socket, true);
}

void LoadGenerator::wait_readable(std::int64_t timeout) {
  if (timeout <= 0) return;
  std::vector<pollfd> fds;
  for (int fd : sockets_) fds.push_back({fd, POLLIN, 0});
  timespec ts{static_cast<time_t>(timeout / 1'000'000'000),
              static_cast<long>(timeout % 1'000'000'000)};
  (void)::ppoll(fds.data(), fds.size(), &ts, nullptr);
}

LoadResult LoadGenerator::run_open(double rate, double seconds, std::uint64_t first) {
  tighten_timer_slack();
  LoadResult result;
  const auto total = static_cast<std::uint64_t>(rate * seconds);
  const double period = 1e9 / rate;
  const std::int64_t start = now_ns() + 1'000'000;
  std::vector<std::uint32_t> done(sockets_.size(), 0);
  std::vector<std::vector<std::uint64_t>> batches(sockets_.size());
  std::int64_t next_sweep = start + kSweepEveryNs;
  result.latency_us.reserve(total);
  result.latency_k.reserve(total);
  result.lag_us.reserve(total);

  auto due_of = [&](std::uint64_t i) {
    return start + static_cast<std::int64_t>(static_cast<double>(i) * period);
  };
  std::uint64_t i = 0;
  while (i < total) {
    std::int64_t now = now_ns();
    for (auto& batch : batches) batch.clear();
    std::vector<std::pair<std::uint64_t, std::int64_t>> due_now;
    while (i < total && due_of(i) <= now && due_now.size() < kBatch) {
      const std::uint64_t k = first + i;
      batches[k % sockets_.size()].push_back(k);
      due_now.emplace_back(k, due_of(i));
      ++i;
    }
    for (std::uint32_t s = 0; s < sockets_.size(); ++s) send_batch(s, batches[s], result);
    if (!due_now.empty()) {
      const std::int64_t sent_at = now_ns();
      for (auto [k, due] : due_now) {
        slots_[k & 0xffff].start_ns = due;
        result.lag_us.push_back(static_cast<double>(sent_at - due) / 1e3);
      }
    }
    receive(result, done, true);
    now = now_ns();
    if (now >= next_sweep) {
      expire(now, result, done);
      next_sweep = now + kSweepEveryNs;
    }
    if (i < total) wait_readable(due_of(i) - now_ns());
  }
  result.seconds = static_cast<double>(due_of(total) - start) / 1e9;
  drain(result, done, true);
  return result;
}

LoadResult LoadGenerator::run_closed(std::size_t window, double seconds, std::uint64_t first) {
  tighten_timer_slack();
  LoadResult result;
  std::vector<std::uint32_t> done(sockets_.size(), 0);
  std::uint64_t k = first;
  auto refill = [&](std::uint32_t s, std::size_t n) {
    std::vector<std::uint64_t> ks;
    for (std::size_t j = 0; j < n; ++j) ks.push_back(k++);
    send_batch(s, ks, result);
    const std::int64_t sent_at = now_ns();
    for (auto id : ks) slots_[id & 0xffff].start_ns = sent_at;
  };
  const std::int64_t begin = now_ns();
  const std::int64_t deadline = begin + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint32_t s = 0; s < sockets_.size(); ++s) refill(s, window);
  std::int64_t next_sweep = begin + kSweepEveryNs;
  std::uint64_t completed_in_time = 0;
  for (;;) {
    std::int64_t now = now_ns();
    if (now >= deadline) break;
    wait_readable(std::min<std::int64_t>(deadline - now, 1'000'000));
    std::fill(done.begin(), done.end(), 0);
    receive(result, done, false);
    now = now_ns();
    if (now >= next_sweep) {
      expire(now, result, done);
      next_sweep = now + kSweepEveryNs;
    }
    if (now < deadline) {
      completed_in_time = result.completed;
      for (std::uint32_t s = 0; s < sockets_.size(); ++s)
        if (done[s] > 0) refill(s, done[s]);
    }
  }
  result.seconds = static_cast<double>(deadline - begin) / 1e9;
  // Let the last window land so its answers are still checked, but
  // count only completions inside the measured span.
  drain(result, done, false);
  result.completed = completed_in_time;
  return result;
}

}  // namespace civicbench
