// oracle.hpp — checks every reply against the seeded world.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "dns/message.hpp"
#include "loadgen.hpp"
#include "world.hpp"

namespace civicbench {

/// Stub read: rcode, and for positives the exact RRset the world holds.
[[nodiscard]] Verdict check_read(const World& world, const ReadReq& req,
                                 const sns::dns::Message& reply);

/// AREA: rcode and the exact device set a brute-force scan of the
/// world finds in the box (positions in `locs`). A truncated reply is
/// reported as such so the caller can retry over TCP.
[[nodiscard]] Verdict check_area(const World& world, const std::vector<LatLon>& locs,
                                 const AreaReq& req, const sns::dns::Message& reply);

/// What mobility_churn readers may legally see. The writer calls
/// mark_sent() before sending move `generation` of a device and
/// mark_acked() when the server acknowledges it. A read sent when the
/// device's newest acknowledged move was `floor` must show a generation
/// from `floor` up to the newest sent: the old or the new value around
/// an update in flight, never an older one, a missing one or one not
/// yet sent.
class ChurnBook {
 public:
  ChurnBook(const World& world, const std::vector<Rehome>& moves);

  void mark_sent(std::size_t device, std::uint64_t generation) {
    sent_[device].store(generation, std::memory_order_release);
  }
  void mark_acked(std::size_t device, std::uint64_t generation) {
    acked_[device].store(generation, std::memory_order_release);
  }
  [[nodiscard]] std::uint64_t newest_sent(std::size_t device) const {
    return sent_[device].load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t newest_acked(std::size_t device) const {
    return acked_[device].load(std::memory_order_acquire);
  }
  /// Generation a TXT or LOC answer shows, or -1 if no value sent to
  /// the device so far matches.
  [[nodiscard]] long seen_generation(std::size_t device, const sns::dns::Message& reply) const;
  /// Every device's position at its newest sent generation.
  [[nodiscard]] std::vector<LatLon> newest_positions() const;
  /// A read of a moved device sent when its newest acknowledged move
  /// was `floor`.
  [[nodiscard]] Verdict check(std::size_t device, sns::dns::RRType qtype,
                              const sns::dns::Message& reply, std::uint64_t floor) const;

 private:
  const World& world_;
  std::vector<std::vector<LatLon>> positions_;  // [device][generation]
  std::unique_ptr<std::atomic<std::uint64_t>[]> sent_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> acked_;
};

/// Decodes `wire` into `out` and checks that it answers (qname, qtype):
/// Ok; Stray for a well-formed response to another question (the load
/// generator then decides whether it is a late reply to the request
/// that held the same DNS id before, or a wrong one); Wrong when it is
/// not a decodable response.
[[nodiscard]] Verdict decode_reply(std::span<const std::uint8_t> wire, const Name& qname,
                                   sns::dns::RRType qtype, sns::dns::Message& out);

}  // namespace civicbench
