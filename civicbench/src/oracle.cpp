#include "oracle.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "dns/loc.hpp"
#include "dns/rdata.hpp"

namespace civicbench {

using sns::dns::Rcode;
using sns::dns::RRType;

namespace {

bool same_point(const sns::dns::LocData& loc, double lat, double lon) {
  return loc.latitude_degrees() == lat && loc.longitude_degrees() == lon;
}

bool rdata_matches(const Device& dev, RRType type, const sns::dns::ResourceRecord& rr) {
  switch (type) {
    case RRType::A: {
      const auto* a = std::get_if<sns::dns::AData>(&rr.rdata);
      return a != nullptr && a->address == dev.a;
    }
    case RRType::BDADDR: {
      const auto* b = std::get_if<sns::dns::BdaddrData>(&rr.rdata);
      return b != nullptr && b->address == dev.bdaddr;
    }
    case RRType::TXT: {
      const auto* t = std::get_if<sns::dns::TxtData>(&rr.rdata);
      return t != nullptr && t->strings == std::vector<std::string>{dev.txt};
    }
    case RRType::LOC: {
      const auto* l = std::get_if<sns::dns::LocData>(&rr.rdata);
      return l != nullptr && same_point(*l, dev.lat, dev.lon);
    }
    default:
      return false;
  }
}

}  // namespace

Verdict decode_reply(std::span<const std::uint8_t> wire, const Name& qname, RRType qtype,
                     sns::dns::Message& out) {
  auto decoded = sns::dns::Message::decode(wire);
  if (!decoded.ok() || !decoded.value().header.qr || decoded.value().questions.size() != 1)
    return Verdict::Wrong;
  out = std::move(decoded).value();
  const auto& question = out.questions[0];
  return question.name == qname && question.type == qtype ? Verdict::Ok : Verdict::Stray;
}

Verdict check_read(const World& world, const ReadReq& req, const sns::dns::Message& reply) {
  switch (req.expect) {
    case Expect::NxDomain:
      return reply.header.rcode == Rcode::NXDomain && reply.answers.empty() ? Verdict::Ok
                                                                            : Verdict::Wrong;
    case Expect::NoData:
      return reply.header.rcode == Rcode::NoError && reply.answers.empty() ? Verdict::Ok
                                                                           : Verdict::Wrong;
    case Expect::Positive:
      break;
  }
  if (reply.header.rcode != Rcode::NoError || !reply.header.aa || reply.answers.size() != 1)
    return Verdict::Wrong;
  const auto& rr = reply.answers.front();
  if (rr.name != req.qname || rr.type != req.qtype) return Verdict::Wrong;
  return rdata_matches(world.devices[req.device], req.qtype, rr) ? Verdict::Ok : Verdict::Wrong;
}

Verdict check_area(const World& world, const std::vector<LatLon>& locs, const AreaReq& req,
                   const sns::dns::Message& reply) {
  if (reply.header.tc) return Verdict::Truncated;
  if (reply.header.rcode != Rcode::NoError) return Verdict::Wrong;
  std::set<std::string> got;
  for (const auto& rr : reply.answers) {
    if (rr.type != RRType::LOC) return Verdict::Wrong;
    got.insert(rr.name.to_string());
  }
  if (got.size() != reply.answers.size()) return Verdict::Wrong;  // duplicate device
  std::set<std::string> want;
  for (auto d : brute_force_area(world, locs, req)) want.insert(world.devices[d].name.to_string());
  return got == want ? Verdict::Ok : Verdict::Wrong;
}

ChurnBook::ChurnBook(const World& world, const std::vector<Rehome>& moves)
    : world_(world),
      positions_(world.devices.size()),
      sent_(new std::atomic<std::uint64_t>[world.devices.size()]),
      acked_(new std::atomic<std::uint64_t>[world.devices.size()]) {
  for (std::size_t d = 0; d < world.devices.size(); ++d) {
    positions_[d].push_back({world.devices[d].lat, world.devices[d].lon});
    sent_[d].store(0, std::memory_order_relaxed);
    acked_[d].store(0, std::memory_order_relaxed);
  }
  for (const auto& move : moves) {
    auto& history = positions_[move.device];
    if (history.size() != move.generation) throw std::logic_error("churn moves out of order");
    history.push_back({move.lat, move.lon});
  }
}

long ChurnBook::seen_generation(std::size_t device, const sns::dns::Message& reply) const {
  if (reply.header.rcode != Rcode::NoError || reply.answers.size() != 1) return -1;
  const auto& rr = reply.answers.front();
  if (rr.name != world_.devices[device].name) return -1;
  const std::uint64_t newest = newest_sent(device);
  if (const auto* t = std::get_if<sns::dns::TxtData>(&rr.rdata)) {
    for (std::uint64_t g = 0; g <= newest; ++g)
      if (t->strings == std::vector<std::string>{device_txt(device, g)})
        return static_cast<long>(g);
    return -1;
  }
  if (const auto* l = std::get_if<sns::dns::LocData>(&rr.rdata)) {
    const auto& history = positions_[device];
    for (std::uint64_t g = std::min<std::uint64_t>(newest, history.size() - 1) + 1; g-- > 0;)
      if (same_point(*l, history[g].lat, history[g].lon)) return static_cast<long>(g);
  }
  return -1;
}

std::vector<LatLon> ChurnBook::newest_positions() const {
  std::vector<LatLon> out;
  out.reserve(positions_.size());
  for (std::size_t d = 0; d < positions_.size(); ++d)
    out.push_back(positions_[d][std::min<std::size_t>(newest_sent(d), positions_[d].size() - 1)]);
  return out;
}

Verdict ChurnBook::check(std::size_t device, RRType qtype, const sns::dns::Message& reply,
                         std::uint64_t floor) const {
  if (reply.answers.size() != 1 || reply.answers.front().type != qtype) return Verdict::Wrong;
  const long seen = seen_generation(device, reply);
  return seen >= 0 && static_cast<std::uint64_t>(seen) >= floor ? Verdict::Ok : Verdict::Wrong;
}

}  // namespace civicbench
