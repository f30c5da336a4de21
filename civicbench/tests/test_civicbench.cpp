// Tests for the benchmark's own pieces: seeded generation, world
// invariants, the oracle, sample arithmetic and the span tie-out.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <netinet/in.h>
#include <poll.h>
#include <set>
#include <sys/socket.h>
#include <thread>

#include "dns/rdata.hpp"
#include "loadgen.hpp"
#include "oracle.hpp"
#include "server/zone.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "world.hpp"

using namespace civicbench;
using sns::dns::RRType;

namespace {

// The world the benchmark serves, built once for the tests that only
// read it.
const World& metro() {
  static const World world = make_world(7);
  return world;
}

std::string streams_text(const World& world, std::uint64_t seed) {
  std::string out;
  for (const auto& req : read_stream(world, seed, 500))
    out += read_query(req).to_string() + "|" + std::to_string(static_cast<int>(req.expect)) + "\n";
  for (const auto& req : area_stream(world, seed, 200)) {
    auto wire = area_query(world, req).encode();
    out.append(wire.begin(), wire.end());
  }
  const auto buildings = churn_buildings(world, 4);
  for (const auto& move : churn_stream(world, buildings, seed, 100))
    out += std::to_string(move.device) + ":" + move.txt + ":" + move.loc.to_string() + "\n";
  for (const auto& req : churn_reads(world, buildings, seed, 100))
    out += req.qname.to_string() + "\n";
  return out;
}

}  // namespace

TEST(Seeding, SameSeedGivesByteIdenticalWorldAndStreams) {
  const World a = make_world(42);
  const World b = make_world(42);
  EXPECT_EQ(serialize(a), serialize(b));
  EXPECT_EQ(streams_text(a, 42), streams_text(b, 42));
}

TEST(Seeding, DifferentSeedChangesWorldAndStreams) {
  const World a = make_world(1);
  const World b = make_world(2);
  EXPECT_NE(serialize(a), serialize(b));
  EXPECT_NE(streams_text(a, 1), streams_text(b, 2));
  // Streams depend on the seed even over the same world.
  EXPECT_NE(streams_text(a, 1), streams_text(a, 2));
}

TEST(World, MetroShape) {
  const World& world = metro();
  // 1 country, 12 cities, 12 × 16 streets, 12 × 16 × 12 buildings.
  EXPECT_EQ(world.cities.size(), 12u);
  EXPECT_EQ(world.streets.size(), 192u);
  EXPECT_EQ(world.buildings.size(), 2304u);
  EXPECT_EQ(world.upper.size(), 1u + 12u + 192u);
  EXPECT_EQ(world.building_zones.size(), world.buildings.size());
  EXPECT_EQ(zone_count(world), 2509u);
  // About 10 devices per building, and landmarks big enough that a
  // building-sized AREA answer overflows a 512-byte reply.
  const double per_building =
      static_cast<double>(world.devices.size()) / static_cast<double>(world.buildings.size());
  EXPECT_GT(per_building, 9.0);
  EXPECT_LT(per_building, 11.0);
  std::size_t landmarks = 0, devices = 0;
  for (const auto& building : world.buildings) {
    EXPECT_EQ(building.first_device, devices);
    devices += building.device_count;
    landmarks += building.device_count >= 24 ? 1 : 0;
  }
  EXPECT_EQ(devices, world.devices.size());
  EXPECT_GT(landmarks, 100u);
}

TEST(World, EveryLocSitsInsideItsBuilding) {
  const World& world = metro();
  ASSERT_FALSE(world.devices.empty());
  for (const auto& dev : world.devices) {
    const auto& foot = world.buildings[dev.building].footprint;
    EXPECT_TRUE(foot.contains(sns::geo::GeoPoint{dev.lat, dev.lon, 0.0})) << dev.name.to_string();
    EXPECT_TRUE(dev.name.is_subdomain_of(world.buildings[dev.building].apex));
  }
  const auto buildings = churn_buildings(world, 24);
  for (const auto& move : churn_stream(world, buildings, 7, 2000)) {
    const auto& foot = world.buildings[world.devices[move.device].building].footprint;
    EXPECT_TRUE(foot.contains(sns::geo::GeoPoint{move.lat, move.lon, 0.0}));
  }
}

TEST(World, EveryDelegationHasGlueAndEveryZoneBuilds) {
  const World& world = metro();
  std::set<std::string> apexes;
  for (const auto* zones : {&world.upper, &world.building_zones})
    for (const auto& zone : *zones) apexes.insert(zone.apex.to_string());
  std::size_t delegations = 0;
  for (const auto* zones : {&world.upper, &world.building_zones}) {
    for (const auto& zone : *zones) {
      std::set<std::string> glue;
      for (const auto& rr : zone.records)
        if (rr.type == RRType::A) glue.insert(rr.name.to_string());
      for (const auto& rr : zone.records) {
        if (rr.type != RRType::NS || rr.name == zone.apex) continue;
        ++delegations;
        const auto& ns = std::get<sns::dns::NsData>(rr.rdata).nameserver;
        EXPECT_TRUE(glue.contains(ns.to_string())) << "no glue for " << ns.to_string();
        EXPECT_TRUE(apexes.contains(rr.name.to_string())) << "lame " << rr.name.to_string();
      }
      EXPECT_TRUE(sns::server::build_zone_view(zone.apex, zone.records).ok());
    }
  }
  // Every zone below the country is delegated exactly once.
  EXPECT_EQ(delegations, zone_count(world) - 1);
}

TEST(Oracle, BruteForceAreaFindsExactlyTheDevicesInTheBox) {
  const World& world = metro();
  std::vector<LatLon> locs;
  for (const auto& dev : world.devices) locs.push_back({dev.lat, dev.lon});
  AreaReq whole;
  whole.building = 1;
  whole.box = world.buildings[1].footprint;
  EXPECT_EQ(brute_force_area(world, locs, whole).size(), world.buildings[1].device_count);
  AreaReq none = whole;
  none.box = {0.0, 0.0, 0.001, 0.001};
  EXPECT_TRUE(brute_force_area(world, locs, none).empty());
}

TEST(Oracle, ReadChecksRcodeAndRdata) {
  const World& world = metro();
  ReadReq req;
  req.device = 0;
  req.qname = world.devices[0].name;
  req.qtype = RRType::TXT;
  auto query = read_query(req);
  auto good = sns::dns::make_response(query, sns::dns::Rcode::NoError, true);
  good.answers.push_back(sns::dns::make_txt(req.qname, {world.devices[0].txt}));
  EXPECT_EQ(check_read(world, req, good), Verdict::Ok);
  auto stale = good;
  stale.answers[0] = sns::dns::make_txt(req.qname, {"someone else"});
  EXPECT_EQ(check_read(world, req, stale), Verdict::Wrong);
  auto missing = sns::dns::make_response(query, sns::dns::Rcode::NXDomain, true);
  EXPECT_EQ(check_read(world, req, missing), Verdict::Wrong);
}

TEST(Oracle, RepliesToAnotherQuestionAreStrayNotWrong) {
  const auto qname = sns::dns::name_of("d0.b0.s0.c0.country.loc");
  auto query = sns::dns::make_query(9, qname, RRType::TXT, false);
  auto reply = sns::dns::make_response(query, sns::dns::Rcode::NoError, true);
  sns::dns::Message out;
  EXPECT_EQ(decode_reply(reply.encode(), qname, RRType::TXT, out), Verdict::Ok);
  // Same id, other question: the load generator decides whether it is
  // a late reply to an earlier request or a wrong one.
  EXPECT_EQ(decode_reply(reply.encode(), qname, RRType::LOC, out), Verdict::Stray);
  EXPECT_EQ(decode_reply(query.encode(), qname, RRType::TXT, out), Verdict::Wrong);  // not a response
  const std::vector<std::uint8_t> junk{1, 2, 3};
  EXPECT_EQ(decode_reply(junk, qname, RRType::TXT, out), Verdict::Wrong);
}

TEST(Oracle, ChurnReadersSeeOldOrSentValuesOnly) {
  const World& world = metro();
  const auto moves = churn_stream(world, churn_buildings(world, 2), 3, 50);
  ChurnBook book(world, moves);
  const auto& move = moves.front();
  const auto& name = world.devices[move.device].name;
  auto query = sns::dns::make_query(0, name, RRType::TXT, false);
  auto reply = sns::dns::make_response(query, sns::dns::Rcode::NoError, true);
  reply.answers.push_back(sns::dns::make_txt(name, {move.txt}));
  EXPECT_EQ(book.check(move.device, RRType::TXT, reply, 0), Verdict::Wrong);  // not yet sent
  book.mark_sent(move.device, move.generation);
  EXPECT_EQ(book.check(move.device, RRType::TXT, reply, 0), Verdict::Ok);
  reply.answers[0] = sns::dns::make_txt(name, {move.old_txt});
  EXPECT_EQ(book.check(move.device, RRType::TXT, reply, 0), Verdict::Ok);  // old value
  reply.answers.clear();
  EXPECT_EQ(book.check(move.device, RRType::TXT, reply, 0), Verdict::Wrong);  // missing
}

TEST(Oracle, ChurnReadsAfterAnAckMustNotSeeOlderValues) {
  const World& world = metro();
  const auto moves = churn_stream(world, churn_buildings(world, 1), 5, 400);
  ChurnBook book(world, moves);
  // Walk one device through three moves.
  std::vector<Rehome> own;
  for (const auto& move : moves)
    if (move.device == moves.front().device) own.push_back(move);
  ASSERT_GE(own.size(), 3u);
  const auto& name = world.devices[own[0].device].name;
  auto query = sns::dns::make_query(0, name, RRType::LOC, false);
  auto shows = [&](const sns::dns::LocData& loc) {
    auto reply = sns::dns::make_response(query, sns::dns::Rcode::NoError, true);
    reply.answers.push_back(sns::dns::make_loc(name, loc));
    return reply;
  };
  for (std::size_t g = 0; g < 3; ++g) {
    book.mark_sent(own[g].device, own[g].generation);
    book.mark_acked(own[g].device, own[g].generation);
  }
  const std::uint64_t floor = book.newest_acked(own[0].device);
  ASSERT_EQ(floor, 3u);
  EXPECT_EQ(book.check(own[0].device, RRType::LOC, shows(own[2].loc), floor), Verdict::Ok);
  // Stale: an earlier move, or the original position, after the ack.
  EXPECT_EQ(book.check(own[0].device, RRType::LOC, shows(own[1].loc), floor), Verdict::Wrong);
  EXPECT_EQ(book.check(own[0].device, RRType::LOC, shows(own[0].old_loc), floor), Verdict::Wrong);
  // A read sent before the last ack may still see the move before it.
  EXPECT_EQ(book.check(own[0].device, RRType::LOC, shows(own[1].loc), floor - 1), Verdict::Ok);
  // Sent but not acknowledged yet: old and new are both fine.
  book.mark_sent(own[0].device, floor + 1);
  EXPECT_EQ(book.check(own[0].device, RRType::LOC, shows(own[2].loc), floor), Verdict::Ok);
}

namespace {

Name question_of(std::uint64_t k) { return sns::dns::name_of("q" + std::to_string(k) + ".test"); }

/// A loopback UDP server for the load generator. `reply(k, query)`
/// returns the replies to send for request k, in order.
class FakeServer {
 public:
  using Replies = std::function<std::vector<sns::dns::Message>(std::uint64_t,
                                                               const sns::dns::Message&)>;
  explicit FakeServer(Replies replies) : replies_(std::move(replies)) {
    fd_ = sns::transport::FdHandle(::socket(AF_INET, SOCK_DGRAM, 0));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    socklen_t len = sizeof addr;
    ::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len);
    endpoint_ = sns::transport::Endpoint::parse("127.0.0.1", ntohs(addr.sin_port)).value();
    thread_ = std::thread([this] { serve(); });
  }
  ~FakeServer() {
    stop_ = true;
    thread_.join();
  }
  [[nodiscard]] const sns::transport::Endpoint& endpoint() const { return endpoint_; }

 private:
  void serve() {
    std::uint8_t buf[2048];
    while (!stop_) {
      pollfd pfd{fd_.get(), POLLIN, 0};
      if (::poll(&pfd, 1, 10) <= 0) continue;
      sockaddr_in from{};
      socklen_t len = sizeof from;
      const auto n = ::recvfrom(fd_.get(), buf, sizeof buf, 0, reinterpret_cast<sockaddr*>(&from),
                                &len);
      if (n <= 0) continue;
      auto query = sns::dns::Message::decode(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
      if (!query.ok()) continue;
      const auto label = query.value().questions[0].name.to_string();
      const std::uint64_t k = std::stoull(label.substr(1, label.find('.') - 1));
      for (const auto& reply : replies_(k, query.value())) {
        const auto wire = reply.encode();
        (void)::sendto(fd_.get(), wire.data(), wire.size(), 0, reinterpret_cast<sockaddr*>(&from),
                       len);
      }
    }
  }

  Replies replies_;
  sns::transport::FdHandle fd_;
  sns::transport::Endpoint endpoint_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Requests ask for q<k>.test; a reply is Ok when it answers that.
LoadHooks question_hooks(std::vector<sns::util::Bytes>& wires) {
  LoadHooks hooks;
  hooks.wire = [&wires](std::uint64_t k) -> const sns::util::Bytes& {
    wires.push_back(sns::dns::make_query(0, question_of(k), RRType::A, false).encode());
    return wires.back();
  };
  hooks.check = [](std::uint64_t k, std::span<const std::uint8_t> reply) {
    sns::dns::Message msg;
    return decode_reply(reply, question_of(k), RRType::A, msg);
  };
  return hooks;
}

sns::dns::Message answer_as(const sns::dns::Message& query, std::uint64_t k) {
  auto reply = sns::dns::make_response(query, sns::dns::Rcode::NoError, true);
  reply.questions[0].name = question_of(k);
  return reply;
}

}  // namespace

TEST(LoadGenerator, LateRepliesToTheEarlierIdHolderAreDroppedOthersAreWrong) {
  // Requests 0..9 and 65536..65545 go unanswered and time out.
  // Requests 131072..131081 reuse their ids; each is answered first by
  // the late replies to the two requests that held its id (dropped),
  // then twice correctly (the repeat is dropped too).
  FakeServer late([](std::uint64_t k, const sns::dns::Message& query) {
    if (k < 131072) return std::vector<sns::dns::Message>{};
    return std::vector<sns::dns::Message>{answer_as(query, k - 131072),
                                          answer_as(query, k - 65536), answer_as(query, k),
                                          answer_as(query, k)};
  });
  std::vector<sns::util::Bytes> wires;
  auto fd = connect_udp(late.endpoint());
  LoadGenerator load({fd.get()}, question_hooks(wires));
  for (std::uint64_t first : {0, 65536}) {
    const auto lost = load.run_open(1000, 0.01, first);
    EXPECT_EQ(lost.ops.timed_out, lost.ops.attempted);
  }
  const auto third = load.run_open(1000, 0.01, 131072);
  EXPECT_GT(third.completed, 0u);
  EXPECT_EQ(third.completed, third.ops.attempted);
  EXPECT_EQ(third.ops.wrong, 0u);

  // A reply to a question no request with that id asked is wrong, even
  // when a right one follows.
  FakeServer mixed([](std::uint64_t k, const sns::dns::Message& query) {
    return std::vector<sns::dns::Message>{answer_as(query, k + 7), answer_as(query, k)};
  });
  auto fd2 = connect_udp(mixed.endpoint());
  LoadGenerator mixed_load({fd2.get()}, question_hooks(wires));
  const auto result = mixed_load.run_open(1000, 0.01, 0);
  EXPECT_GT(result.ops.attempted, 0u);
  EXPECT_EQ(result.ops.wrong, result.ops.attempted);
  EXPECT_EQ(result.completed, 0u);
}

TEST(LoadGenerator, UnansweredRequestsAreSentAgainBeforeTheyTimeOut) {
  // The server ignores the first copy of every request and answers the
  // second: each request completes after one resend, none times out.
  std::mutex mu;
  std::set<std::uint64_t> seen;
  FakeServer lossy([&](std::uint64_t k, const sns::dns::Message& query) {
    std::lock_guard lock(mu);
    if (seen.insert(k).second) return std::vector<sns::dns::Message>{};
    return std::vector<sns::dns::Message>{answer_as(query, k)};
  });
  std::vector<sns::util::Bytes> wires;
  auto fd = connect_udp(lossy.endpoint());
  LoadGenerator load({fd.get()}, question_hooks(wires));
  const auto result = load.run_open(1000, 0.02, 0);
  EXPECT_GT(result.ops.attempted, 0u);
  EXPECT_EQ(result.completed, result.ops.attempted);
  EXPECT_EQ(result.resent, result.ops.attempted);
  EXPECT_EQ(result.ops.failed(), 0u);
  // Latency runs from the due time, so it includes the resend wait.
  const double wait_us =
      std::chrono::duration<double, std::micro>(LoadGenerator::kAttemptTimeout).count();
  for (double us : result.latency_us) EXPECT_GE(us, wait_us);
}

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7}, 99), 7.0);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 25), 2.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(hundred, 99), 100.0);
  EXPECT_DOUBLE_EQ(percentile({10, 20}, 90), 19.0);
}

TEST(Stats, FailRatioCountsTimeoutsAndWrongAgainstAttempts) {
  OpCount ops;
  EXPECT_DOUBLE_EQ(ops.fail_ratio(), 0.0);  // empty base
  ops.attempted = 200;
  ops.timed_out = 3;
  ops.wrong = 1;
  EXPECT_EQ(ops.failed(), 4u);
  EXPECT_DOUBLE_EQ(ops.fail_ratio(), 0.02);
  OpCount more{100, 0, 2};
  ops += more;
  EXPECT_EQ(ops.attempted, 300u);
  EXPECT_DOUBLE_EQ(ops.fail_ratio(), 6.0 / 300.0);
}

TEST(Spans, SelfTimesAndTieOut) {
  // root [0,100] with children [10,40] and [50,90]; grandchild [60,70].
  std::vector<Span> spans = {
      {"bench.read", 0, 100, -1, 1, 0},
      {"dns.decode", 10, 40, 0, 1, 0},
      {"server.handle", 50, 90, 0, 1, 0},
      {"spatial.query", 60, 70, 2, 1, 0},
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self, (std::vector<std::int64_t>{30, 30, 30, 10}));
  auto tie = tie_out(spans, 0.25);
  EXPECT_TRUE(tie.nested);
  EXPECT_DOUBLE_EQ(tie.coverage, 0.7);
  EXPECT_FALSE(tie.ok);  // 30% of the root is unattributed
  EXPECT_TRUE(tie_out(spans, 0.3).ok);
  spans[3].end_ns = 95;  // a child outliving its parent
  EXPECT_FALSE(tie_out(spans, 0.5).nested);
}

TEST(Spans, DisabledRecorderRecordsNothing) {
  SpanRecorder off(false);
  auto s = off.begin("bench.read", 1);
  off.end(s);
  EXPECT_EQ(s, -1);
  EXPECT_TRUE(off.spans().empty());
  SpanRecorder on(true);
  auto root = on.begin("bench.read", 1);
  auto child = on.begin("dns.decode", 1, root);
  on.end(child);
  on.end(root, 1);
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, root);
  EXPECT_TRUE(tie_out(on.spans(), 1.0).nested);
}
