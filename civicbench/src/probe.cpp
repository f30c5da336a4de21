#include "probe.hpp"

#include <algorithm>

#include "oracle.hpp"
#include "runtime/answer_cache.hpp"
#include "server/authoritative.hpp"
#include "server/update.hpp"
#include "spatial/area.hpp"
#include "spatial/spatial_view.hpp"
#include "stats.hpp"

namespace civicbench {

using sns::dns::RRType;

namespace {

double p50(const std::vector<double>& v) { return percentile(v, 50.0); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return ratio(sum, static_cast<double>(v.size()));
}

/// A shard's engine for `snap`: one facade per zone, as
/// ServerRuntime::build_engine does on every snapshot change.
std::unique_ptr<sns::server::AuthoritativeServer> engine_for(
    const sns::runtime::ZoneSnapshot& snap) {
  auto engine = std::make_unique<sns::server::AuthoritativeServer>("civicbench");
  for (const auto& view : snap.zones)
    engine->add_zone(std::make_shared<sns::server::Zone>(view));
  return engine;
}

/// One pass of the read pipeline over `wires`; returns the root
/// duration of each read (ns) and counts oracle rejections.
std::vector<double> replay_reads(const ProbeInputs& in, const std::vector<sns::util::Bytes>& wires,
                                 sns::server::AuthoritativeServer& engine, SpanRecorder& rec,
                                 std::uint64_t& wrong) {
  std::vector<double> roots;
  roots.reserve(wires.size());
  sns::server::ClientContext ctx;
  sns::util::Bytes reply;
  for (std::size_t i = 0; i < wires.size(); ++i) {
    const auto& wire = wires[i];
    const std::int64_t t0 = now_ns();
    auto root = rec.begin("bench.read", i);
    auto s = rec.begin("runtime.snapshot_acquire", i, root);
    auto snap = in.runtime->snapshot();
    rec.end(s);
    s = rec.begin("runtime.answer_cache.probe", i, root);
    const bool hit = snap->answer_cache != nullptr && snap->answer_cache->try_answer(wire, reply);
    rec.end(s, hit ? 1 : 0);
    if (!hit) {
      s = rec.begin("dns.decode", i, root);
      auto query = sns::dns::Message::decode(wire);
      rec.end(s);
      s = rec.begin("runtime.snapshot_acquire", i, root);
      auto again = in.runtime->snapshot();
      rec.end(s);
      s = rec.begin("server.handle", i, root);
      auto response = engine.handle(query.value(), ctx);
      rec.end(s);
      s = rec.begin("dns.encode", i, root);
      reply = sns::dns::encode_for_transport(query.value(), response);
      rec.end(s);
    }
    rec.end(root, hit ? 1 : 0);
    roots.push_back(static_cast<double>(now_ns() - t0));
    const auto& req = in.reads[i];
    sns::dns::Message decoded;
    Verdict verdict = decode_reply(reply, req.qname, req.qtype, decoded);
    const bool moved = req.expect == Expect::Positive && in.book->newest_sent(req.device) > 0 &&
                       (req.qtype == RRType::TXT || req.qtype == RRType::LOC);
    // The load is over: every acknowledged move must show.
    if (verdict == Verdict::Ok)
      verdict = moved ? in.book->check(req.device, req.qtype, decoded,
                                       in.book->newest_acked(req.device))
                      : check_read(*in.world, req, decoded);
    if (verdict != Verdict::Ok) ++wrong;
  }
  return roots;
}

}  // namespace

sns::dns::Message make_rehome_update(const World& world, const Rehome& move, std::uint16_t id,
                                     const sns::dns::TsigKey& key, std::uint64_t now_s) {
  const auto& dev = world.devices[move.device];
  const auto& apex = world.buildings[dev.building].apex;
  // Replace the device's previous TXT and LOC records (RFC 2136 §2.5.4
  // deletes, class NONE) with the new ones. Whole-RRset deletes (class
  // ANY, empty rdata) are not used: an empty TXT rdata re-encodes one
  // byte longer after decoding, so the server's TSIG check over the
  // re-encoded message refuses such updates.
  auto msg = sns::server::make_update_add(id, apex, sns::dns::make_txt(dev.name, {move.txt}));
  msg.authorities.insert(msg.authorities.begin(),
                         {sns::dns::ResourceRecord{dev.name, RRType::TXT, sns::dns::RRClass::NONE,
                                                   0, sns::dns::TxtData{{move.old_txt}}},
                          sns::dns::ResourceRecord{dev.name, RRType::LOC, sns::dns::RRClass::NONE,
                                                   0, move.old_loc}});
  msg.authorities.push_back(sns::dns::make_loc(dev.name, move.loc));
  sns::dns::tsig_sign(msg, key, now_s);
  return msg;
}

ProbeResult run_probe(const ProbeInputs& in) {
  ProbeResult out;
  auto& m = out.metrics;
  SpanRecorder rec(true);
  rec.reserve(in.reads.size() * 7 + in.areas.size() * 5 + in.moves.size() * 6);
  std::uint64_t request = 0;

  const auto snapshot = in.runtime->snapshot();

  // ---- read tree ----------------------------------------------------------
  std::vector<sns::util::Bytes> wires;
  for (const auto& req : in.reads) wires.push_back(read_query(req).encode());
  auto engine = engine_for(*snapshot);
  SpanRecorder off(false);
  std::uint64_t wrong = 0;
  (void)replay_reads(in, wires, *engine, off, wrong);  // warm-up
  auto untraced = replay_reads(in, wires, *engine, off, wrong);
  auto traced = replay_reads(in, wires, *engine, rec, wrong);
  out.wrong += wrong;
  request = in.reads.size();
  out.read_pipeline_p50_us = p50(traced) / 1e3;
  out.overhead_ratio = ratio(p50(traced), p50(untraced));

  // ---- area tree ----------------------------------------------------------
  const auto locs = in.book->newest_positions();
  std::vector<sns::util::Bytes> area_wires;
  for (const auto& req : in.areas) area_wires.push_back(area_query(*in.world, req).encode());
  for (std::size_t i = 0; i < in.areas.size(); ++i, ++request) {
    const auto& req = in.areas[i];
    auto root = rec.begin("bench.area", request);
    auto s = rec.begin("dns.decode", request, root);
    auto query = sns::dns::Message::decode(area_wires[i]);
    rec.end(s);
    s = rec.begin("spatial.answer_area", request, root);
    auto response = sns::spatial::answer_area(query.value(), snapshot->spatial.get(),
                                              snapshot->zones);
    rec.end(s);
    s = rec.begin("spatial.query", request, root);
    std::vector<const sns::spatial::Device*> hits;
    const auto& scope = query.value().questions[0].name;
    snapshot->spatial->query(req.box, sns::spatial::kMaxAreaAnswers, hits, &scope);
    rec.end(s, static_cast<std::int32_t>(hits.size()));
    s = rec.begin("dns.encode", request, root);
    auto reply = sns::dns::encode_for_transport(query.value(), response);
    rec.end(s);
    rec.end(root);
    if (check_area(*in.world, locs, req, response) != Verdict::Ok) ++out.wrong;
  }

  // ---- write tree ---------------------------------------------------------
  // commit_zones is the runtime's public transactional write path (the
  // one an edge lands transfers through).
  auto& replay = *in.runtime;
  std::vector<double> commit_self;
  for (const auto& move : in.moves) {
    const auto& dev = in.world->devices[move.device];
    const std::size_t zone_index = dev.building;
    auto parent = replay.snapshot();
    auto root = rec.begin("bench.update", request);
    auto commit = rec.begin("runtime.commit_zones", request, root);
    std::int64_t txn_ns = 0;
    replay.commit_zones([&](std::vector<std::shared_ptr<sns::server::Zone>>& zones) {
      auto& zone = zones.at(zone_index);
      if (zone->apex() != in.world->buildings[dev.building].apex) return false;
      auto s = rec.begin("server.txn_commit", request, commit);
      const std::int64_t t = now_ns();
      auto txn = zone->txn();
      txn.remove_rrset(dev.name, RRType::TXT);
      txn.remove_rrset(dev.name, RRType::LOC);
      (void)txn.add(sns::dns::make_txt(dev.name, {move.txt}));
      (void)txn.add(sns::dns::make_loc(dev.name, move.loc));
      (void)zone->commit(std::move(txn));
      txn_ns = now_ns() - t;
      rec.end(s);
      return true;
    });
    rec.end(commit);
    auto child = replay.snapshot();
    const std::vector<Name> touched{dev.name};
    auto s = rec.begin("runtime.answer_cache.rebuild", request, root);
    std::int64_t t = now_ns();
    auto cache = sns::runtime::AnswerCache::rebuild(*parent->answer_cache, parent->zones,
                                                    child->zones, touched);
    const std::int64_t cache_ns = now_ns() - t;
    rec.end(s);
    s = rec.begin("spatial.rebuild", request, root);
    t = now_ns();
    auto view =
        sns::spatial::SpatialView::rebuild(*parent->spatial, parent->zones, child->zones, touched);
    const std::int64_t spatial_ns = now_ns() - t;
    rec.end(s);
    s = rec.begin("server.engine_build", request, root);
    auto fresh = engine_for(*child);
    rec.end(s);
    rec.end(root);
    const auto& spans = rec.spans();
    const double commit_ns =
        static_cast<double>(spans[static_cast<std::size_t>(commit)].end_ns -
                            spans[static_cast<std::size_t>(commit)].start_ns);
    commit_self.push_back(commit_ns - static_cast<double>(txn_ns + cache_ns + spatial_ns));
    if (child == parent) ++out.wrong;  // the commit must publish
    ++request;
  }

  // ---- reduce -------------------------------------------------------------
  const auto& spans = rec.spans();
  const auto self = self_times(spans);
  auto self_p50 = [&](const char* name, int tag = -1) {
    return p50(self_samples(spans, self, name, tag));
  };
  auto dur_p50 = [&](const char* name) { return p50(durations(spans, name)); };
  m["runtime.snapshot_acquire_ns"] = self_p50("runtime.snapshot_acquire");
  m["runtime.answer_cache.probe_hit_ns"] = self_p50("runtime.answer_cache.probe", 1);
  m["runtime.answer_cache.probe_miss_ns"] = self_p50("runtime.answer_cache.probe", 0);
  m["server.handle_ns"] = self_p50("server.handle");
  m["dns.decode_ns"] = self_p50("dns.decode");
  m["dns.encode_ns"] = self_p50("dns.encode");
  m["spatial.query_ns"] = self_p50("spatial.query");
  {
    std::vector<double> hits;
    for (const auto& span : spans)
      if (std::string_view(span.name) == "spatial.query") hits.push_back(span.tag);
    m["spatial.hits_per_query"] = mean(hits);
  }
  m["spatial.answer_area_us"] = self_p50("spatial.answer_area") / 1e3;
  out.area_pipeline_p50_us = dur_p50("bench.area") / 1e3;
  m["runtime.commit_us"] = dur_p50("runtime.commit_zones") / 1e3;
  m["runtime.commit_self_us"] = p50(commit_self) / 1e3;
  m["server.txn_commit_us"] = self_p50("server.txn_commit") / 1e3;
  m["runtime.answer_cache.rebuild_us"] = self_p50("runtime.answer_cache.rebuild") / 1e3;
  m["spatial.rebuild_us"] = self_p50("spatial.rebuild") / 1e3;
  m["server.engine_build_us"] = self_p50("server.engine_build") / 1e3;

  // ---- TSIG verify on replayed signed updates -----------------------------
  std::vector<double> verify_ns;
  for (std::size_t i = 0; i < in.moves.size(); ++i) {
    auto signed_msg = make_rehome_update(*in.world, in.moves[i], static_cast<std::uint16_t>(i),
                                         in.key, 1'700'000'000);
    auto copy = signed_msg;
    const std::int64_t t = now_ns();
    auto status = sns::dns::tsig_verify(copy, in.key, 1'700'000'000);
    verify_ns.push_back(static_cast<double>(now_ns() - t));
    if (!status.ok()) ++out.wrong;
  }
  m["dns.tsig_verify_us"] = p50(verify_ns) / 1e3;

  // ---- set-up components --------------------------------------------------
  {
    std::int64_t t = now_ns();
    std::vector<sns::server::ZoneViewPtr> views;
    for (const auto* zones : {&in.world->upper, &in.world->building_zones})
      for (const auto& zone : *zones) {
        auto view = sns::server::build_zone_view(zone.apex, zone.records);
        if (view.ok()) views.push_back(std::move(view).value());
      }
    m["server.zone_build_ms"] = static_cast<double>(now_ns() - t) / 1e6;
    t = now_ns();
    auto cache = sns::runtime::AnswerCache::build(snapshot->zones);
    m["runtime.answer_cache.build_ms"] = static_cast<double>(now_ns() - t) / 1e6;
    t = now_ns();
    auto view = sns::spatial::SpatialView::build(snapshot->zones);
    m["spatial.build_ms"] = static_cast<double>(now_ns() - t) / 1e6;
  }

  out.tie = tie_out(spans, kTieOutTolerance);
  out.spans = spans;
  return out;
}

}  // namespace civicbench
