#include "world.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "dns/loc.hpp"
#include "spatial/area.hpp"
#include "util/rng.hpp"

namespace civicbench {

using sns::dns::RRType;
using sns::util::Rng;

namespace {

// The country: a 1.5° × 3° box (roughly Switzerland-sized).
constexpr double kCountryMinLat = 46.0;
constexpr double kCountryMinLon = 6.0;
constexpr double kCountryLatSpan = 1.5;
constexpr double kCountryLonSpan = 3.0;
// The delegation tree: country → cities → streets → buildings.
constexpr std::size_t kCities = 12;
constexpr std::size_t kStreetsPerCity = 16;
constexpr std::size_t kBuildingsPerStreet = 12;
// Devices per ordinary building, drawn uniformly; with the landmarks
// below a building holds about 10 on average.
constexpr std::size_t kMinDevices = 5;
constexpr std::size_t kMaxDevices = 12;
// Building footprints are ~44 m × 38 m and sit 60 m apart along their
// street.
constexpr double kFootLat = 0.0004;
constexpr double kFootLon = 0.0005;
constexpr double kStep = 0.0006;
// One building in kLandmarkEvery is a landmark (station, mall) with
// many more devices; building-sized AREA boxes over one overflow a
// classic 512-byte reply and retry over TCP.
constexpr std::size_t kLandmarkEvery = 16;
constexpr std::size_t kLandmarkMin = 24;
constexpr std::size_t kLandmarkMax = 40;

// civic_read: share of positive lookups of Zipf-hot devices.
constexpr double kHotShare = 0.75;

/// Stream seeds are derived from the world seed and a per-stream salt
/// so streams are independent of each other and of the world layout.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  Rng rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
  return rng.next_u64();
}

Name child(const std::string& label, const Name& parent) {
  return sns::dns::name_of(label + "." + parent.to_string());
}

Name ns_of(const Name& apex) { return child("ns", apex); }

void add_apex(ZoneRecords& zone, const char* served_at) {
  zone.records.push_back(sns::dns::make_soa(zone.apex, ns_of(zone.apex), 1));
  zone.records.push_back(sns::dns::make_ns(zone.apex, ns_of(zone.apex)));
  zone.records.push_back(sns::dns::make_a(ns_of(zone.apex), ipv4_of(served_at)));
}

void add_delegation(ZoneRecords& zone, const Name& child_apex, const char* child_at) {
  zone.records.push_back(sns::dns::make_ns(child_apex, ns_of(child_apex)));
  zone.records.push_back(sns::dns::make_a(ns_of(child_apex), ipv4_of(child_at)));
}

sns::dns::LocData loc_at(double lat, double lon) {
  auto loc = sns::dns::LocData::from_degrees(lat, lon, 0.0, 1.0, 5.0, 3.0);
  if (!loc.ok()) throw std::runtime_error("LOC out of range");
  return loc.value();
}

/// A point strictly inside `box` (a margin keeps LOC rounding inside).
LatLon inside(Rng& rng, const sns::geo::BoundingBox& box) {
  constexpr double kMargin = 0.00002;
  return {rng.next_double(box.min_lat + kMargin, box.max_lat - kMargin),
          rng.next_double(box.min_lon + kMargin, box.max_lon - kMargin)};
}

/// Box coordinates on the AREA wire grid (1e-7°), so the box the
/// server decodes is bit-identical to the one the oracle scans with.
double on_grid(double degrees) { return static_cast<double>(std::llround(degrees * 1e7)) / 1e7; }

sns::geo::BoundingBox grid_box(double min_lat, double min_lon, double max_lat, double max_lon) {
  return {on_grid(min_lat), on_grid(min_lon), on_grid(max_lat), on_grid(max_lon)};
}

/// Zipf(s) draw over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (auto& c : cdf_) c /= total;
  }

  [[nodiscard]] std::size_t draw(double u) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1 : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

sns::net::Ipv4Addr ipv4_of(const char* dotted) {
  sns::net::Ipv4Addr ip{};
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (std::sscanf(dotted, "%u.%u.%u.%u", &a, &b, &c, &d) != 4)
    throw std::runtime_error(std::string("bad address ") + dotted);
  ip.octets = {static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
               static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d)};
  return ip;
}

std::string device_txt(std::size_t device, std::uint64_t generation) {
  return "home-" + std::to_string(device) + "-g" + std::to_string(generation);
}

World make_world(std::uint64_t seed) {
  World world;
  world.seed = seed;
  Rng rng(mix(seed, 1));
  world.country = sns::dns::name_of("country.loc");

  ZoneRecords country{world.country, {}};
  add_apex(country, kUpperAddr);
  std::vector<ZoneRecords> cities;
  std::vector<ZoneRecords> streets;

  for (std::size_t c = 0; c < kCities; ++c) {
    Name city_apex = child("c" + std::to_string(c), world.country);
    world.cities.push_back(city_apex);
    add_delegation(country, city_apex, kUpperAddr);
    ZoneRecords city{city_apex, {}};
    add_apex(city, kUpperAddr);
    const double city_lat = kCountryMinLat + 0.1 + rng.next_double() * (kCountryLatSpan - 0.2);
    const double city_lon = kCountryMinLon + 0.1 + rng.next_double() * (kCountryLonSpan - 0.2);

    for (std::size_t s = 0; s < kStreetsPerCity; ++s) {
      Name street_apex = child("s" + std::to_string(s), city_apex);
      const std::size_t street_index = world.streets.size();
      world.streets.push_back(street_apex);
      add_delegation(city, street_apex, kUpperAddr);
      ZoneRecords street{street_apex, {}};
      add_apex(street, kUpperAddr);
      // Streets run east-west, stacked north-south across the city.
      const double street_lat = city_lat + static_cast<double>(s) * 0.0015;
      const double street_lon = city_lon + rng.next_double(0.0, 0.002);

      for (std::size_t b = 0; b < kBuildingsPerStreet; ++b) {
        Building building;
        building.apex = child("b" + std::to_string(b), street_apex);
        building.street = street_index;
        const double lon0 = street_lon + static_cast<double>(b) * kStep;
        building.footprint = {street_lat, lon0, street_lat + kFootLat, lon0 + kFootLon};
        const bool landmark = rng.next_below(kLandmarkEvery) == 0;
        const std::size_t lo = landmark ? kLandmarkMin : kMinDevices;
        const std::size_t hi = landmark ? kLandmarkMax : kMaxDevices;
        building.device_count = lo + rng.next_below(hi - lo + 1);
        building.first_device = world.devices.size();
        add_delegation(street, building.apex, kBuildingAddr);

        ZoneRecords zone{building.apex, {}};
        add_apex(zone, kBuildingAddr);
        const std::size_t building_index = world.buildings.size();
        for (std::size_t d = 0; d < building.device_count; ++d) {
          const std::size_t index = world.devices.size();
          Device dev;
          dev.name = child("d" + std::to_string(d), building.apex);
          dev.building = building_index;
          dev.a.octets = {10, static_cast<std::uint8_t>(index >> 16),
                          static_cast<std::uint8_t>(index >> 8),
                          static_cast<std::uint8_t>(index)};
          for (std::size_t k = 0; k < 6; ++k)
            dev.bdaddr.octets[k] = static_cast<std::uint8_t>(rng.next_u64());
          dev.txt = device_txt(index, 0);
          auto spot = inside(rng, building.footprint);
          auto loc = loc_at(spot.lat, spot.lon);
          // Keep the coordinates the LOC record decodes to: the server
          // indexes those, so the AREA oracle must scan them too.
          dev.lat = loc.latitude_degrees();
          dev.lon = loc.longitude_degrees();
          dev.loc = loc;
          zone.records.push_back(sns::dns::make_a(dev.name, dev.a));
          zone.records.push_back(sns::dns::make_bdaddr(dev.name, dev.bdaddr));
          zone.records.push_back(sns::dns::make_txt(dev.name, {dev.txt}));
          zone.records.push_back(sns::dns::make_loc(dev.name, loc));
          world.devices.push_back(std::move(dev));
        }
        world.buildings.push_back(std::move(building));
        world.building_zones.push_back(std::move(zone));
      }
      streets.push_back(std::move(street));
    }
    cities.push_back(std::move(city));
  }
  world.upper.push_back(std::move(country));
  for (auto& zone : cities) world.upper.push_back(std::move(zone));
  for (auto& zone : streets) world.upper.push_back(std::move(zone));
  return world;
}

std::size_t zone_count(const World& world) {
  return world.upper.size() + world.building_zones.size();
}

std::string serialize(const World& world) {
  std::string out;
  auto dump = [&](const std::vector<ZoneRecords>& zones) {
    for (const auto& zone : zones) {
      out += "$ORIGIN " + zone.apex.to_string() + "\n";
      for (const auto& rr : zone.records) out += rr.to_string() + "\n";
    }
  };
  dump(world.upper);
  dump(world.building_zones);
  return out;
}

std::vector<ReadReq> read_stream(const World& world, std::uint64_t seed, std::size_t count) {
  Rng rng(mix(seed, 2));
  // Popularity ranks are a seeded permutation of the devices.
  std::vector<std::size_t> by_rank(world.devices.size());
  std::iota(by_rank.begin(), by_rank.end(), std::size_t{0});
  for (std::size_t i = by_rank.size(); i > 1; --i)
    std::swap(by_rank[i - 1], by_rank[rng.next_below(i)]);
  Zipf zipf(by_rank.size(), 1.0);
  static constexpr RRType kTypes[] = {RRType::A, RRType::BDADDR, RRType::TXT, RRType::LOC};

  std::vector<ReadReq> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ReadReq req;
    if (rng.chance(kHotShare)) {
      req.device = by_rank[zipf.draw(rng.next_double())];
      req.qname = world.devices[req.device].name;
      req.qtype = kTypes[rng.next_below(4)];
      req.expect = Expect::Positive;
    } else {
      const auto& building = world.buildings[rng.next_below(world.buildings.size())];
      if (rng.chance(0.5) && building.device_count > 0) {
        // NODATA: a real device, a type it does not carry.
        req.device = building.first_device + rng.next_below(building.device_count);
        req.qname = world.devices[req.device].name;
        req.qtype = RRType::AAAA;
        req.expect = Expect::NoData;
      } else {
        req.qname = child("x" + std::to_string(rng.next_below(1'000'000)), building.apex);
        req.qtype = kTypes[rng.next_below(4)];
        req.expect = Expect::NxDomain;
      }
    }
    out.push_back(std::move(req));
  }
  return out;
}

std::vector<AreaReq> area_stream(const World& world, std::uint64_t seed, std::size_t count) {
  Rng rng(mix(seed, 3));
  std::vector<AreaReq> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    AreaReq req;
    req.building = rng.next_below(world.buildings.size());
    const auto& building = world.buildings[req.building];
    const auto& foot = building.footprint;
    const double roll = rng.next_double();
    if (roll < 0.7) {
      // Room: a ~6 m box around where the gaze ray meets the building.
      req.size = AreaSize::Room;
      auto spot = inside(rng, foot);
      req.box = grid_box(spot.lat - 0.00003, spot.lon - 0.00004, spot.lat + 0.00003,
                         spot.lon + 0.00004);
    } else if (roll < 0.9) {
      // Floor wing: one half of the footprint.
      req.size = AreaSize::Floor;
      const double mid = (foot.min_lat + foot.max_lat) / 2;
      req.box = rng.chance(0.5) ? grid_box(foot.min_lat, foot.min_lon, mid, foot.max_lon)
                                : grid_box(mid, foot.min_lon, foot.max_lat, foot.max_lon);
    } else {
      // Whole building; half of these come from classic 512-byte
      // clients, so landmark-sized answers truncate and retry on TCP.
      req.size = AreaSize::Building;
      req.box = grid_box(foot.min_lat - 0.00001, foot.min_lon - 0.00001,
                         foot.max_lat + 0.00001, foot.max_lon + 0.00001);
      req.edns = rng.chance(0.5);
    }
    out.push_back(req);
  }
  return out;
}

std::vector<std::size_t> churn_buildings(const World& world, std::size_t count) {
  // Every k-th building, so the slice spans cities and streets.
  std::vector<std::size_t> out;
  const std::size_t n = world.buildings.size();
  count = std::min(count, n);
  for (std::size_t i = 0; i < count; ++i) out.push_back(i * n / count);
  return out;
}

std::vector<Rehome> churn_stream(const World& world, const std::vector<std::size_t>& buildings,
                                 std::uint64_t seed, std::size_t count) {
  Rng rng(mix(seed, 4));
  std::vector<std::size_t> movable;
  for (auto b : buildings) {
    const auto& building = world.buildings[b];
    for (std::size_t d = 0; d < building.device_count; ++d)
      movable.push_back(building.first_device + d);
  }
  std::vector<std::uint64_t> generation(world.devices.size(), 0);
  std::vector<sns::dns::LocData> current(world.devices.size());
  for (std::size_t d = 0; d < world.devices.size(); ++d) current[d] = world.devices[d].loc;
  std::vector<Rehome> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count && !movable.empty(); ++i) {
    Rehome move;
    move.device = movable[rng.next_below(movable.size())];
    move.generation = ++generation[move.device];
    auto spot = inside(rng, world.buildings[world.devices[move.device].building].footprint);
    auto loc = loc_at(spot.lat, spot.lon);
    move.lat = loc.latitude_degrees();
    move.lon = loc.longitude_degrees();
    move.loc = loc;
    move.txt = device_txt(move.device, move.generation);
    move.old_loc = current[move.device];
    move.old_txt = device_txt(move.device, move.generation - 1);
    current[move.device] = loc;
    out.push_back(std::move(move));
  }
  return out;
}

std::vector<ReadReq> churn_reads(const World& world, const std::vector<std::size_t>& buildings,
                                 std::uint64_t seed, std::size_t count) {
  Rng rng(mix(seed, 5));
  std::vector<ReadReq> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count && !buildings.empty(); ++i) {
    const auto& building = world.buildings[buildings[rng.next_below(buildings.size())]];
    ReadReq req;
    req.device = building.first_device + rng.next_below(building.device_count);
    req.qname = world.devices[req.device].name;
    req.qtype = rng.chance(0.5) ? RRType::TXT : RRType::LOC;
    out.push_back(std::move(req));
  }
  return out;
}

std::vector<std::size_t> brute_force_area(const World& world, const std::vector<LatLon>& locs,
                                          const AreaReq& req) {
  std::vector<std::size_t> out;
  const auto& building = world.buildings[req.building];
  for (std::size_t d = 0; d < building.device_count; ++d) {
    const std::size_t index = building.first_device + d;
    if (req.box.contains(sns::geo::GeoPoint{locs[index].lat, locs[index].lon, 0.0}))
      out.push_back(index);
  }
  return out;
}

sns::dns::Message read_query(const ReadReq& req) {
  return sns::dns::make_query(0, req.qname, req.qtype, /*recursion_desired=*/false);
}

sns::dns::Message area_query(const World& world, const AreaReq& req) {
  auto query = sns::spatial::make_area_query(0, world.buildings[req.building].apex, req.box);
  if (req.edns) sns::dns::add_edns(query, 1232);
  return query;
}

}  // namespace civicbench
