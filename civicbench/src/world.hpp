// world.hpp — the seeded civic world and its request streams.
//
// One seed fixes everything the benchmark sends: a civic delegation
// tree (country → cities → streets → buildings), the devices inside
// each building footprint, and the per-workload request streams. The
// program under test only ever sees the generated records (handed to
// server::build_zone_view) and the wire queries built from the
// streams; the benchmark keeps the world itself as its answer oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dns/loc.hpp"
#include "dns/message.hpp"
#include "dns/name.hpp"
#include "dns/record.hpp"
#include "geo/geometry.hpp"
#include "net/address.hpp"

namespace civicbench {

using sns::dns::Name;

/// Loopback addresses of the serving roles. They share one port, as a
/// `snsd --zone-dir` fabric must: glue carries addresses, not ports.
inline constexpr const char* kUpperAddr = "127.3.0.1";
inline constexpr const char* kBuildingAddr = "127.3.0.2";
inline constexpr const char* kEdgeAddr = "127.3.0.3";

struct Building {
  Name apex;
  std::size_t street = 0;
  sns::geo::BoundingBox footprint;
  std::size_t first_device = 0;
  std::size_t device_count = 0;
};

struct Device {
  Name name;
  std::size_t building = 0;
  sns::net::Ipv4Addr a{};
  sns::net::Bdaddr bdaddr{};
  std::string txt;
  double lat = 0.0;  // as `loc` decodes
  double lon = 0.0;
  sns::dns::LocData loc;
};

/// Records of one zone, as a master file would hold them.
struct ZoneRecords {
  Name apex;
  std::vector<sns::dns::ResourceRecord> records;
};

struct World {
  std::uint64_t seed = 0;
  Name country;
  std::vector<Name> cities;
  std::vector<Name> streets;
  std::vector<Building> buildings;
  std::vector<Device> devices;
  /// Country, city and street zones: the upper runtime's zone set.
  std::vector<ZoneRecords> upper;
  /// One zone per building: the building runtime's zone set.
  std::vector<ZoneRecords> building_zones;
};

/// The metro world: 12 cities × 16 streets × 12 buildings under one
/// country (2,509 zones), about 10 devices per building.
[[nodiscard]] World make_world(std::uint64_t seed);

/// Zones of the world, upper and building runtimes together.
[[nodiscard]] std::size_t zone_count(const World& world);

/// Canonical text of every generated record, zone by zone; equal
/// worlds serialise to identical bytes.
[[nodiscard]] std::string serialize(const World& world);

/// Glue address of a serving role.
[[nodiscard]] sns::net::Ipv4Addr ipv4_of(const char* dotted);

/// Device record contents as the world generates them (also used by
/// the churn stream to derive re-homed values).
[[nodiscard]] std::string device_txt(std::size_t device, std::uint64_t generation);

// ---- request streams ------------------------------------------------------

enum class Expect : std::uint8_t {
  Positive,  // NOERROR with the device's RRset of qtype
  NxDomain,  // NXDOMAIN
  NoData,    // NOERROR, no answers
};

struct ReadReq {
  Name qname;
  sns::dns::RRType qtype = sns::dns::RRType::A;
  Expect expect = Expect::Positive;
  std::size_t device = 0;  // Positive only
};

/// civic_read: three quarters Zipf-hot positive device lookups (A,
/// BDADDR, TXT or LOC), the rest NXDOMAIN/NODATA under random building
/// zones.
[[nodiscard]] std::vector<ReadReq> read_stream(const World& world, std::uint64_t seed,
                                               std::size_t count);

enum class AreaSize : std::uint8_t { Room, Floor, Building };

struct AreaReq {
  std::size_t building = 0;  // scope: the building's apex
  AreaSize size = AreaSize::Room;
  sns::geo::BoundingBox box;
  bool edns = true;  // false: classic 512-byte client, may see TC=1
};

/// area_gaze: gaze rays turned into AREA boxes inside a building —
/// mostly room-sized, some floor- and building-sized.
[[nodiscard]] std::vector<AreaReq> area_stream(const World& world, std::uint64_t seed,
                                               std::size_t count);

/// mobility_churn: device `device` re-homes to a new spot in its
/// building; `generation` numbers its moves from 1.
struct Rehome {
  std::size_t device = 0;
  std::uint64_t generation = 0;
  double lat = 0.0;  // as `loc` decodes
  double lon = 0.0;
  sns::dns::LocData loc;
  std::string txt;
  /// The values this move replaces (the device's previous generation).
  sns::dns::LocData old_loc;
  std::string old_txt;
};

/// Devices the churn stream moves (a fixed slice of buildings so an
/// edge can mirror them), and the moves themselves.
[[nodiscard]] std::vector<std::size_t> churn_buildings(const World& world, std::size_t count);
[[nodiscard]] std::vector<Rehome> churn_stream(const World& world,
                                               const std::vector<std::size_t>& buildings,
                                               std::uint64_t seed, std::size_t count);

/// mobility_churn readers: TXT or LOC lookups of devices the churn
/// stream moves (the buildings in `buildings`).
[[nodiscard]] std::vector<ReadReq> churn_reads(const World& world,
                                               const std::vector<std::size_t>& buildings,
                                               std::uint64_t seed, std::size_t count);

/// Expected device set of an AREA request, by brute-force scan over
/// the world at its `locs` (current device positions).
struct LatLon {
  double lat = 0.0;
  double lon = 0.0;
};
[[nodiscard]] std::vector<std::size_t> brute_force_area(const World& world,
                                                        const std::vector<LatLon>& locs,
                                                        const AreaReq& req);

/// Wire form of the queries (id 0; the generator patches the id).
[[nodiscard]] sns::dns::Message read_query(const ReadReq& req);
[[nodiscard]] sns::dns::Message area_query(const World& world, const AreaReq& req);

}  // namespace civicbench
