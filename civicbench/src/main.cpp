// civicbench — one seeded civic world, three traffic mixes, one command.
//
//   civicbench --workload civic_read|mobility_churn|area_gaze --seed N
//              --seconds S --trace 0|1 [--spans FILE]
//
// The seed generates a civic delegation tree (country → cities →
// streets → buildings) with devices inside every building footprint.
// Its records are served like a `snsd --zone-dir` fabric over loopback:
// an upper runtime (country, city and street zones, 1 shard) and a
// building runtime (every building zone, 2 shards) on distinct
// addresses sharing one port, plus, in mobility_churn, an IXFR edge
// mirroring the churned buildings. Load comes from this process: at
// most two generator threads and four sockets.
//
// Each workload runs an open-loop phase at fixed rates (latency from
// each request's due time) and then a closed-loop phase with a fixed
// window per generator thread (throughput). Every reply is checked
// against the world; a wrong answer makes the run fail.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same load
// and then the traced in-process replay (probe.hpp) and prints the
// per-layer metrics. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Every figure the run took, also those neither list holds (the update
// and edge figures of mobility_churn), goes to stderr as
// "civicbench: metric NAME = VALUE". METRICS.md maps every metric to the
// layer and workload it reads.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <poll.h>
#include <sched.h>
#include <stdexcept>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "federation/edge.hpp"
#include "federation/resolver.hpp"
#include "loadgen.hpp"
#include "obs/metrics.hpp"
#include "oracle.hpp"
#include "probe.hpp"
#include "runtime/runtime.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "transport/client.hpp"
#include "world.hpp"

using namespace civicbench;
namespace dns = sns::dns;
namespace transport = sns::transport;
using sns::runtime::ServerRuntime;

namespace {

// ---- fixed settings ---------------------------------------------------------
// Open-loop rates are a fifth (civic_read) to a twentieth of what the
// closed loop completes on a 4-vCPU host: at half load a vCPU the host
// deschedules for a few milliseconds leaves a backlog that dominates
// the open-loop figures.
constexpr double kReadRate = 30'000;       // civic_read stub reads/s
constexpr double kDescentRate = 40;        // civic_read cold descents/s
constexpr double kChurnReadRate = 10'000;  // mobility_churn reads/s
constexpr double kUpdateRate = 40;         // mobility_churn signed updates/s
constexpr double kAreaRate = 16'000;       // area_gaze AREA queries/s
constexpr std::size_t kWindow = 32;        // closed loop, per socket
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kRounds = 12;        // open + closed slices per run
constexpr std::size_t kMirrored = 24;      // buildings churned and mirrored
constexpr auto kEdgeRefresh = std::chrono::milliseconds(20);
constexpr double kLagBoundUs = 10'000;     // per-round open-loop send lag p99 limit
constexpr std::size_t kReadStream = 1u << 17;
constexpr std::size_t kAreaStream = 1u << 16;
constexpr std::size_t kProbeReads = 4000;
constexpr std::size_t kProbeAreas = 2000;
constexpr std::size_t kProbeMoves = 150;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "civicbench: %s\nusage: civicbench --workload civic_read|mobility_churn|"
               "area_gaze --seed N --seconds S --trace 0|1 [--spans FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload != "civic_read" && args.workload != "mobility_churn" &&
      args.workload != "area_gaze")
    usage("unknown workload '" + args.workload + "'");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

transport::Endpoint at(const char* addr, std::uint16_t port) {
  auto parsed = transport::Endpoint::parse(addr, port);
  if (!parsed.ok()) throw std::runtime_error(parsed.error().message);
  return parsed.value();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

void sleep_until_ns(std::int64_t when) {
  const std::int64_t delta = when - now_ns();
  if (delta > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(delta));
}

// On a host with at least four CPUs every thread gets a CPU of its own
// kind, so runs do not depend on where the scheduler happens to put
// them: building shards on CPUs 0 and 1, generator thread t on CPU
// 2 + t, and the light threads (upper runtime, edge) on CPU 3.
bool pinning() { return std::thread::hardware_concurrency() >= 4; }

void pin_all(const std::vector<pid_t>& tids, int first_cpu, int cpus) {
  if (!pinning()) return;
  for (std::size_t i = 0; i < tids.size(); ++i)
    (void)pin_thread(tids[i], first_cpu + static_cast<int>(i % static_cast<std::size_t>(cpus)));
}

void pin_generator(int thread) {
  if (pinning()) (void)pin_thread(current_tid(), 2 + thread);
}

/// Keeps the four pinned CPUs busy with SCHED_IDLE threads while the
/// load runs. An idle vCPU halts, and waking a halted vCPU goes through
/// the hypervisor; on a shared host that wake-up, not the program, then
/// sets loopback latency and leaves the server idle between datagrams
/// (measured: server busy 57–78% of a closed loop without spinners,
/// 90–96% with). Spinners yield to any real thread at once, so the
/// program and the generators run on CPUs that never sleep.
class Spinners {
 public:
  Spinners() {
    if (!pinning()) return;
    for (int cpu = 0; cpu < 4; ++cpu)
      threads_.emplace_back([this, cpu] {
        (void)pin_thread(current_tid(), cpu);
        sched_param param{};
        (void)sched_setscheduler(0, SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
  }
  ~Spinners() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }
  Spinners(const Spinners&) = delete;
  Spinners& operator=(const Spinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// ---- the serving fabric -----------------------------------------------------

/// One set-up of every runtime the workload talks to.
struct Fabric {
  std::unique_ptr<ServerRuntime> upper;
  std::unique_ptr<ServerRuntime> building;
  std::unique_ptr<ServerRuntime> edge_runtime;
  std::unique_ptr<sns::federation::EdgeNameserver> edge;
  std::vector<pid_t> building_tids;
  std::uint16_t port = 0;

  Fabric() = default;
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;
  ~Fabric() {
    if (edge) edge->stop();
    if (edge_runtime) edge_runtime->stop();
    if (building) building->stop();
    if (upper) upper->stop();
  }
};

std::vector<sns::server::ZoneViewPtr> build_views(const std::vector<ZoneRecords>& zones) {
  std::vector<sns::server::ZoneViewPtr> views;
  views.reserve(zones.size());
  for (const auto& zone : zones) {
    auto view = sns::server::build_zone_view(zone.apex, zone.records);
    if (!view.ok()) throw std::runtime_error("zone " + zone.apex.to_string() + ": " +
                                             view.error().message);
    views.push_back(std::move(view).value());
  }
  return views;
}

void must_answer(const transport::Endpoint& server, const Name& apex) {
  transport::QueryOptions options;
  options.timeout = std::chrono::milliseconds(500);
  options.attempts = 4;
  auto reply = transport::udp_query(server, dns::make_query(7, apex, dns::RRType::SOA, false),
                                    options);
  if (!reply.ok() || reply.value().header.rcode != dns::Rcode::NoError ||
      reply.value().answers.empty())
    throw std::runtime_error("runtime at " + server.to_string() + " does not answer for " +
                             apex.to_string());
}

/// Generated records → every runtime (and edge) answering with its
/// caches built. This is what setup_s times.
std::unique_ptr<Fabric> set_up(const World& world, bool with_edge,
                               const std::vector<Name>& mirrored, const dns::TsigKey& key) {
  auto fabric = std::make_unique<Fabric>();
  sns::runtime::RuntimeOptions upper_options;
  upper_options.threads = 1;
  fabric->upper = std::make_unique<ServerRuntime>("upper", upper_options);
  auto before = thread_ids();
  auto started = fabric->upper->start(at(kUpperAddr, 0), build_views(world.upper));
  if (!started.ok()) throw std::runtime_error("upper: " + started.error().message);
  pin_all(new_threads(before, thread_ids()), 3, 1);
  fabric->port = fabric->upper->local().port;

  sns::runtime::RuntimeOptions building_options;
  building_options.threads = 2;
  fabric->building = std::make_unique<ServerRuntime>("buildings", building_options);
  fabric->building->set_update_key(key);
  before = thread_ids();
  started = fabric->building->start(at(kBuildingAddr, fabric->port),
                                    build_views(world.building_zones));
  if (!started.ok()) throw std::runtime_error("buildings: " + started.error().message);
  fabric->building_tids = new_threads(before, thread_ids());
  pin_all(fabric->building_tids, 0, 2);

  if (with_edge) {
    sns::runtime::RuntimeOptions edge_options;
    edge_options.threads = 1;
    fabric->edge_runtime = std::make_unique<ServerRuntime>("edge", edge_options);
    sns::federation::EdgeOptions options;
    options.primary = fabric->building->local();
    options.zones = mirrored;
    options.refresh_interval = kEdgeRefresh;
    options.query.timeout = std::chrono::milliseconds(250);
    fabric->edge =
        std::make_unique<sns::federation::EdgeNameserver>(*fabric->edge_runtime, options);
    before = thread_ids();
    auto views = fabric->edge->initial_sync();
    if (!views.ok()) throw std::runtime_error("edge sync: " + views.error().message);
    started = fabric->edge_runtime->start(at(kEdgeAddr, fabric->port), std::move(views).value());
    if (!started.ok()) throw std::runtime_error("edge: " + started.error().message);
    if (auto refresh = fabric->edge->start(); !refresh.ok())
      throw std::runtime_error("edge refresh: " + refresh.error().message);
    pin_all(new_threads(before, thread_ids()), 3, 1);
  }
  must_answer(fabric->upper->local(), world.country);
  must_answer(fabric->building->local(), world.buildings.front().apex);
  if (with_edge) must_answer(fabric->edge_runtime->local(), mirrored.front());
  return fabric;
}

std::unique_ptr<sns::obs::MetricsRegistry> totals_of(const ServerRuntime& rt) {
  auto totals = std::make_unique<sns::obs::MetricsRegistry>();
  rt.merge_metrics(*totals);
  return totals;
}

double counter_of(const sns::obs::MetricsRegistry& m, const char* name) {
  return static_cast<double>(m.counter_value(name).value_or(0));
}

/// transport.udp.queries of every shard, from the fleet dump.
std::vector<std::uint64_t> per_shard_queries(const ServerRuntime& rt) {
  const std::string json = rt.metrics_json();
  std::vector<std::uint64_t> out(rt.worker_count(), 0);
  std::size_t pos = json.find("\"shards\"");
  for (std::size_t shard = 0; shard < out.size() && pos != std::string::npos; ++shard) {
    pos = json.find("\"worker\":", pos + 1);
    if (pos == std::string::npos) break;
    const std::size_t next = json.find("\"worker\":", pos + 1);
    const std::string key = "\"transport.udp.queries\":";
    const std::size_t at_key = json.find(key, pos);
    if (at_key != std::string::npos && at_key < next)
      out[shard] = std::strtoull(json.c_str() + at_key + key.size(), nullptr, 10);
  }
  return out;
}

/// One connected UDP socket per server shard. SO_REUSEPORT spreads
/// flows over shards by a hash of the 4-tuple, so two sockets land on
/// the same shard half the time; probing each candidate and keeping
/// one per shard makes every run load both shards alike.
std::vector<transport::FdHandle> balanced_sockets(const ServerRuntime& rt,
                                                  const sns::util::Bytes& probe) {
  std::vector<transport::FdHandle> out(rt.worker_count());
  std::size_t filled = 0;
  for (int attempt = 0; attempt < 64 && filled < out.size(); ++attempt) {
    auto fd = connect_udp(rt.local());
    const auto before = per_shard_queries(rt);
    constexpr int kProbes = 8;
    int answered = 0;
    for (int i = 0; i < kProbes; ++i) {
      if (::send(fd.get(), probe.data(), probe.size(), 0) < 0) continue;
      pollfd pfd{fd.get(), POLLIN, 0};
      if (::poll(&pfd, 1, 200) > 0) {
        std::uint8_t sink[2048];
        if (::recv(fd.get(), sink, sizeof sink, 0) > 0) ++answered;
      }
    }
    if (answered < kProbes / 2) continue;
    const auto after = per_shard_queries(rt);
    std::size_t best = 0;
    for (std::size_t s = 1; s < out.size(); ++s)
      if (after[s] - before[s] > after[best] - before[best]) best = s;
    if (!out[best].valid()) {
      out[best] = std::move(fd);
      ++filled;
    }
  }
  if (filled < out.size()) throw std::runtime_error("could not reach every server shard");
  return out;
}

// ---- per-run bookkeeping ----------------------------------------------------

struct Run {
  std::map<std::string, double> metrics;
  OpCount ops;
  std::uint64_t resent = 0;
  std::vector<double> lag_us;
};

void absorb(Run& run, const LoadResult& r) {
  if (r.ops.failed() > 0)
    std::fprintf(stderr, "civicbench: %llu of %llu requests timed out, %llu wrong (%llu resent)\n",
                 static_cast<unsigned long long>(r.ops.timed_out),
                 static_cast<unsigned long long>(r.ops.attempted),
                 static_cast<unsigned long long>(r.ops.wrong),
                 static_cast<unsigned long long>(r.resent));
  run.ops += r.ops;
  run.resent += r.resent;
  run.lag_us.insert(run.lag_us.end(), r.lag_us.begin(), r.lag_us.end());
}

/// CPU split of the closed-loop phases: which side ran out first.
struct CpuSplit {
  double server_s = 0.0;
  double loadgen_s = 0.0;
  double seconds = 0.0;
  double completed = 0.0;
  std::size_t server_threads = 0;
};

/// Per-round figures. The load alternates open- and closed-loop slices
/// kRounds times. On a shared host a neighbour slows some stretches of a
/// run (CPU steal, a busy sibling hyperthread, cache pressure) and
/// leaves others alone, and a run's median latency follows the
/// neighbour. The tenth percentile of a round takes requests that met no
/// such slowdown, and the median over the rounds that kept schedule
/// drops the rounds where one lasted the whole slice: that is the
/// end-to-end latency figure (`op_p10_us`), and it still moves with
/// every step a request takes through the program. The medians, tails
/// and the wall-clock closed-loop rate are per-layer: on a shared 4-vCPU
/// host they follow the neighbours more than the program.
struct Rounds {
  std::vector<double> p10, p50, p90, p99, lag99, qps;
  CpuSplit cpu;

  void open(const LoadResult& r) {
    p10.push_back(percentile(r.latency_us, 10));
    p50.push_back(percentile(r.latency_us, 50));
    p90.push_back(percentile(r.latency_us, 90));
    p99.push_back(percentile(r.latency_us, 99));
    lag99.push_back(percentile(r.lag_us, 99));
  }
  /// A round whose open-loop send lag p99 exceeds kLagBoundUs fell
  /// behind its schedule (the generator stalled); its latency figures
  /// measure the stall, so the per-round figures skip it.
  [[nodiscard]] bool on_schedule(std::size_t r) const { return lag99[r] <= kLagBoundUs; }
  [[nodiscard]] std::size_t late_rounds() const {
    std::size_t late = 0;
    for (std::size_t r = 0; r < lag99.size(); ++r) late += on_schedule(r) ? 0 : 1;
    return late;
  }
  /// Median of the per-round values `v` over the rounds that kept
  /// schedule (over every round when none did).
  [[nodiscard]] double median_on_schedule(const std::vector<double>& v) const {
    std::vector<double> kept;
    for (std::size_t r = 0; r < v.size(); ++r)
      if (on_schedule(r)) kept.push_back(v[r]);
    return percentile(kept.empty() ? v : kept, 50);
  }
  void finish(Run& run) const {
    for (std::size_t r = 0; r < qps.size(); ++r)
      std::fprintf(stderr,
                   "civicbench: round %zu: p10 %.1f us, p50 %.1f us, p90 %.1f us, p99 %.1f us, "
                   "lag p99 %.1f us, %.0f/s\n",
                   r, p10[r], p50[r], p90[r], p99[r], lag99[r], qps[r]);
    run.metrics["op_p10_us"] = median_on_schedule(p10);
    run.metrics["op_p50_us"] = median_on_schedule(p50);
    run.metrics["loadgen.late_rounds"] = static_cast<double>(late_rounds());
    run.metrics["op_qps"] = ratio(std::accumulate(qps.begin(), qps.end(), 0.0),
                                  static_cast<double>(qps.size()));
    run.metrics["op_p90_us"] = median_on_schedule(p90);
    run.metrics["op_p99_us"] = median_on_schedule(p99);
    run.metrics["runtime.server_cpu_s"] = cpu.server_s;
    run.metrics["loadgen.cpu_s"] = cpu.loadgen_s;
    run.metrics["runtime.server_busy_ratio"] =
        ratio(cpu.server_s, cpu.seconds * static_cast<double>(cpu.server_threads));
    run.metrics["runtime.qps_per_server_core"] = ratio(cpu.completed, cpu.server_s);
  }
};

/// Request numbering of generator `thread` in `round`: distinct offsets
/// so rounds do not replay the same stream slice.
std::uint64_t first_request(std::size_t round, int thread) {
  return static_cast<std::uint64_t>(round) * 1'000'003 + static_cast<std::uint64_t>(thread) * 500'009;
}

/// One closed-loop slice, generator t on generator thread t.
void closed_slice(const Fabric& fabric, const std::vector<LoadGenerator*>& generators,
                  double seconds, std::size_t round, Run& run, Rounds& rounds) {
  const std::size_t n = generators.size();
  std::vector<LoadResult> results(n);
  std::vector<double> gen_cpu(n, 0.0);
  const double server_before = threads_cpu_s(fabric.building_tids);
  const std::int64_t t0 = now_ns();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n; ++t)
    threads.emplace_back([&, t] {
      pin_generator(static_cast<int>(t));
      const double c0 = thread_cpu_s();
      results[t] =
          generators[t]->run_closed(kWindow, seconds, first_request(round, static_cast<int>(t)));
      gen_cpu[t] = thread_cpu_s() - c0;
    });
  for (auto& th : threads) th.join();
  rounds.cpu.seconds += seconds_since(t0);
  rounds.cpu.server_s += threads_cpu_s(fabric.building_tids) - server_before;
  rounds.cpu.server_threads = fabric.building_tids.size();
  double completed = 0;
  for (std::size_t t = 0; t < n; ++t) {
    absorb(run, results[t]);
    rounds.cpu.loadgen_s += gen_cpu[t];
    completed += static_cast<double>(results[t].completed);
  }
  rounds.cpu.completed += completed;
  rounds.qps.push_back(completed / results[0].seconds);
}

// ---- civic_read -------------------------------------------------------------

LoadHooks read_hooks(const World& world, const std::vector<ReadReq>& reqs,
                       const std::vector<sns::util::Bytes>& wires) {
  LoadHooks hooks;
  hooks.wire = [&wires](std::uint64_t k) -> const sns::util::Bytes& {
    return wires[k % wires.size()];
  };
  hooks.check = [&world, &reqs](std::uint64_t k, std::span<const std::uint8_t> reply) {
    const auto& req = reqs[k % reqs.size()];
    dns::Message msg;
    const Verdict verdict = decode_reply(reply, req.qname, req.qtype, msg);
    return verdict == Verdict::Ok ? check_read(world, req, msg) : verdict;
  };
  return hooks;
}

/// Cold iterative descents (a fresh client each) at kDescentRate for
/// `seconds`, root → device TXT answer, each timed from its due time.
struct Descents {
  OpCount ops;
  std::vector<double> latency_us, waves, raced;
};

void descend(const World& world, const Fabric& fabric, sns::util::Rng& rng, double seconds,
             Descents& out) {
  sns::federation::ResolveOptions options;
  options.glue_port = fabric.port;
  options.query.timeout = std::chrono::milliseconds(300);
  options.query.attempts = 3;
  const std::int64_t t0 = now_ns() + 1'000'000;
  const auto total = static_cast<std::size_t>(kDescentRate * seconds);
  for (std::size_t i = 0; i < total; ++i) {
    const std::int64_t due =
        t0 + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / kDescentRate);
    sleep_until_ns(due);
    const auto& dev = world.devices[rng.next_below(world.devices.size())];
    ++out.ops.attempted;
    sns::federation::IterativeClient client({fabric.upper->local()}, options);
    auto answer = client.resolve(dev.name, dns::RRType::TXT);
    const double us = static_cast<double>(now_ns() - due) / 1e3;
    if (!answer.ok()) {
      ++out.ops.timed_out;
      continue;
    }
    const auto& resp = answer.value().response;
    const auto* txt = resp.answers.size() == 1
                          ? std::get_if<dns::TxtData>(&resp.answers[0].rdata)
                          : nullptr;
    if (resp.header.rcode != dns::Rcode::NoError || txt == nullptr ||
        txt->strings != std::vector<std::string>{dev.txt}) {
      ++out.ops.wrong;
      continue;
    }
    out.latency_us.push_back(us);
    out.waves.push_back(answer.value().waves);
    out.raced.push_back(answer.value().raced);
  }
}

void run_civic_read(const Args& args, const World& world, Fabric& fabric, Run& run) {
  const auto reqs = read_stream(world, args.seed, kReadStream);
  std::vector<sns::util::Bytes> wires;
  for (const auto& req : reqs) wires.push_back(read_query(req).encode());
  // Open and closed loops each get one socket per server shard.
  auto open_sockets = balanced_sockets(*fabric.building, wires.front());
  auto closed_sockets = balanced_sockets(*fabric.building, wires.front());
  LoadGenerator open_load({open_sockets[0].get(), open_sockets[1].get()},
                          read_hooks(world, reqs, wires));
  LoadGenerator closed0({closed_sockets[0].get()}, read_hooks(world, reqs, wires));
  LoadGenerator closed1({closed_sockets[1].get()}, read_hooks(world, reqs, wires));
  const double slice = args.seconds / (2.0 * kRounds);
  sns::util::Rng rng(args.seed ^ 0xdec0de);
  Rounds rounds;
  Descents descents;
  std::vector<double> miss_p50, miss_p10;
  for (std::size_t r = 0; r < kRounds; ++r) {
    // Open loop: stub reads on generator 0, cold descents on generator 1.
    LoadResult open;
    std::thread reader([&] {
      pin_generator(0);
      open = open_load.run_open(kReadRate, slice, first_request(r, 0));
    });
    std::thread descender([&] {
      pin_generator(1);
      descend(world, fabric, rng, slice, descents);
    });
    reader.join();
    descender.join();
    absorb(run, open);
    rounds.open(open);
    // The negative reads: every one reaches the engine's zone selection.
    std::vector<double> misses;
    for (std::size_t i = 0; i < open.latency_k.size(); ++i)
      if (reqs[open.latency_k[i] % reqs.size()].expect != Expect::Positive)
        misses.push_back(open.latency_us[i]);
    miss_p50.push_back(percentile(misses, 50));
    miss_p10.push_back(percentile(misses, 10));
    // Closed loop: both generators, one server shard's socket each.
    closed_slice(fabric, {&closed0, &closed1}, slice, r, run, rounds);
  }
  rounds.finish(run);
  if (descents.ops.failed() > 0)
    std::fprintf(stderr, "civicbench: %llu of %llu descents timed out, %llu wrong\n",
                 static_cast<unsigned long long>(descents.ops.timed_out),
                 static_cast<unsigned long long>(descents.ops.attempted),
                 static_cast<unsigned long long>(descents.ops.wrong));
  run.ops += descents.ops;
  run.metrics["aux_p10_us"] = rounds.median_on_schedule(miss_p10);
  run.metrics["aux_p50_us"] = rounds.median_on_schedule(miss_p50);
  run.metrics["federation.descent_p50_us"] = percentile(descents.latency_us, 50);
  run.metrics["federation.descent_waves"] = percentile(descents.waves, 50);
  run.metrics["federation.descent_raced"] = percentile(descents.raced, 50);
}

// ---- mobility_churn ---------------------------------------------------------

struct ChurnResult {
  OpCount updates;
  OpCount probes;
  std::vector<double> update_us;
  std::vector<double> lag_ms;
};

/// Generator 1 of mobility_churn: signed re-homes at a fixed rate, each
/// followed by edge probes (every millisecond) until the edge serves it.
ChurnResult churn_writer(const World& world, const Fabric& fabric,
                         const std::vector<Rehome>& moves, ChurnBook& book,
                         const dns::TsigKey& key, double seconds) {
  tighten_timer_slack();
  ChurnResult out;
  struct Pending {
    std::size_t device;
    std::uint64_t generation;
    std::int64_t acked;
    std::int64_t next_probe;
  };
  std::vector<Pending> pending;
  transport::QueryOptions update_options;
  update_options.timeout = std::chrono::milliseconds(500);
  update_options.attempts = 3;
  update_options.edns_udp_size = 0;  // an appended OPT would follow the TSIG record
  transport::QueryOptions probe_options;
  probe_options.timeout = std::chrono::milliseconds(200);
  probe_options.attempts = 1;
  const double period_ns = 1e9 / kUpdateRate;
  const std::int64_t t0 = now_ns() + 1'000'000;
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  auto due_of = [&](std::size_t i) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
  };
  std::size_t u = 0;
  for (;;) {
    std::int64_t now = now_ns();
    const bool more = u < moves.size() && due_of(u) < end;
    if (!more && pending.empty()) break;
    if (more && due_of(u) <= now) {
      const auto& move = moves[u];
      book.mark_sent(move.device, move.generation);
      auto msg = make_rehome_update(world, move, static_cast<std::uint16_t>(u & 0xffff), key,
                                    static_cast<std::uint64_t>(std::time(nullptr)));
      ++out.updates.attempted;
      const std::int64_t sent = now_ns();
      auto ack = transport::udp_query(fabric.building->local(), msg, update_options);
      const std::int64_t acked = now_ns();
      if (!ack.ok()) {
        ++out.updates.timed_out;
      } else if (ack.value().header.rcode != dns::Rcode::NoError) {
        ++out.updates.wrong;
      } else {
        book.mark_acked(move.device, move.generation);
        out.update_us.push_back(static_cast<double>(acked - sent) / 1e3);
        pending.push_back({move.device, move.generation, acked, acked});
      }
      ++u;
      continue;
    }
    for (std::size_t i = 0; i < pending.size();) {
      auto& p = pending[i];
      if (p.next_probe > now) {
        ++i;
        continue;
      }
      ++out.probes.attempted;
      auto reply = transport::udp_query(
          fabric.edge_runtime->local(),
          dns::make_query(static_cast<std::uint16_t>(i), world.devices[p.device].name,
                          dns::RRType::TXT, false),
          probe_options);
      now = now_ns();
      const long seen = reply.ok() ? book.seen_generation(p.device, reply.value()) : -1;
      bool done = true;
      if (reply.ok() && seen < 0) {
        ++out.probes.wrong;  // a value the device never had, or none at all
      } else if (seen >= static_cast<long>(p.generation)) {
        out.lag_ms.push_back(static_cast<double>(now - p.acked) / 1e6);
      } else if (now - p.acked > 3'000'000'000LL) {
        ++out.probes.timed_out;  // the edge never caught up
      } else {
        p.next_probe = now + 1'000'000;
        done = false;
      }
      if (done) {
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    std::int64_t wake = more ? due_of(u) : now + 1'000'000;
    for (const auto& p : pending) wake = std::min(wake, p.next_probe);
    sleep_until_ns(wake);
  }
  return out;
}

void run_mobility_churn(const Args& args, const World& world, Fabric& fabric,
                        const std::vector<Rehome>& moves, ChurnBook& book,
                        const dns::TsigKey& key, Run& run) {
  const auto reqs = churn_reads(world, churn_buildings(world, kMirrored), args.seed, kReadStream);
  std::vector<sns::util::Bytes> wires;
  for (const auto& req : reqs) wires.push_back(read_query(req).encode());
  // Each read is checked against the device's newest acknowledged move
  // at the time the read was sent (kept by request id).
  auto hooks = [&] {
    auto floors = std::make_shared<std::vector<std::uint64_t>>(1u << 16, 0);
    LoadHooks hooks;
    hooks.wire = [&](std::uint64_t k) -> const sns::util::Bytes& {
      return wires[k % wires.size()];
    };
    hooks.on_send = [&, floors](std::uint64_t k) {
      (*floors)[k & 0xffff] = book.newest_acked(reqs[k % reqs.size()].device);
    };
    hooks.check = [&, floors](std::uint64_t k, std::span<const std::uint8_t> reply) {
      const auto& req = reqs[k % reqs.size()];
      dns::Message msg;
      const Verdict verdict = decode_reply(reply, req.qname, req.qtype, msg);
      return verdict == Verdict::Ok
                 ? book.check(req.device, req.qtype, msg, (*floors)[k & 0xffff])
                 : verdict;
    };
    return hooks;
  };
  // Open and closed loops each use one socket per server shard.
  auto open_sockets = balanced_sockets(*fabric.building, wires.front());
  auto closed_sockets = balanced_sockets(*fabric.building, wires.front());
  LoadGenerator open_load({open_sockets[0].get(), open_sockets[1].get()}, hooks());
  LoadGenerator closed_load({closed_sockets[0].get(), closed_sockets[1].get()}, hooks());
  const double slice = args.seconds / (2.0 * kRounds);
  const auto gen_before = static_cast<double>(fabric.building->generation());

  // Generator 1 writes for the whole run; generator 0 reads, open loop
  // then closed loop in every round, over both shards' sockets.
  ChurnResult churn;
  std::thread writer([&] {
    pin_generator(1);
    churn = churn_writer(world, fabric, moves, book, key, args.seconds);
  });
  Rounds rounds;
  for (std::size_t r = 0; r < kRounds; ++r) {
    LoadResult open;
    std::thread reader([&] {
      pin_generator(0);
      open = open_load.run_open(kChurnReadRate, slice, first_request(r, 0));
    });
    reader.join();
    absorb(run, open);
    rounds.open(open);
    closed_slice(fabric, {&closed_load}, slice, r, run, rounds);
  }
  writer.join();
  rounds.finish(run);
  run.ops += churn.updates;
  run.ops += churn.probes;
  run.metrics["aux_p10_us"] = percentile(churn.update_us, 10);
  run.metrics["aux_p50_us"] = percentile(churn.update_us, 50);
  run.metrics["update_p99_us"] = percentile(churn.update_us, 99);
  run.metrics["federation.edge_lag_p50_ms"] = percentile(churn.lag_ms, 50);

  const auto totals = totals_of(*fabric.building);
  const double publishes = static_cast<double>(fabric.building->generation()) - gen_before;
  run.metrics["runtime.worker.snapshot_refresh_per_publish"] =
      ratio(counter_of(*totals, "runtime.worker.snapshot_refresh"), publishes);
  const auto edge = totals_of(*fabric.edge_runtime);
  run.metrics["federation.refresh.ixfr"] = counter_of(*edge, "federation.refresh.ixfr");
  run.metrics["federation.refresh.axfr"] = counter_of(*edge, "federation.refresh.axfr");
  run.metrics["federation.refresh.failed"] = counter_of(*edge, "federation.refresh.failed");
}

// ---- area_gaze --------------------------------------------------------------

void run_area_gaze(const Args& args, const World& world, Fabric& fabric, Run& run) {
  const auto reqs = area_stream(world, args.seed, kAreaStream);
  std::vector<LatLon> locs;
  for (const auto& dev : world.devices) locs.push_back({dev.lat, dev.lon});
  std::vector<sns::util::Bytes> wires;
  for (const auto& req : reqs) wires.push_back(area_query(world, req).encode());
  const auto endpoint = fabric.building->local();
  // One TCP connection per generator for truncated answers.
  transport::TcpClient tcp[2];
  auto hooks_of = [&](int t) {
    LoadHooks hooks;
    hooks.wire = [&](std::uint64_t k) -> const sns::util::Bytes& {
      return wires[k % wires.size()];
    };
    hooks.check = [&](std::uint64_t k, std::span<const std::uint8_t> reply) {
      const auto& req = reqs[k % reqs.size()];
      dns::Message msg;
      const Verdict verdict =
          decode_reply(reply, world.buildings[req.building].apex, dns::RRType::AREA, msg);
      return verdict == Verdict::Ok ? check_area(world, locs, req, msg) : verdict;
    };
    hooks.retry_tcp = [&, t](std::uint64_t k) {
      auto& client = tcp[t];
      const auto& req = reqs[k % reqs.size()];
      auto query = area_query(world, req);
      query.header.id = static_cast<std::uint16_t>(k & 0xffff);
      if (!client.connected() && !client.connect(endpoint, std::chrono::milliseconds(500)).ok())
        return Verdict::Timeout;
      auto reply = client.query(query, std::chrono::milliseconds(500));
      if (!reply.ok()) {
        client.disconnect();
        return Verdict::Timeout;
      }
      if (reply.value().header.tc) return Verdict::Wrong;  // TCP never truncates
      return check_area(world, locs, req, reply.value());
    };
    return hooks;
  };
  // Open and closed loops each get one socket per server shard.
  auto open_sockets = balanced_sockets(*fabric.building, wires.front());
  auto closed_sockets = balanced_sockets(*fabric.building, wires.front());
  LoadGenerator open_load({open_sockets[0].get(), open_sockets[1].get()}, hooks_of(0));
  LoadGenerator closed0({closed_sockets[0].get()}, hooks_of(0));
  LoadGenerator closed1({closed_sockets[1].get()}, hooks_of(1));
  const double slice = args.seconds / (2.0 * kRounds);
  Rounds rounds;
  std::vector<double> tcp_us;
  std::uint64_t tcp_retries = 0, attempted = 0;
  for (std::size_t r = 0; r < kRounds; ++r) {
    LoadResult open;
    std::thread reader([&] {
      pin_generator(0);
      open = open_load.run_open(kAreaRate, slice, first_request(r, 0));
    });
    reader.join();
    absorb(run, open);
    rounds.open(open);
    tcp_us.insert(tcp_us.end(), open.tcp_latency_us.begin(), open.tcp_latency_us.end());
    tcp_retries += open.tcp_retries;
    attempted += open.ops.attempted;
    closed_slice(fabric, {&closed0, &closed1}, slice, r, run, rounds);
  }
  rounds.finish(run);
  run.metrics["aux_p10_us"] = percentile(tcp_us, 10);
  run.metrics["aux_p50_us"] = percentile(tcp_us, 50);
  run.metrics["transport.tcp_retry_ratio"] =
      ratio(static_cast<double>(tcp_retries), static_cast<double>(attempted));
}

// ---- output -----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"rss_mb", "MB"},
    {"op_p10_us", "us"},
};

constexpr MetricDef kPerLayer[] = {
    {"transport.udp.batch_mean", "count"},
    {"transport.tcp_retry_ratio", "ratio"},
    {"transport.share_us", "us"},
    {"runtime.server_cpu_s", "s"},
    {"loadgen.cpu_s", "s"},
    {"runtime.server_busy_ratio", "ratio"},
    {"runtime.qps_per_server_core", "1/s"},
    {"runtime.snapshot_acquire_ns", "ns"},
    {"runtime.answer_cache.hit_ratio", "ratio"},
    {"runtime.answer_cache.probe_hit_ns", "ns"},
    {"runtime.answer_cache.probe_miss_ns", "ns"},
    {"runtime.answer_cache.build_ms", "ms"},
    {"spatial.build_ms", "ms"},
    {"server.zone_build_ms", "ms"},
    {"runtime.commit_us", "us"},
    {"runtime.commit_self_us", "us"},
    {"runtime.answer_cache.rebuild_us", "us"},
    {"runtime.answer_cache.rebuild_full", "count"},
    {"runtime.spatial.rebuild_full", "count"},
    {"server.handle_ns", "ns"},
    {"server.engine_build_us", "us"},
    {"server.txn_commit_us", "us"},
    {"dns.decode_ns", "ns"},
    {"dns.encode_ns", "ns"},
    {"dns.tsig_verify_us", "us"},
    {"spatial.query_ns", "ns"},
    {"spatial.hits_per_query", "count"},
    {"spatial.answer_area_us", "us"},
    {"spatial.rebuild_us", "us"},
    {"federation.descent_p50_us", "us"},
    {"federation.descent_waves", "count"},
    {"federation.descent_raced", "count"},
    {"op_qps", "1/s"},
    {"op_p50_us", "us"},
    {"op_p90_us", "us"},
    {"op_p99_us", "us"},
    {"aux_p10_us", "us"},
    {"aux_p50_us", "us"},
    {"loadgen.lag_p99_us", "us"},
    {"loadgen.late_rounds", "count"},
    {"loadgen.resent", "count"},
    {"fail_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.coverage", "ratio"},
};

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

template <std::size_t N>
std::string result_json(bool correct, const OpCount& ops, const std::map<std::string, double>& m,
                        const MetricDef (&defs)[N]) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(ops.attempted, 1));
  out += ", \"failed\": " + std::to_string(ops.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& def : defs) {
    auto it = m.find(def.name);
    const double value = it == m.end() ? 0.0 : it->second;
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(def.name) + "\": {\"value\": " + format_number(value) +
           ", \"unit\": \"" + def.unit + "\"}";
  }
  out += "}}";
  return out;
}

template <std::size_t N>
void print_table(const std::map<std::string, double>& m, const MetricDef (&defs)[N]) {
  for (const auto& def : defs) {
    auto it = m.find(def.name);
    std::printf("  %-44s %16.4f %s\n", def.name, it == m.end() ? 0.0 : it->second, def.unit);
  }
}

int run_benchmark(const Args& args) {
  const std::int64_t started = now_ns();
  pin_generator(0);  // set-up and bookkeeping share generator 0's CPU
  const World world = make_world(args.seed);
  const bool churn = args.workload == "mobility_churn";
  const dns::TsigKey key{dns::name_of("civicbench-update-key"),
                         sns::util::Bytes{'c', 'i', 'v', 'i', 'c', '-', 's', 'e', 'e', 'd'}};
  const auto mirrored_buildings = churn_buildings(world, kMirrored);
  std::vector<Name> mirrored;
  for (auto b : mirrored_buildings) mirrored.push_back(world.buildings[b].apex);
  const auto moves = churn_stream(world, mirrored_buildings, args.seed,
                                  static_cast<std::size_t>(kUpdateRate * args.seconds) + 64);

  // Set up several times and keep the last fabric for the load phases.
  std::vector<double> setup_s;
  std::unique_ptr<Fabric> fabric;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    fabric.reset();
    const std::int64_t t0 = now_ns();
    fabric = set_up(world, churn, mirrored, key);
    setup_s.push_back(seconds_since(t0));
  }
  std::fprintf(stderr, "civicbench: %s seed %llu: %zu zones, %zu devices, set-up %.3f s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               zone_count(world), world.devices.size(), percentile(setup_s, 50));

  Run run;
  auto spinners = std::make_unique<Spinners>();
  run.metrics["setup_s"] = percentile(setup_s, 50);
  const auto before_totals = totals_of(*fabric->building);
  const auto& before = *before_totals;
  ChurnBook book(world, moves);
  if (args.workload == "civic_read") {
    run_civic_read(args, world, *fabric, run);
  } else if (churn) {
    run_mobility_churn(args, world, *fabric, moves, book, key, run);
  } else {
    run_area_gaze(args, world, *fabric, run);
  }

  const auto after_totals = totals_of(*fabric->building);
  const auto& after = *after_totals;
  if (const auto* h = after.find_histogram("transport.udp.batch_size")) {
    const auto* h0 = before.find_histogram("transport.udp.batch_size");
    const double count = static_cast<double>(h->count() - (h0 ? h0->count() : 0));
    const double sum = static_cast<double>(h->sum() - (h0 ? h0->sum() : 0));
    run.metrics["transport.udp.batch_mean"] = ratio(sum, count);
  }
  const double hits = counter_of(after, "runtime.answer_cache.hit") -
                      counter_of(before, "runtime.answer_cache.hit");
  const double misses = counter_of(after, "runtime.answer_cache.miss") -
                        counter_of(before, "runtime.answer_cache.miss");
  run.metrics["runtime.answer_cache.hit_ratio"] = ratio(hits, hits + misses);
  run.metrics["runtime.answer_cache.rebuild_full"] =
      counter_of(after, "runtime.answer_cache.rebuild_full");
  run.metrics["runtime.spatial.rebuild_full"] = counter_of(after, "runtime.spatial.rebuild_full");
  run.metrics["loadgen.lag_p99_us"] = percentile(run.lag_us, 99);
  run.metrics["loadgen.resent"] = static_cast<double>(run.resent);
  run.metrics["fail_ratio"] = run.ops.fail_ratio();

  bool correct = run.ops.wrong == 0;
  // A run is invalid when most of its rounds fell behind schedule.
  const bool on_schedule = run.metrics["loadgen.late_rounds"] * 2 <= static_cast<double>(kRounds);
  if (!on_schedule)
    std::fprintf(stderr,
                 "civicbench: invalid run: %.0f of %zu rounds had send lag p99 over %.0f us\n",
                 run.metrics["loadgen.late_rounds"], kRounds, kLagBoundUs);

  spinners.reset();
  if (args.trace) {
    // The replay runs alone on the host: load is over, the edge stops
    // polling, and the idle building runtime is the replay's target.
    if (fabric->edge) fabric->edge->stop();
    ProbeInputs in;
    in.world = &world;
    in.runtime = fabric->building.get();
    in.reads = read_stream(world, args.seed, kProbeReads);
    in.areas = area_stream(world, args.seed, kProbeAreas);
    in.moves.assign(moves.begin(), moves.begin() + static_cast<std::ptrdiff_t>(
                                                       std::min(kProbeMoves, moves.size())));
    in.key = key;
    in.book = &book;
    auto probe = run_probe(in);
    for (const auto& [name, value] : probe.metrics) run.metrics[name] = value;
    const double pipeline =
        args.workload == "area_gaze" ? probe.area_pipeline_p50_us : probe.read_pipeline_p50_us;
    run.metrics["transport.share_us"] = run.metrics["op_p50_us"] - pipeline;
    run.metrics["trace.overhead_ratio"] = probe.overhead_ratio;
    run.metrics["trace.coverage"] = probe.tie.coverage;
    if (probe.wrong > 0) {
      std::fprintf(stderr, "civicbench: %llu replayed answers were wrong\n",
                   static_cast<unsigned long long>(probe.wrong));
      correct = false;
    }
    if (!probe.tie.ok) {
      std::fprintf(stderr,
                   "civicbench: trace tie-out failed: coverage %.3f (tolerance %.2f), nested %d\n",
                   probe.tie.coverage, kTieOutTolerance, probe.tie.nested ? 1 : 0);
      correct = false;
    }
    if (!args.spans_path.empty()) {
      std::ofstream(args.spans_path) << spans_json(probe.spans);
      std::fprintf(stderr, "civicbench: wrote %zu spans to %s\n", probe.spans.size(),
                   args.spans_path.c_str());
    }
  }
  fabric.reset();
  run.metrics["rss_mb"] = peak_rss_mb();

  for (const auto& [name, value] : run.metrics)
    std::fprintf(stderr, "civicbench: metric %s = %.6g\n", name.c_str(), value);
  if (run.ops.wrong > 0)
    std::fprintf(stderr, "civicbench: %llu wrong answers\n",
                 static_cast<unsigned long long>(run.ops.wrong));
  correct = correct && on_schedule;
  std::printf("civicbench %s seed=%llu seconds=%g trace=%d wall=%.1fs attempted=%llu failed=%llu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, seconds_since(started),
              static_cast<unsigned long long>(run.ops.attempted),
              static_cast<unsigned long long>(run.ops.failed()));
  if (args.trace) {
    print_table(run.metrics, kPerLayer);
    std::printf("%s\n", result_json(correct, run.ops, run.metrics, kPerLayer).c_str());
  } else {
    print_table(run.metrics, kEndToEnd);
    std::printf("%s\n", result_json(correct, run.ops, run.metrics, kEndToEnd).c_str());
  }
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "civicbench: %s\n", e.what());
    return 1;
  }
}
