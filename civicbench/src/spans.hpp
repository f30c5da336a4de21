// spans.hpp — in-memory span recorder for the traced replay.
//
// The traced run replays a sample of the workload's inputs through the
// program's public functions and records one span around each call:
// name, start, end, parent span and a request id shared by every span
// of one request. Spans stay in memory until the run ends, then are
// written out and reduced to per-layer self time (a span's duration
// minus the part its children cover).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace civicbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
  /// Free-form outcome tag (e.g. answer-cache hit = 1, miss = 0).
  std::int32_t tag = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its index (-1 when disabled).
  std::int32_t begin(const char* name, std::uint64_t request, std::int32_t parent = -1);
  void end(std::int32_t span, std::int32_t tag = 0);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Self time of every span (duration minus its direct children).
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Self-time samples (ns) per span name; `tag` ≥ 0 keeps only spans
/// with that tag.
[[nodiscard]] std::vector<double> self_samples(const std::vector<Span>& spans,
                                               const std::vector<std::int64_t>& self,
                                               const std::string& name, int tag = -1);

/// Durations (ns) of the spans named `name`.
[[nodiscard]] std::vector<double> durations(const std::vector<Span>& spans,
                                            const std::string& name);

/// Tie-out of a span forest: every child lies inside its parent, and
/// the self times of the spans below the roots cover the roots'
/// duration up to `tolerance` (the roots' own self time is the
/// unattributed remainder: span bookkeeping and the replay loop).
struct TieOut {
  double root_ns = 0.0;
  double covered_ns = 0.0;  // Σ self time of all non-root spans
  double coverage = 0.0;    // covered / root
  bool nested = true;
  bool ok = false;
};
[[nodiscard]] TieOut tie_out(const std::vector<Span>& spans, double tolerance);

/// {"spans":[{"name":..,"start_ns":..,"end_ns":..,"parent":..,
///  "request":..,"tag":..},...]}
[[nodiscard]] std::string spans_json(const std::vector<Span>& spans);

}  // namespace civicbench
