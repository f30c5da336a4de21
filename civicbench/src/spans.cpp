#include "spans.hpp"

#include "loadgen.hpp"

namespace civicbench {

std::int32_t SpanRecorder::begin(const char* name, std::uint64_t request, std::int32_t parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  spans_.push_back(span);
  spans_.back().start_ns = now_ns();
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::end(std::int32_t span, std::int32_t tag) {
  if (span < 0) return;
  const std::int64_t now = now_ns();
  auto& s = spans_[static_cast<std::size_t>(span)];
  s.end_ns = now;
  s.tag = tag;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].end_ns - spans[i].start_ns;
  for (const auto& span : spans)
    if (span.parent >= 0)
      self[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
  return self;
}

std::vector<double> self_samples(const std::vector<Span>& spans,
                                 const std::vector<std::int64_t>& self, const std::string& name,
                                 int tag) {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (name == spans[i].name && (tag < 0 || spans[i].tag == tag))
      out.push_back(static_cast<double>(self[i]));
  return out;
}

std::vector<double> durations(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> out;
  for (const auto& span : spans)
    if (name == span.name) out.push_back(static_cast<double>(span.end_ns - span.start_ns));
  return out;
}

TieOut tie_out(const std::vector<Span>& spans, double tolerance) {
  TieOut out;
  const auto self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& span = spans[i];
    if (span.end_ns < span.start_ns) out.nested = false;
    if (span.parent < 0) {
      out.root_ns += static_cast<double>(span.end_ns - span.start_ns);
      continue;
    }
    const auto& parent = spans[static_cast<std::size_t>(span.parent)];
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns ||
        span.request != parent.request)
      out.nested = false;
    out.covered_ns += static_cast<double>(self[i]);
  }
  out.coverage = out.root_ns > 0.0 ? out.covered_ns / out.root_ns : 0.0;
  out.ok = out.nested && out.coverage >= 1.0 - tolerance && out.coverage <= 1.0 + 1e-9;
  return out;
}

std::string spans_json(const std::vector<Span>& spans) {
  std::string out = "{\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"";
    out += s.name;
    out += "\",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) + ",\"parent\":" + std::to_string(s.parent) +
           ",\"request\":" + std::to_string(s.request) + ",\"tag\":" + std::to_string(s.tag) + "}";
  }
  out += "]}\n";
  return out;
}

}  // namespace civicbench
