#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace gridbench {

TickQuantiles tick_quantiles(std::vector<double> samples) {
  TickQuantiles q;
  q.samples = samples.size();
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  q.p50 = samples[(n + 1) / 2 - 1];
  if (n > TickQuantiles::kTailBeyond) {
    const std::size_t rank = n - TickQuantiles::kTailBeyond;  // 1-based
    q.tail = samples[rank - 1];
    q.tail_percentile = 100.0 * static_cast<double>(rank) /
                        static_cast<double>(n);
    q.beyond = TickQuantiles::kTailBeyond;
  } else {
    q.tail = samples.back();
    q.tail_percentile = 100.0;
    q.beyond = 0;
  }
  return q;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[(values.size() + 1) / 2 - 1];
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {
  spans_.reserve(1 << 16);
}

std::int32_t SpanRecorder::begin(const char* name, std::int32_t parent,
                                 std::uint32_t tick) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.tick = tick;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::end(std::int32_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
}

std::map<std::string, SpanRecorder::Layer> SpanRecorder::layers() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      covered[static_cast<std::size_t>(span.parent)] +=
          1e-9 * static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration =
        1e-9 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    Layer& layer = out[spans_[i].name];
    ++layer.count;
    layer.total_s += duration;
    layer.self_s += duration - covered[i];
  }
  return out;
}

void SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"tick\":" << span.tick << "}\n";
  }
}

}  // namespace gridbench
