// Tick-time statistics and in-memory spans for the benchmark.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gridbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

// Exact order statistics of a set of tick times (nearest rank, no
// bucketing). The tail is the highest percentile that still has at
// least `kTailBeyond` samples beyond it: the (n - kTailBeyond)-th
// smallest sample, which sits at percentile 100 (n - kTailBeyond) / n.
// With fewer than kTailBeyond + 1 samples no percentile qualifies; the
// maximum is reported with `beyond` below kTailBeyond so the shortfall
// shows.
struct TickQuantiles {
  static constexpr std::size_t kTailBeyond = 10;
  std::size_t samples = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
  std::size_t beyond = 0;  // samples strictly above the tail's rank
};
TickQuantiles tick_quantiles(std::vector<double> samples);

// Median (nearest rank, lower middle) of a small sample set.
double median(std::vector<double> values);

// One timed interval at a layer boundary, recorded from the benchmark's
// own code around a call into the program.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index of the enclosing span, -1 = root
  std::uint32_t tick = 0;    // control tick the span belongs to
};

// Spans kept in memory for the whole traced run and written out at the
// end. begin()/end() are the only recording calls; both are O(1) with
// the buffer reserved up front.
class SpanRecorder {
 public:
  SpanRecorder();
  std::int32_t begin(const char* name, std::int32_t parent,
                     std::uint32_t tick);
  void end(std::int32_t span);
  const std::vector<Span>& spans() const { return spans_; }

  struct Layer {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  // total minus the time child spans cover
  };
  // Per span name: count, total and self time. Children of one span
  // never overlap (they are sequential calls), so a span's covered time
  // is the sum of its children's durations.
  std::map<std::string, Layer> layers() const;

  // JSON lines, one span per line.
  void write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace gridbench
