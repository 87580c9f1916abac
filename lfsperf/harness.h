// lfsperf harness: clocks, order statistics, the span recorder and the
// device decorator shared by the three workloads.
//
// Everything here sits outside the storage manager. The workloads reach the
// system only through its public API, so every per-layer number is taken at
// a public boundary: a timed call, a decorated BlockDevice, or a counter the
// system already exports.
#ifndef LFSPERF_HARNESS_H_
#define LFSPERF_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/disk/block_device.h"

namespace lfsperf {

// --- clocks ---
double WallNow();          // steady_clock, seconds.
double ProcessCpuNow();    // CLOCK_PROCESS_CPUTIME_ID, seconds (all threads).
double ThreadCpuNow();     // CLOCK_THREAD_CPUTIME_ID, seconds (calling thread).
double PeakRssMb();        // getrusage ru_maxrss.

// --- order statistics (nearest rank; the input is copied) ---
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

// One metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// --- span recorder ---
//
// A Span is a host-clock interval named after the layer boundary it
// brackets. It nests under the calling thread's innermost open span; a span
// opened with none open is a root and starts a new trace. Recording is off
// unless SetTracing(true): then a Span costs two clock reads and one
// vector append, a root four. Spans stay in memory (per thread) until
// TakeSpans().
struct SpanRecord {
  const char* name = nullptr;  // String literal.
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root.
  uint64_t trace = 0;   // Root's id.
  double start = 0.0;
  double end = 0.0;
  // Roots only: the op's wall time, from two clock reads that bracket all of
  // the recorder's own work on the root (start, end, id, append).
  double op_wall = 0.0;
};

void SetTracing(bool on);
bool Tracing();

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool live_ = false;
  double outer_start_ = 0.0;
  SpanRecord record_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_trace_ = 0;
};

// Moves every recorded span (all threads) out of the recorder. Call only
// while no thread is inside a Span.
std::vector<SpanRecord> TakeSpans();

// Per-name totals and per-layer self time over a set of span trees. A
// layer is the name's prefix up to the first '.': "op" (the benchmark's own
// per-operation root, so its self time is harness work), "lfs" (public file
// system calls) and "disk" (device requests).
struct SpanSummary {
  std::map<std::string, double> seconds;  // By full span name.
  std::map<std::string, uint64_t> calls;
  std::map<std::string, double> layer_self;  // By layer prefix.
  double root_seconds = 0.0;
  // Sum over traces of |the trace's self times summed - its op_wall|, over
  // the sum of op_wall: what the spans miss of the ops' wall time, or count
  // twice. The most negative self time seen (a child escaping its parent).
  double self_sum_error = 0.0;
  double min_self = 0.0;
};
SpanSummary Summarize(const std::vector<SpanRecord>& spans);

// Writes spans as JSON lines (name, id, parent, trace, start, end).
bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans);

// Decorator that records a "disk.read" / "disk.write" span around every
// request, so device time shows as the "disk" layer of the trace.
class TimingDisk : public logfs::BlockDevice {
 public:
  explicit TimingDisk(logfs::BlockDevice* base) : base_(base) {}

  logfs::Status ReadSectors(uint64_t first, std::span<std::byte> out,
                            logfs::IoOptions options = {}) override;
  logfs::Status WriteSectors(uint64_t first, std::span<const std::byte> data,
                             logfs::IoOptions options = {}) override;
  logfs::Status ReadSectorsV(uint64_t first, std::span<const std::span<std::byte>> bufs,
                             logfs::IoOptions options = {}) override;
  logfs::Status WriteSectorsV(uint64_t first,
                              std::span<const std::span<const std::byte>> bufs,
                              logfs::IoOptions options = {}) override;
  logfs::Status Flush() override { return base_->Flush(); }
  uint64_t sector_count() const override { return base_->sector_count(); }
  const logfs::DiskStats& stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  logfs::BlockDevice* base_;
};

// Counter or gauge from the system's metrics registry (0 when absent).
double RegistryValue(const std::string& name);

}  // namespace lfsperf

#endif  // LFSPERF_HARNESS_H_
