#include "lfsperf/harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/obs/metrics.h"

namespace lfsperf {
namespace {

double ClockSeconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Per-thread span buffer. Buffers are owned by the global list, not by the
// thread, so spans survive the worker threads that recorded them.
struct ThreadSpans {
  std::vector<SpanRecord> spans;
  uint64_t parent = 0;
  uint64_t trace = 0;
};

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_span{0};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_buffers;  // Guarded by g_buffers_mu.

ThreadSpans* ThisThread() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadSpans>());
    mine = g_buffers.back().get();
  }
  return mine;
}

}  // namespace

double WallNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
double ProcessCpuNow() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuNow() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB.
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (!Tracing()) return;
  ThreadSpans* t = ThisThread();
  if (t->parent == 0) outer_start_ = WallNow();
  live_ = true;
  record_.name = name;
  record_.id = g_next_span.fetch_add(1, std::memory_order_relaxed) + 1;
  record_.parent = t->parent;
  record_.trace = t->trace != 0 ? t->trace : record_.id;
  saved_parent_ = t->parent;
  saved_trace_ = t->trace;
  t->parent = record_.id;
  t->trace = record_.trace;
  record_.start = WallNow();
}

Span::~Span() {
  if (!live_) return;
  record_.end = WallNow();
  ThreadSpans* t = ThisThread();
  t->parent = saved_parent_;
  t->trace = saved_trace_;
  t->spans.push_back(record_);
  if (record_.parent == 0) t->spans.back().op_wall = WallNow() - outer_start_;
}

std::vector<SpanRecord> TakeSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> all;
  for (auto& buf : g_buffers) {
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
    buf->spans.clear();
    buf->spans.shrink_to_fit();
  }
  return all;
}

SpanSummary Summarize(const std::vector<SpanRecord>& spans) {
  SpanSummary out;
  std::unordered_map<uint64_t, double> child_seconds;
  std::unordered_map<uint64_t, double> trace_self;
  child_seconds.reserve(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_seconds[s.parent] += s.end - s.start;
  }
  for (const SpanRecord& s : spans) {
    const double dur = s.end - s.start;
    out.seconds[s.name] += dur;
    ++out.calls[s.name];
    auto it = child_seconds.find(s.id);
    const double self = dur - (it == child_seconds.end() ? 0.0 : it->second);
    out.min_self = std::min(out.min_self, self);
    const std::string name(s.name);
    out.layer_self[name.substr(0, name.find('.'))] += self;
    trace_self[s.trace] += self;
    if (s.parent == 0) out.root_seconds += dur;
  }
  double missed = 0.0;
  double op_wall = 0.0;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) continue;
    missed += std::fabs(trace_self[s.id] - s.op_wall);
    op_wall += s.op_wall;
  }
  out.self_sum_error = op_wall > 0 ? missed / op_wall : 0.0;
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"trace\":%llu,"
                 "\"start\":%.9f,\"end\":%.9f,\"op_wall\":%.9f}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace), s.start, s.end, s.op_wall);
  }
  return std::fclose(f) == 0;
}

logfs::Status TimingDisk::ReadSectors(uint64_t first, std::span<std::byte> out,
                                      logfs::IoOptions options) {
  Span span("disk.read");
  return base_->ReadSectors(first, out, options);
}

logfs::Status TimingDisk::WriteSectors(uint64_t first, std::span<const std::byte> data,
                                       logfs::IoOptions options) {
  Span span("disk.write");
  return base_->WriteSectors(first, data, options);
}

logfs::Status TimingDisk::ReadSectorsV(uint64_t first,
                                       std::span<const std::span<std::byte>> bufs,
                                       logfs::IoOptions options) {
  Span span("disk.read");
  return base_->ReadSectorsV(first, bufs, options);
}

logfs::Status TimingDisk::WriteSectorsV(uint64_t first,
                                        std::span<const std::span<const std::byte>> bufs,
                                        logfs::IoOptions options) {
  Span span("disk.write");
  return base_->WriteSectorsV(first, bufs, options);
}

double RegistryValue(const std::string& name) {
  if (const logfs::obs::Counter* c = logfs::obs::Registry().FindCounter(name)) {
    return static_cast<double>(c->Value());
  }
  if (const logfs::obs::Gauge* g = logfs::obs::Registry().FindGauge(name)) {
    return g->Value();
  }
  return 0.0;
}

}  // namespace lfsperf
