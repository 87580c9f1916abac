// The three lfsperf workloads and the episode record they share.
//
// A run repeats one workload's episode until the requested seconds have
// passed. An episode is set-up (format, fill, mount), a timed phase, and a
// crash with recovery, all made from the run's seed. Episodes of the
// single-threaded workloads replay the same inputs, so their simulated
// figures must come out bit-identical; main.cc checks that and reports the
// host figures as medians over the episodes.
#ifndef LFSPERF_WORKLOADS_H_
#define LFSPERF_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "lfsperf/harness.h"
#include "src/lfs/lfs_file_system.h"

namespace lfsperf {

struct Episode {
  double setup_cpu_s = 0.0;    // Format + fill + mount, process CPU.
  double cpu_us_per_op = 0.0;  // Measured window, process CPU per op.
  uint64_t ops = 0;            // Every op attempted, warm-up included.
  uint64_t ok_ops = 0;
  // Measured on the simulated clock (fsync_mt's wall-clock figures are
  // per-layer, in `layers`).
  double ops_per_s = 0.0;
  double mb_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::vector<double> latency_ms;  // Every op of the timed phase.
  double write_cost = 0.0;
  double space_amp = 0.0;
  double recovery_s = 0.0;  // Simulated.
  // Simulated figures and counts that must repeat exactly for a seed.
  std::map<std::string, double> deterministic;
  Metrics layers;  // Per-layer figures; complete only in traced episodes.
  std::vector<SpanRecord> spans;  // Traced episodes only.
  std::vector<std::string> problems;
};

// How much of an episode to run: set-up alone (it fills only setup_cpu_s),
// or all of it, untraced or with the span recorder and the system's own
// request tracing on for the timed phase.
enum class Mode { kSetUpOnly, kPlain, kTraced };

Episode ChurnHotColdEpisode(uint64_t seed, Mode mode);
// `checkpoint_before_tail` false is the fsync_mt_no_checkpoint variant,
// which is not a benchmark workload: it reproduces a known recovery defect.
Episode FsyncMtEpisode(uint64_t seed, Mode mode, bool checkpoint_before_tail);
Episode ServeZipfEpisode(uint64_t seed, Mode mode);

// splitmix64: the workloads' only source of randomness.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// File content for (file, version): a 16-byte header naming both, then a
// pattern derived from them. DecodeVersion returns the version a buffer
// holds, or -1 when the buffer is not an intact image of `file`.
void FillContent(uint64_t file, uint64_t version, std::span<std::byte> out);
int64_t DecodeVersion(uint64_t file, std::span<const std::byte> data);

// Per-layer figures every workload derives the same way: from the spans of
// a traced timed phase, and from the device statistics across it. Span
// nesting that breaks the self-time identity is recorded as a problem.
void AddSpanLayers(const std::vector<SpanRecord>& spans, Episode* ep);
void AddDiskLayers(const logfs::DiskStats& before, const logfs::DiskStats& after,
                   Episode* ep);

// What a single-log file system's cleaner, segment writer, checkpoints and
// cache have done so far, from its own statistics and the registry counters
// it feeds.
struct LfsSnapshot {
  explicit LfsSnapshot(const logfs::LfsFileSystem& fs);
  logfs::LfsFileSystem::CleanerStats cleaner;
  logfs::CacheStats cache;
  uint64_t checkpoints = 0;
  double cleaner_bytes = 0.0;
  double checkpoint_bytes = 0.0;
  double partials = 0.0;
  double segment_bytes = 0.0;
};

// Per-layer figures of the file system between two snapshots. Device bytes
// are from DiskStats over the same interval; user bytes are what the
// workload read and wrote.
void AddLfsLayers(const LfsSnapshot& before, const LfsSnapshot& after, uint32_t segment_size,
                  double device_written, double device_read, double user_written,
                  double user_read, Episode* ep);

}  // namespace lfsperf

#endif  // LFSPERF_WORKLOADS_H_
