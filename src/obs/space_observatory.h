// The space observatory: provenance-tagged write attribution, segment
// lifecycle / heat telemetry, and the live utilization distribution
// (DESIGN.md §6j).
//
// The paper's whole argument is about *where* the write bandwidth goes —
// foreground data vs cleaner copies vs checkpoint overhead — yet a single
// write-cost gauge cannot decompose it. This module gives every device
// write a provenance class at the append seam and publishes:
//
//   * logfs.io.<source>.{writes,bytes}   — per-class device-write counters;
//   * logfs.io.write_amplification      — Σ bytes / foreground-data bytes;
//   * logfs.seg.lifecycle.<event>       — allocated/sealed/cleaned/salvaged/
//                                         quarantined transition counters;
//   * logfs.seg.age_us / logfs.seg.heat — sim-time segment age at seal/clean
//                                         and overwrite-interval EWMA;
//   * logfs.seg.util.*                  — the paper's Fig. 3 distribution as
//                                         live gauges (decile buckets), which
//                                         the flight-recorder ring samples so
//                                         the trend survives crashes.
//
// Exact-sum invariant: every *acknowledged* LFS device write is attributed
// to exactly one class for the op count and its bytes are split across
// classes without loss, so
//
//     Σ logfs.io.<source>.bytes  == DiskStats.sectors_written * 512
//     Σ logfs.io.<source>.writes == DiskStats.write_ops
//
// for any run whose device traffic is all LFS-originated (tests hold this
// for single-shard, multi-shard, crash-recovery and fault-injection runs;
// writes a fault device fails before reaching the medium move neither side,
// and torn prefixes of *unacknowledged* writes are excluded by resetting
// both sides after remount).
//
// The enums are defined unconditionally (lfs code stores them as plain
// tags); the recording functions compile to empty inlines under
// -DLOGFS_METRICS=OFF and the .cc contributes no symbols at all.
#ifndef LOGFS_SRC_OBS_SPACE_OBSERVATORY_H_
#define LOGFS_SRC_OBS_SPACE_OBSERVATORY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"

namespace logfs::obs {

// Provenance of a device write. Enum order encodes attribution precedence
// when a single partial segment mixes classes: the highest non-foreground
// class present owns the op count and the summary block; a purely foreground
// partial is owned by fg_data whenever it carried any data block (see
// SegmentBuilder::Flush).
enum class IoSource : uint8_t {
  kForegroundData = 0,  // File/directory content written for a client op.
  kForegroundMeta = 1,  // Inode blocks, indirects, imap, meta-log, summaries.
  kCheckpoint = 2,      // Checkpoint regions, usage blocks, black-box trailer.
  kCleaner = 3,         // Cleaner/scrubber relocation of live blocks.
  kRecovery = 4,        // Roll-forward replay and its terminal checkpoint.
  kRepair = 5,          // Cross-shard reconciliation / online repairer.
  kIntent = 6,          // Intent-log slots and region initialization.
};
inline constexpr size_t kIoSourceCount = 7;

constexpr std::string_view IoSourceName(IoSource source) {
  switch (source) {
    case IoSource::kForegroundData: return "fg_data";
    case IoSource::kForegroundMeta: return "fg_meta";
    case IoSource::kCheckpoint: return "checkpoint";
    case IoSource::kCleaner: return "cleaner";
    case IoSource::kRecovery: return "recovery";
    case IoSource::kRepair: return "repair";
    case IoSource::kIntent: return "intent";
  }
  return "unknown";
}

// Segment lifecycle transitions (lfs_seg_usage.h documents the state cycle).
enum class SegLifecycle : uint8_t {
  kAllocated = 0,    // kClean -> kActive (writer picked it).
  kSealed = 1,       // kActive -> kDirty (writer moved on).
  kCleaned = 2,      // kCleanPending -> kClean (checkpoint committed it).
  kSalvaged = 3,     // Scrubber copied live blocks out of a damaged segment.
  kQuarantined = 4,  // Media damage side-tracked it for good.
};
inline constexpr size_t kSegLifecycleCount = 5;

constexpr std::string_view SegLifecycleName(SegLifecycle event) {
  switch (event) {
    case SegLifecycle::kAllocated: return "allocated";
    case SegLifecycle::kSealed: return "sealed";
    case SegLifecycle::kCleaned: return "cleaned";
    case SegLifecycle::kSalvaged: return "salvaged";
    case SegLifecycle::kQuarantined: return "quarantined";
  }
  return "unknown";
}

// Utilization-distribution layout: decile buckets over u in [0, 1], bucket i
// counting segments with u in [i/10, (i+1)/10) (the last bucket closed at 1).
inline constexpr size_t kUtilBuckets = 10;

// One coherent read of the attribution counters (tests assert the exact-sum
// invariant on it; the bench reports the shares).
struct IoAttribution {
  uint64_t writes[kIoSourceCount] = {};
  uint64_t bytes[kIoSourceCount] = {};
  uint64_t total_writes = 0;
  uint64_t total_bytes = 0;
  // total_bytes / fg_data bytes; 0 until foreground data has been written.
  double write_amplification = 0.0;
};

#ifdef LOGFS_METRICS_DISABLED

// Compiled-out stand-ins: empty inlines the optimizer deletes; the .cc is
// empty in this configuration, so no observatory symbol exists to link.
inline void RecordWriteOp(IoSource) {}
inline void RecordWriteBytes(IoSource, uint64_t) {}
inline void RecordWrite(IoSource, uint64_t) {}
inline void RecordSegLifecycle(SegLifecycle) {}
inline void ObserveSegmentAge(double) {}
inline void ObserveSegmentHeat(double) {}
inline void PublishUtilization(std::span<const double>) {}
inline IoAttribution AttributionSnapshot() { return {}; }

#else

// Counts one acknowledged device-write op under `source` (bytes are added
// separately so a single vectored flush can split its bytes by class).
void RecordWriteOp(IoSource source);
// Adds attributed bytes without counting an op; refreshes the derived
// write-amplification gauge.
void RecordWriteBytes(IoSource source, uint64_t bytes);
// Single-class write: op + bytes in one call (checkpoint regions, intent
// slots, format writes — everything that is not a mixed partial segment).
void RecordWrite(IoSource source, uint64_t bytes);

// Bumps logfs.seg.lifecycle.<event>.
void RecordSegLifecycle(SegLifecycle event);
// Sim-time age of a segment at seal/clean, microseconds.
void ObserveSegmentAge(double age_us);
// Overwrite-interval EWMA of a segment retiring from the log, microseconds
// (smaller = hotter).
void ObserveSegmentHeat(double ewma_us);

// Publishes the decile histogram of `per_segment_utilization` (each value in
// [0, 1]) plus its mean and count as logfs.seg.util.* gauges. Gauges, not a
// registry histogram, because the distribution is a *state*, not a stream of
// events — the flight recorder samples gauges raw, so each ring sample holds
// the then-current distribution. Last writer wins; the sharded router
// republishes the merged view after per-shard ticks.
void PublishUtilization(std::span<const double> per_segment_utilization);

// Coherent-enough read of the attribution counters (relaxed loads; exact
// under any externally serialized workload, which is what the tests run).
IoAttribution AttributionSnapshot();

#endif  // LOGFS_METRICS_DISABLED

// PublishUtilization over what `collect(std::vector<double>*)` appends. The
// collector runs only when metrics are compiled in, so a caller that walks
// every segment to build the distribution pays nothing in the off build.
template <typename Collect>
void PublishUtilizationOf(Collect&& collect) {
  if constexpr (kMetricsEnabled) {
    std::vector<double> utils;
    collect(&utils);
    PublishUtilization(utils);
  }
}

}  // namespace logfs::obs

#endif  // LOGFS_SRC_OBS_SPACE_OBSERVATORY_H_
