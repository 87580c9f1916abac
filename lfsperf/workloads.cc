#include "lfsperf/workloads.h"

#include <cstring>

namespace lfsperf {
namespace {

uint64_t PatternWord(uint64_t file, uint64_t version, uint64_t i) {
  return (file * 0x9e3779b97f4a7c15ull) ^ (version * 0xc2b2ae3d27d4eb4full) ^
         (i * 0x165667b19e3779f9ull);
}

// Largest share of the ops' wall time that the spans may miss. The root's
// own bookkeeping (its start and end reads, id, append) lies inside op_wall
// but outside every span, which costs well under this.
constexpr double kSelfSumTolerance = 1e-2;

}  // namespace

void FillContent(uint64_t file, uint64_t version, std::span<std::byte> out) {
  const size_t words = out.size() / sizeof(uint64_t);
  for (size_t i = 0; i < words; ++i) {
    const uint64_t w = i == 0 ? file : i == 1 ? version : PatternWord(file, version, i);
    std::memcpy(out.data() + i * sizeof(uint64_t), &w, sizeof(w));
  }
}

int64_t DecodeVersion(uint64_t file, std::span<const std::byte> data) {
  if (data.size() < 2 * sizeof(uint64_t)) return -1;
  uint64_t header[2];
  std::memcpy(header, data.data(), sizeof(header));
  if (header[0] != file) return -1;
  const size_t words = data.size() / sizeof(uint64_t);
  for (size_t i = 2; i < words; ++i) {
    uint64_t w;
    std::memcpy(&w, data.data() + i * sizeof(uint64_t), sizeof(w));
    if (w != PatternWord(file, header[1], i)) return -1;
  }
  return static_cast<int64_t>(header[1]);
}

void AddSpanLayers(const std::vector<SpanRecord>& spans, Episode* ep) {
  const SpanSummary s = Summarize(spans);
  auto get = [](const auto& map, const std::string& key) {
    auto it = map.find(key);
    return it == map.end() ? 0.0 : static_cast<double>(it->second);
  };
  for (const char* call :
       {"write", "read", "fsync", "tick", "sync", "create", "rename", "unlink", "mount"}) {
    const std::string span = std::string("lfs.") + call;
    ep->layers["lfs.op." + std::string(call) + ".host_s"] = {get(s.seconds, span), "s"};
    ep->layers["lfs.op." + std::string(call) + ".calls"] = {get(s.calls, span), "count"};
  }
  ep->layers["disk.host_s"] = {get(s.seconds, "disk.read") + get(s.seconds, "disk.write"),
                               "s"};
  const double total = s.root_seconds > 0 ? s.root_seconds : 1.0;
  ep->layers["bench.harness_share"] = {get(s.layer_self, "op") / total, "share"};
  ep->layers["layer.lfs.self_share"] = {get(s.layer_self, "lfs") / total, "share"};
  ep->layers["layer.disk.self_share"] = {get(s.layer_self, "disk") / total, "share"};
  ep->layers["trace.self_sum_error"] = {s.self_sum_error, "share"};
  ep->layers["trace.spans"] = {static_cast<double>(spans.size()), "count"};
  if (s.self_sum_error > kSelfSumTolerance || s.min_self < -1e-9) {
    ep->problems.push_back("span self times do not sum to the op wall time (error " +
                           std::to_string(s.self_sum_error) + ", min self " +
                           std::to_string(s.min_self) + " s)");
  }
}

void AddDiskLayers(const logfs::DiskStats& before, const logfs::DiskStats& after,
                   Episode* ep) {
  const double write_ops = static_cast<double>(after.write_ops - before.write_ops);
  const double write_bytes =
      static_cast<double>(after.sectors_written - before.sectors_written) * logfs::kSectorSize;
  ep->layers["disk.write_ops"] = {write_ops, "count"};
  ep->layers["disk.write_mb"] = {write_bytes / 1e6, "MB"};
  ep->layers["disk.mean_write_kb"] = {write_ops > 0 ? write_bytes / write_ops / 1e3 : 0.0,
                                      "KB"};
  ep->layers["disk.read_ops"] = {static_cast<double>(after.read_ops - before.read_ops),
                                 "count"};
  ep->layers["disk.read_mb"] = {
      static_cast<double>(after.sectors_read - before.sectors_read) * logfs::kSectorSize / 1e6,
      "MB"};
  ep->layers["disk.seeks"] = {static_cast<double>(after.seeks - before.seeks), "count"};
  ep->layers["disk.busy_sim_s"] = {after.busy_seconds - before.busy_seconds, "s"};
}

LfsSnapshot::LfsSnapshot(const logfs::LfsFileSystem& fs)
    : cleaner(fs.cleaner_stats()),
      cache(fs.cache_stats()),
      checkpoints(fs.checkpoint_count()),
      cleaner_bytes(RegistryValue("logfs.io.cleaner.bytes")),
      checkpoint_bytes(RegistryValue("logfs.io.checkpoint.bytes")),
      partials(RegistryValue("logfs.segwriter.partials_flushed")),
      segment_bytes(RegistryValue("logfs.segwriter.bytes_written")) {}

void AddLfsLayers(const LfsSnapshot& before, const LfsSnapshot& after, uint32_t segment_size,
                  double device_written, double device_read, double user_written,
                  double user_read, Episode* ep) {
  const double copied =
      static_cast<double>(after.cleaner.live_blocks_copied - before.cleaner.live_blocks_copied);
  const double examined =
      static_cast<double>(after.cleaner.blocks_examined - before.cleaner.blocks_examined);
  const double partials = after.partials - before.partials;
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses = static_cast<double>(after.cache.misses - before.cache.misses);
  ep->layers["lfs.cleaner.segments_cleaned"] = {
      static_cast<double>(after.cleaner.segments_cleaned - before.cleaner.segments_cleaned),
      "count"};
  ep->layers["lfs.cleaner.live_blocks_copied"] = {copied, "count"};
  ep->layers["lfs.cleaner.victim_u"] = {examined > 0 ? copied / examined : 0.0, "share"};
  ep->layers["lfs.cleaner.write_share"] = {
      (after.cleaner_bytes - before.cleaner_bytes) / device_written, "share"};
  ep->layers["lfs.segment.partials_per_user_mb"] = {partials / (user_written / 1e6), "1/MB"};
  ep->layers["lfs.segment.fill"] = {
      partials > 0 ? (after.segment_bytes - before.segment_bytes) / partials / segment_size : 0.0,
      "share"};
  ep->layers["lfs.checkpoint.count"] = {
      static_cast<double>(after.checkpoints - before.checkpoints), "count"};
  ep->layers["lfs.checkpoint.write_share"] = {
      (after.checkpoint_bytes - before.checkpoint_bytes) / device_written, "share"};
  ep->layers["cache.hit_rate"] = {hits + misses > 0 ? hits / (hits + misses) : 0.0, "share"};
  ep->layers["cache.evictions"] = {
      static_cast<double>(after.cache.evictions - before.cache.evictions), "count"};
  ep->layers["cache.writeback_batches"] = {
      static_cast<double>(after.cache.writeback_batches - before.cache.writeback_batches),
      "count"};
  ep->layers["read_cost"] = {user_read > 0 ? device_read / user_read : 0.0, "ratio"};
}

}  // namespace lfsperf
