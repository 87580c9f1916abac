#include "src/workload/benchmarks.h"

#include <algorithm>
#include <cmath>

#include "src/lfs/lfs_file_system.h"
#include "src/obs/tracer.h"

namespace logfs {
namespace {

std::vector<std::byte> Payload(size_t size, uint64_t seed) {
  std::vector<std::byte> data(size);
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (size_t i = 0; i < size; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    data[i] = static_cast<std::byte>(x);
  }
  return data;
}

std::string SmallFilePath(const SmallFileParams& params, int index) {
  return "/bench/dir" + std::to_string(index % params.num_dirs) + "/file" +
         std::to_string(index);
}


// Every completed benchmark phase becomes a workload-category span (sim
// time), so a Chrome-trace export lines phases up against the cleaner and
// segment-writer spans they caused.
void RecordPhaseSpan(const Testbed& bed, const PhaseResult& phase) {
  obs::RecordSpan("workload", phase.name, bed.Now() - phase.seconds, bed.Now(),
                  {{"operations", std::to_string(phase.operations)},
                   {"bytes", std::to_string(phase.bytes)}});
}
}  // namespace

// --- Figure 3 -----------------------------------------------------------------

Result<std::vector<PhaseResult>> RunSmallFileBenchmark(Testbed& bed,
                                                       const SmallFileParams& params) {
  std::vector<PhaseResult> phases;
  RETURN_IF_ERROR(bed.paths->MkdirAll("/bench").status());
  for (int d = 0; d < params.num_dirs; ++d) {
    RETURN_IF_ERROR(bed.paths->Mkdir("/bench/dir" + std::to_string(d)).status());
  }
  RETURN_IF_ERROR(bed.fs->Sync());
  const auto payload = Payload(params.file_size, params.seed);

  // Phase 1: create. Ends with a sync so every file is durable — the same
  // end state the synchronous FFS creates reach.
  double t0 = bed.Now();
  for (int i = 0; i < params.num_files; ++i) {
    std::string leaf;
    // Create + write through the inode interface (one lookup, not a full
    // path walk per op, mirroring an open file descriptor).
    ASSIGN_OR_RETURN(InodeNum dir,
                     bed.fs->Lookup(bed.fs->Lookup(bed.fs->root(), "bench").value(),
                                    "dir" + std::to_string(i % params.num_dirs)));
    ASSIGN_OR_RETURN(InodeNum ino, bed.fs->Create(dir, "file" + std::to_string(i),
                                                  FileType::kRegular));
    ASSIGN_OR_RETURN(uint64_t written, bed.fs->Write(ino, 0, payload));
    if (written != params.file_size) {
      return IoError("short write in small-file benchmark");
    }
  }
  RETURN_IF_ERROR(bed.fs->Sync());
  phases.push_back(PhaseResult{"create", bed.Now() - t0,
                               static_cast<uint64_t>(params.num_files),
                               static_cast<uint64_t>(params.num_files) * params.file_size});
  RecordPhaseSpan(bed, phases.back());

  // "The file cache was flushed" between phases.
  RETURN_IF_ERROR(bed.fs->DropCaches());

  // Phase 2: read all files in creation order.
  std::vector<std::byte> buffer(params.file_size);
  t0 = bed.Now();
  for (int i = 0; i < params.num_files; ++i) {
    ASSIGN_OR_RETURN(InodeNum ino, bed.paths->Resolve(SmallFilePath(params, i)));
    ASSIGN_OR_RETURN(uint64_t read, bed.fs->Read(ino, 0, buffer));
    if (read != params.file_size) {
      return IoError("short read in small-file benchmark");
    }
  }
  phases.push_back(PhaseResult{"read", bed.Now() - t0,
                               static_cast<uint64_t>(params.num_files),
                               static_cast<uint64_t>(params.num_files) * params.file_size});
  RecordPhaseSpan(bed, phases.back());

  // Phase 3: delete everything.
  t0 = bed.Now();
  for (int i = 0; i < params.num_files; ++i) {
    RETURN_IF_ERROR(bed.paths->Unlink(SmallFilePath(params, i)));
  }
  RETURN_IF_ERROR(bed.fs->Sync());
  phases.push_back(PhaseResult{"delete", bed.Now() - t0,
                               static_cast<uint64_t>(params.num_files),
                               static_cast<uint64_t>(params.num_files) * params.file_size});
  RecordPhaseSpan(bed, phases.back());
  return phases;
}

// --- Figure 4 -----------------------------------------------------------------

Result<std::vector<PhaseResult>> RunLargeFileBenchmark(Testbed& bed,
                                                       const LargeFileParams& params) {
  std::vector<PhaseResult> phases;
  const uint64_t requests = params.file_bytes / params.request_size;
  const auto payload = Payload(params.request_size, params.seed);
  std::vector<std::byte> buffer(params.request_size);
  Rng rng(params.seed);

  ASSIGN_OR_RETURN(InodeNum ino, bed.fs->Create(bed.fs->root(), "bigfile",
                                                FileType::kRegular));
  auto run_phase = [&](const std::string& name, bool is_write, bool sequential,
                       bool sync_at_end) -> Status {
    // Random phases touch every request slot exactly once, in shuffled order.
    std::vector<uint64_t> order(requests);
    for (uint64_t i = 0; i < requests; ++i) {
      order[i] = i;
    }
    if (!sequential) {
      for (uint64_t i = requests - 1; i > 0; --i) {
        std::swap(order[i], order[rng.NextBelow(i + 1)]);
      }
    }
    const double t0 = bed.Now();
    for (uint64_t i = 0; i < requests; ++i) {
      const uint64_t offset = order[i] * params.request_size;
      if (is_write) {
        ASSIGN_OR_RETURN(uint64_t n, bed.fs->Write(ino, offset, payload));
        if (n != params.request_size) {
          return IoError("short write");
        }
      } else {
        ASSIGN_OR_RETURN(uint64_t n, bed.fs->Read(ino, offset, buffer));
        if (n != params.request_size) {
          return IoError("short read");
        }
      }
    }
    if (sync_at_end) {
      RETURN_IF_ERROR(bed.fs->Sync());
    }
    phases.push_back(
        PhaseResult{name, bed.Now() - t0, requests, requests * params.request_size});
    RecordPhaseSpan(bed, phases.back());
    return OkStatus();
  };

  RETURN_IF_ERROR(run_phase("seq_write", true, true, true));
  RETURN_IF_ERROR(bed.fs->DropCaches());
  RETURN_IF_ERROR(run_phase("seq_read", false, true, false));
  RETURN_IF_ERROR(run_phase("rand_write", true, false, true));
  RETURN_IF_ERROR(bed.fs->DropCaches());
  RETURN_IF_ERROR(run_phase("rand_read", false, false, false));
  RETURN_IF_ERROR(bed.fs->DropCaches());
  RETURN_IF_ERROR(run_phase("seq_reread", false, true, false));
  return phases;
}

// --- Figure 5 -----------------------------------------------------------------

Result<CleaningRateResult> RunCleaningRateBenchmark(Testbed& bed,
                                                    const CleaningRateParams& params) {
  auto* lfs = dynamic_cast<LfsFileSystem*>(bed.fs.get());
  if (lfs == nullptr) {
    return InvalidArgumentError("cleaning benchmark requires an LFS testbed");
  }
  const uint64_t fill_bytes =
      params.fill_bytes != 0 ? params.fill_bytes : lfs->UsableBytes() * 7 / 10;
  const int num_files = static_cast<int>(fill_bytes / params.file_size);
  const auto payload = Payload(params.file_size, params.seed);

  // Fill the log.
  const int dirs = 64;
  for (int d = 0; d < dirs; ++d) {
    RETURN_IF_ERROR(bed.paths->Mkdir("/d" + std::to_string(d)).status());
  }
  for (int i = 0; i < num_files; ++i) {
    const std::string path =
        "/d" + std::to_string(i % dirs) + "/f" + std::to_string(i);
    RETURN_IF_ERROR(bed.paths->WriteFile(path, payload));
    if (i % 512 == 511) {
      RETURN_IF_ERROR(bed.fs->Sync());
    }
  }
  RETURN_IF_ERROR(bed.fs->Sync());

  // Delete a random (1 - utilization) fraction.
  Rng rng(params.seed + 17);
  for (int i = 0; i < num_files; ++i) {
    if (rng.NextDouble() >= params.utilization) {
      const std::string path =
          "/d" + std::to_string(i % dirs) + "/f" + std::to_string(i);
      RETURN_IF_ERROR(bed.paths->Unlink(path));
    }
  }
  RETURN_IF_ERROR(bed.fs->Sync());

  // Measure: mean utilization of the dirty segments, then clean them all.
  CleaningRateResult result;
  result.utilization_target = params.utilization;
  // Snapshot the fragmented victims: cleaning refills fresh segments with
  // the survivors, and those must not be re-cleaned by this measurement.
  // Fully dead segments (live == 0) are included — the paper's u = 0 point
  // is exactly "segments with no live blocks have no cost".
  const auto& usage = lfs->usage();
  std::vector<uint32_t> victims;
  uint64_t live_total = 0;
  for (uint32_t seg = 0; seg < lfs->superblock().num_segments; ++seg) {
    if (usage.Get(seg).state == SegState::kDirty) {
      victims.push_back(seg);
      live_total += usage.Get(seg).live_bytes;
    }
  }
  result.utilization_measured =
      !victims.empty()
          ? static_cast<double>(live_total) /
                (victims.size() * static_cast<double>(lfs->superblock().segment_size))
          : 0.0;

  const double t0 = bed.Now();
  const uint64_t cleaned_before = lfs->cleaner_stats().segments_cleaned;
  const uint32_t clean_before = lfs->CleanSegmentCount();
  for (size_t i = 0; i < victims.size(); i += 8) {
    std::vector<uint32_t> batch(victims.begin() + i,
                                victims.begin() + std::min(victims.size(), i + 8));
    RETURN_IF_ERROR(lfs->CleanTheseSegments(batch).status());
  }
  result.seconds = bed.Now() - t0;
  result.segments_cleaned =
      static_cast<uint32_t>(lfs->cleaner_stats().segments_cleaned - cleaned_before);
  // Net clean space: how many more segments are clean now than before —
  // the paper's "rate at which clean segments can be generated".
  const uint32_t clean_after = lfs->CleanSegmentCount();
  result.net_clean_kb = clean_after > clean_before
                            ? (clean_after - clean_before) *
                                  (lfs->superblock().segment_size / 1024.0)
                            : 0.0;
  return result;
}

// --- Section 3.1 ----------------------------------------------------------------

Result<CreateDeleteLatencyResult> RunCreateDeleteLatency(Testbed& bed, int iterations) {
  const double t0 = bed.Now();
  for (int i = 0; i < iterations; ++i) {
    ASSIGN_OR_RETURN(InodeNum ino,
                     bed.fs->Create(bed.fs->root(), "probe", FileType::kRegular));
    (void)ino;
    RETURN_IF_ERROR(bed.fs->Unlink(bed.fs->root(), "probe"));
  }
  RETURN_IF_ERROR(bed.fs->Sync());
  CreateDeleteLatencyResult result;
  result.seconds_per_pair = (bed.Now() - t0) / iterations;
  return result;
}

// --- Office/engineering workload ---------------------------------------------------

size_t DrawOfficeFileSize(Rng& rng) {
  const double bucket = rng.NextDouble();
  auto log_uniform = [&rng](double lo, double hi) {
    const double x = std::log(lo) + rng.NextDouble() * (std::log(hi) - std::log(lo));
    return static_cast<size_t>(std::exp(x));
  };
  if (bucket < 0.80) {
    return log_uniform(256, 8 * 1024);  // "less than 8 kilobytes".
  }
  if (bucket < 0.95) {
    return log_uniform(8 * 1024, 64 * 1024);
  }
  return log_uniform(64 * 1024, 1024 * 1024);
}

Result<OfficeWorkloadResult> RunOfficeWorkload(Testbed& bed,
                                               const OfficeWorkloadParams& params) {
  Rng rng(params.seed);
  OfficeWorkloadResult result;
  std::vector<std::pair<std::string, size_t>> live;  // name -> size.
  uint64_t name_counter = 0;
  RETURN_IF_ERROR(bed.paths->MkdirAll("/office").status());

  // 80/20 working-set skew: 80% of accesses go to the first 20% of files.
  auto pick_index = [&](size_t count) -> size_t {
    if (rng.NextBool(0.8)) {
      return rng.NextBelow(std::max<size_t>(1, count / 5));
    }
    return rng.NextBelow(count);
  };

  const double t0 = bed.Now();
  for (int op = 0; op < params.operations; ++op) {
    const double dice = rng.NextDouble();
    if (dice < params.read_fraction && !live.empty()) {
      const auto& [name, size] = live[pick_index(live.size())];
      ASSIGN_OR_RETURN(auto data, bed.paths->ReadFile(name));
      result.bytes_read += data.size();
      (void)size;
    } else if (dice < params.read_fraction + params.delete_fraction && !live.empty()) {
      const size_t index = pick_index(live.size());
      RETURN_IF_ERROR(bed.paths->Unlink(live[index].first));
      live.erase(live.begin() + static_cast<ptrdiff_t>(index));
      ++result.files_deleted;
    } else {
      const size_t size = DrawOfficeFileSize(rng);
      std::string name;
      if (!live.empty() &&
          (static_cast<int>(live.size()) >= params.max_live_files || rng.NextBool(0.3))) {
        // Overwrite an existing file (whole-file rewrite, Section 3).
        const size_t index = pick_index(live.size());
        name = live[index].first;
        live[index].second = size;
      } else {
        name = "/office/f" + std::to_string(name_counter++);
        live.emplace_back(name, size);
        ++result.files_created;
      }
      RETURN_IF_ERROR(bed.paths->WriteFile(name, Payload(size, params.seed + op)));
      result.bytes_written += size;
    }
    ++result.operations;
    bed.clock->Advance(params.think_time_seconds);
    RETURN_IF_ERROR(bed.fs->Tick());
  }
  RETURN_IF_ERROR(bed.fs->Sync());
  result.seconds = bed.Now() - t0;
  return result;
}

}  // namespace logfs
