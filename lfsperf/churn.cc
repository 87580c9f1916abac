// churn_hotcold: the paper's storage manager in steady state.
//
// Single-threaded LfsFileSystem on the simulated WREN IV (MemoryDisk plus a
// 10 MIPS CpuModel), 128 MB volume, filled with 32 KB files to 75% of
// UsableBytes() (about 96 MB live against a 15 MB buffer cache). The timed
// phase churns whole files: 90% of ops go to 10% of the files, 70% of ops
// overwrite and 30% read, every 8th write is fsynced, and Tick() follows
// every op. Greedy cleaning under this skew reaches its steady write cost
// only after about twice UsableBytes() has been rewritten, so that much
// churn runs first as a warm-up and the next twice UsableBytes() is the
// measured window. Six times, a forced checkpoint, a fixed tail of ops, a
// crash and a remount close the episode, so recovery always rolls forward
// about the same amount of log; recovery_s is the median of the six.
//
// Everything runs on the simulated clock, so a seed fixes every simulated
// figure. Refused ops (kNoSpace included) count as failures and the churn
// goes on; the volume is not sized to avoid them.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "lfsperf/workloads.h"
#include "src/disk/fault_disk.h"
#include "src/disk/memory_disk.h"
#include "src/lfs/lfs_file_system.h"
#include "src/sim/cpu_model.h"
#include "src/sim/sim_clock.h"

namespace lfsperf {
namespace {

using logfs::LfsFileSystem;

constexpr uint64_t kVolumeSectors = 262144;  // 128 MB.
constexpr size_t kFileBytes = 32768;
constexpr double kFillShare = 0.75;
constexpr double kHotFiles = 0.10;
constexpr double kHotOps = 0.90;
constexpr double kWriteShare = 0.70;
constexpr uint64_t kFsyncEvery = 8;
constexpr double kWarmupFactor = 2.0;  // Times UsableBytes(), unmeasured.
constexpr double kRewriteFactor = 2.0;  // Times UsableBytes(), measured.
constexpr int kTailOps = 256;
constexpr int kCrashes = 6;

}  // namespace

Episode ChurnHotColdEpisode(uint64_t seed, Mode mode) {
  const bool traced = mode == Mode::kTraced;
  Episode ep;
  const double setup_start = ProcessCpuNow();
  logfs::SimClock clock;
  logfs::CpuModel cpu(&clock, 10.0);
  logfs::MemoryDisk mem(kVolumeSectors, &clock);
  logfs::FaultInjectingDisk fault(&mem);
  TimingDisk dev(&fault);
  logfs::LfsParams params;
  params.max_inodes = 8192;
  if (logfs::Status s = LfsFileSystem::Format(&dev, params); !s.ok()) {
    ep.problems.push_back("format: " + s.ToString());
    return ep;
  }
  auto mounted = LfsFileSystem::Mount(&dev, &clock, &cpu);
  if (!mounted.ok()) {
    ep.problems.push_back("mount: " + mounted.status().ToString());
    return ep;
  }
  std::unique_ptr<LfsFileSystem> fs = std::move(*mounted);
  auto dir = fs->Create(logfs::kRootIno, "d", logfs::FileType::kDirectory);
  if (!dir.ok()) {
    ep.problems.push_back("mkdir: " + dir.status().ToString());
    return ep;
  }

  // Fill. version[f] is the newest version written to file f; durable[f]
  // the newest one an acknowledged Fsync or Sync covers.
  std::vector<logfs::InodeNum> inos;
  std::vector<uint64_t> version;
  std::vector<std::byte> buf(kFileBytes);
  const uint64_t fill_target =
      static_cast<uint64_t>(kFillShare * static_cast<double>(fs->UsableBytes()));
  while (fs->TotalLiveBytes() < fill_target) {
    const uint64_t f = inos.size();
    auto ino = fs->Create(*dir, "f" + std::to_string(f), logfs::FileType::kRegular);
    if (!ino.ok()) {
      ep.problems.push_back("fill create: " + ino.status().ToString());
      return ep;
    }
    FillContent(f, 0, buf);
    auto wrote = fs->Write(*ino, 0, buf);
    if (!wrote.ok()) {
      ep.problems.push_back("fill write: " + wrote.status().ToString());
      return ep;
    }
    inos.push_back(*ino);
    version.push_back(0);
    if (logfs::Status s = fs->Tick(); !s.ok()) {
      ep.problems.push_back("fill tick: " + s.ToString());
      return ep;
    }
  }
  if (logfs::Status s = fs->Sync(); !s.ok()) {
    ep.problems.push_back("fill sync: " + s.ToString());
    return ep;
  }
  std::vector<uint64_t> durable = version;
  ep.setup_cpu_s = ProcessCpuNow() - setup_start;
  if (mode == Mode::kSetUpOnly) return ep;

  // One churn op: pick a file (hot/cold), overwrite or read-and-verify it,
  // fsync every kFsyncEvery-th write, then Tick. Returns false on a refused
  // or failed call.
  Rng rng(seed);
  const size_t nfiles = inos.size();
  const size_t hot = std::max<size_t>(1, static_cast<size_t>(kHotFiles * nfiles));
  uint64_t writes = 0;
  uint64_t user_written = 0;
  uint64_t user_read = 0;
  double cleaner_host_s = 0.0;
  auto call = [&](const char* span, auto&& fn) {
    const uint64_t passes = fs->cleaner_stats().passes;
    const double t0 = traced ? WallNow() : 0.0;
    auto result = [&] {
      Span s(span);
      return fn();
    }();
    if (traced && fs->cleaner_stats().passes != passes) cleaner_host_s += WallNow() - t0;
    return result;
  };
  auto do_op = [&]() -> bool {
    const size_t f = rng.Uniform() < kHotOps ? rng.Below(hot) : hot + rng.Below(nfiles - hot);
    const bool is_write = rng.Uniform() < kWriteShare;
    Span op(is_write ? "op.write" : "op.read");
    bool ok = true;
    if (is_write) {
      FillContent(f, ++version[f], buf);
      auto wrote = call("lfs.write", [&] { return fs->Write(inos[f], 0, buf); });
      ok = wrote.ok();
      if (!ok) {
        --version[f];  // A refused write leaves the previous version in place.
      } else {
        user_written += kFileBytes;
        if (++writes % kFsyncEvery == 0) {
          ok = call("lfs.fsync", [&] { return fs->Fsync(inos[f]); }).ok();
          if (ok) durable = version;
        }
      }
    } else {
      auto got = call("lfs.read", [&] { return fs->Read(inos[f], 0, buf); });
      ok = got.ok() && *got == kFileBytes;
      if (ok) {
        user_read += kFileBytes;
        if (DecodeVersion(f, buf) != static_cast<int64_t>(version[f])) {
          ep.problems.push_back("read of f" + std::to_string(f) + " returned stale data");
        }
      }
    }
    ok = call("lfs.tick", [&] { return fs->Tick(); }).ok() && ok;
    return ok;
  };

  // Warm-up to the steady state, then the measured window.
  const uint64_t warmup =
      static_cast<uint64_t>(kWarmupFactor * static_cast<double>(fs->UsableBytes()));
  while (user_written < warmup && ep.ops < 4 * warmup / kFileBytes) {
    ++ep.ops;
    ep.ok_ops += do_op() ? 1 : 0;
  }
  user_written = 0;
  user_read = 0;
  cleaner_host_s = 0.0;
  const logfs::DiskStats disk0 = mem.stats();
  const LfsSnapshot lfs0(*fs);
  const uint64_t budget =
      static_cast<uint64_t>(kRewriteFactor * static_cast<double>(fs->UsableBytes()));
  // Device and user bytes written in each half of the measured window, the
  // third and last quarters of the whole churn: they must agree for the
  // write cost to count as levelled off.
  double half_dev[2] = {};
  double half_user[2] = {};
  std::vector<double> latency_ms;
  SetTracing(traced);
  const double sim0 = clock.Now();
  const double cpu0 = ProcessCpuNow();
  const uint64_t warmup_ops = ep.ops;
  while (user_written < budget && ep.ops - warmup_ops < 4 * budget / kFileBytes) {
    const size_t h = std::min<uint64_t>(1, 2 * user_written / budget);
    const uint64_t dev_before = mem.stats().sectors_written;
    const uint64_t user_before = user_written;
    const double t = clock.Now();
    const bool ok = do_op();
    latency_ms.push_back((clock.Now() - t) * 1e3);
    ++ep.ops;
    ep.ok_ops += ok ? 1 : 0;
    half_dev[h] += static_cast<double>(mem.stats().sectors_written - dev_before) *
                   logfs::kSectorSize;
    half_user[h] += static_cast<double>(user_written - user_before);
  }
  const double cpu_s = ProcessCpuNow() - cpu0;
  const double sim_s = clock.Now() - sim0;
  const uint64_t measured_ops = ep.ops - warmup_ops;
  ep.cpu_us_per_op = cpu_s * 1e6 / static_cast<double>(measured_ops);
  const logfs::DiskStats disk1 = mem.stats();
  const LfsSnapshot lfs1(*fs);
  const logfs::LfsSuperblock sb = fs->superblock();

  const double dev_written =
      static_cast<double>(disk1.sectors_written - disk0.sectors_written) * logfs::kSectorSize;
  const double dev_read =
      static_cast<double>(disk1.sectors_read - disk0.sectors_read) * logfs::kSectorSize;
  ep.ops_per_s = static_cast<double>(measured_ops) / sim_s;
  ep.mb_per_s = static_cast<double>(user_written + user_read) / 1e6 / sim_s;
  ep.p50_ms = Quantile(latency_ms, 0.50);
  ep.p99_ms = Quantile(latency_ms, 0.99);
  ep.latency_ms = std::move(latency_ms);
  ep.write_cost = dev_written / static_cast<double>(user_written);
  ep.space_amp = static_cast<double>(sb.num_segments - fs->CleanSegmentCount()) *
                 sb.segment_size / static_cast<double>(fs->TotalLiveBytes());
  const double wc3 = half_dev[0] / half_user[0];
  const double wc4 = half_dev[1] / half_user[1];
  const uint64_t cleaned = lfs1.cleaner.segments_cleaned - lfs0.cleaner.segments_cleaned;
  const uint64_t passes = lfs1.cleaner.passes - lfs0.cleaner.passes;

  ep.layers["lfs.cleaner.host_s"] = {cleaner_host_s, "s"};
  AddLfsLayers(lfs0, lfs1, sb.segment_size, dev_written, dev_read,
               static_cast<double>(user_written), static_cast<double>(user_read), &ep);
  AddDiskLayers(disk0, disk1, &ep);

  // kCrashes times: a forced checkpoint, a fixed tail of ops, a crash and a
  // remount. Every file must then hold a whole version no older than its
  // last acknowledged fsync and no newer than its last write; the model
  // continues from what the file holds.
  std::vector<double> recoveries;
  double rolled = 0.0;
  const double scanned0 = RegistryValue("logfs.recovery.segments_scanned");
  for (int crash = 0; crash < kCrashes && ep.problems.empty(); ++crash) {
    if (logfs::Status s = fs->Checkpoint(); !s.ok()) {
      ep.problems.push_back("checkpoint before crash: " + s.ToString());
    }
    for (int i = 0; i < kTailOps; ++i) {
      do_op();
    }
    fault.CrashNow();
    fs.reset();  // The unmount sync fails against the dead device: nothing more lands.
    fault.Reset();
    const double recover0 = clock.Now();
    {
      Span span("lfs.mount");
      mounted = LfsFileSystem::Mount(&dev, &clock, &cpu);
    }
    recoveries.push_back(clock.Now() - recover0);
    if (!mounted.ok()) {
      ep.problems.push_back("remount after crash: " + mounted.status().ToString());
      break;
    }
    fs = std::move(*mounted);
    rolled += static_cast<double>(fs->rolled_forward_partials());
    // The check itself is not traced: its reads would be roots of their own.
    SetTracing(false);
    size_t bad = 0;
    for (size_t f = 0; f < nfiles; ++f) {
      auto got = fs->Read(inos[f], 0, buf);
      const int64_t v = got.ok() && *got == kFileBytes ? DecodeVersion(f, buf) : -1;
      if (v < static_cast<int64_t>(durable[f]) || v > static_cast<int64_t>(version[f])) {
        ++bad;
      } else {
        version[f] = durable[f] = static_cast<uint64_t>(v);
      }
    }
    if (bad > 0) {
      ep.problems.push_back(std::to_string(bad) +
                            " files lost fsync-acknowledged data across the crash");
    }
    SetTracing(traced);
  }
  SetTracing(false);
  ep.recovery_s = Median(recoveries);
  ep.layers["lfs.recovery.rolled_partials"] = {rolled / kCrashes, "count"};
  ep.layers["lfs.recovery.segments_scanned"] = {
      (RegistryValue("logfs.recovery.segments_scanned") - scanned0) / kCrashes, "count"};
  if (passes < 3 || cleaned < sb.num_segments) {
    ep.problems.push_back("the cleaner did not turn the volume over: " +
                          std::to_string(passes) + " passes, " +
                          std::to_string(cleaned) + " segments cleaned");
  }
  // Cleaning is bursty, so even at steady state the two halves differ by a
  // few percent. A gap over 15% is a trend, like the one before the warm-up
  // ends (1.2, 1.5, 2.2, 2.8 over the first four half-UsableBytes() spans).
  if (std::fabs(wc4 - wc3) > 0.15 * wc3) {
    ep.problems.push_back("write cost has not levelled off: third quarter " +
                          std::to_string(wc3) + ", last quarter " + std::to_string(wc4));
  }
  if (traced) {
    ep.spans = TakeSpans();
    AddSpanLayers(ep.spans, &ep);
  }

  ep.deterministic = {
      {"ops", static_cast<double>(ep.ops)},
      {"ok_ops", static_cast<double>(ep.ok_ops)},
      {"sim_s", sim_s},
      {"p50_ms", ep.p50_ms},
      {"p99_ms", ep.p99_ms},
      {"write_cost", ep.write_cost},
      {"space_amp", ep.space_amp},
      {"recovery_s", ep.recovery_s},
      {"device_bytes_written", dev_written},
      {"device_bytes_read", dev_read},
      {"segments_cleaned", static_cast<double>(cleaned)},
      {"write_cost_q3", wc3},
      {"write_cost_q4", wc4},
  };
  return ep;
}

}  // namespace lfsperf
