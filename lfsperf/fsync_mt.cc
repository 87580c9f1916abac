// fsync_mt: the sharded front-end under concurrent fsync.
//
// ShardedLfs with 2 shards on a 128 MB volume, driven by 3 threads (fewer
// than the host's cores) for 2000 ops each. Each thread works in
// two directories of its own, placed on different shards, and runs a
// create / write / read / fsync / rename / unlink mix over 32 names in
// each, verifying every read against its own model of the files. Renames
// move files between the two directories, which sit on different shards, so
// every rename is cross-shard and goes through the intent log. Every 8th
// write is fsynced.
//
// The device sleeps for each request's modelled service time (250 us plus
// 200 MB/s) in real time, so the device, the shard mutex held across it and
// concurrent Fsync decide wall-clock throughput, not CPU contention on a
// shared host. Those wall-clock figures are per-layer (host.*): CPU work is
// a large part of each op, and shared hosts change speed by up to 2x within
// minutes, which no bound can absorb. The end-to-end throughput and latency
// use the simulated clock, which every thread advances by its modelled CPU
// and device work: the single-spindle view, in which group commit and fewer
// device requests show, and lock hand-offs do not.
//
// Set-up formats the volume and writes a cold population to 40% of it with
// the device's sleep off. The episode ends with a checkpoint, a tail in
// which the three threads overwrite their files concurrently and fsync every
// write, a fsync of every directory, power-off and a remount, after which
// CheckShardedLfs must be clean and every name must hold what the model
// holds. The checkpoint is there because recovery re-settles the cross-shard
// renames logged since the last checkpoint wrongly (see README.md); the
// fsync_mt_no_checkpoint variant leaves it out and fails while that stands.
#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lfsperf/workloads.h"
#include "src/disk/memory_disk.h"
#include "src/lfs/sharded_lfs.h"
#include "src/sim/cpu_model.h"
#include "src/sim/sim_clock.h"

namespace lfsperf {
namespace {

using logfs::InodeNum;
using logfs::ShardedLfs;
using logfs::Status;

constexpr uint64_t kVolumeSectors = 262144;  // 128 MB.
constexpr uint32_t kShards = 2;
constexpr int kThreads = 3;
// Fixed work per episode, so the log that recovery replays has the same
// length whatever the host's speed.
constexpr uint64_t kOpsPerThread = 2000;
constexpr uint64_t kTailWritesPerThread = 128;
constexpr int kNamesPerDir = 32;
constexpr uint64_t kBlockBytes = 4096;
constexpr uint64_t kMaxBlocks = 4;
constexpr uint64_t kFsyncEvery = 8;
constexpr double kColdShare = 0.40;
constexpr uint64_t kColdFileBytes = 65536;
constexpr int kColdDirs = 8;

constexpr double kDeviceRequestSeconds = 250e-6;
constexpr double kDeviceSecondsPerByte = 1.0 / 200e6;

thread_local double t_device_sleep_s = 0.0;

// The sleep-modelled device: after the store serves a request, the caller
// sleeps for the modelled service time. Requests from different threads
// sleep concurrently. PowerOff() makes every later request fail without
// reaching the store, which is the crash.
class SleepDisk : public logfs::BlockDevice {
 public:
  explicit SleepDisk(logfs::BlockDevice* base) : base_(base) {}

  void set_sleeping(bool on) { sleeping_.store(on); }
  void PowerOff() { dead_.store(true); }

  Status ReadSectors(uint64_t first, std::span<std::byte> out,
                     logfs::IoOptions options = {}) override {
    if (dead_.load()) return logfs::CrashedError("device powered off");
    Status s = base_->ReadSectors(first, out, options);
    Block(out.size());
    return s;
  }
  Status WriteSectors(uint64_t first, std::span<const std::byte> data,
                      logfs::IoOptions options = {}) override {
    if (dead_.load()) return logfs::CrashedError("device powered off");
    Status s = base_->WriteSectors(first, data, options);
    Block(data.size());
    return s;
  }
  Status ReadSectorsV(uint64_t first, std::span<const std::span<std::byte>> bufs,
                      logfs::IoOptions options = {}) override {
    if (dead_.load()) return logfs::CrashedError("device powered off");
    Status s = base_->ReadSectorsV(first, bufs, options);
    Block(logfs::IoVecBytes(bufs));
    return s;
  }
  Status WriteSectorsV(uint64_t first, std::span<const std::span<const std::byte>> bufs,
                       logfs::IoOptions options = {}) override {
    if (dead_.load()) return logfs::CrashedError("device powered off");
    Status s = base_->WriteSectorsV(first, bufs, options);
    Block(logfs::IoVecBytes(bufs));
    return s;
  }
  Status Flush() override { return base_->Flush(); }
  uint64_t sector_count() const override { return base_->sector_count(); }
  const logfs::DiskStats& stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  void Block(size_t bytes) {
    if (!sleeping_.load(std::memory_order_relaxed)) return;
    const double t0 = WallNow();
    std::this_thread::sleep_for(std::chrono::duration<double>(
        kDeviceRequestSeconds + static_cast<double>(bytes) * kDeviceSecondsPerByte));
    t_device_sleep_s += WallNow() - t0;
  }

  logfs::BlockDevice* base_;
  std::atomic<bool> sleeping_{false};
  std::atomic<bool> dead_{false};
};

// One file as a worker's model has it. `id` names the file's content
// stream (it moves with the file on rename).
struct ModelFile {
  bool exists = false;
  InodeNum ino = 0;
  uint64_t id = 0;
  uint64_t version = 0;
  uint64_t blocks = 0;
};

struct Worker {
  InodeNum dirs[2] = {0, 0};
  ModelFile files[2][kNamesPerDir];
  std::vector<double> latency_ms;       // Simulated.
  std::vector<double> host_latency_ms;  // Wall clock.
  uint64_t ops = 0;
  uint64_t ok_ops = 0;
  uint64_t user_bytes = 0;
  uint64_t user_written = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double sleep_s = 0.0;
  std::vector<std::string> problems;
};

std::string Name(int i) { return "n" + std::to_string(i); }

void RunWorker(ShardedLfs* fs, const logfs::SimClock* clock, int t, uint64_t seed, Worker* w) {
  Rng rng(seed * 0x100000001b3ull + static_cast<uint64_t>(t) + 1);
  std::vector<std::byte> buf(kMaxBlocks * kBlockBytes);
  uint64_t next_id = (static_cast<uint64_t>(t) + 1) << 32;
  uint64_t writes = 0;
  t_device_sleep_s = 0.0;
  const double wall0 = WallNow();
  const double cpu0 = ThreadCpuNow();
  while (w->ops < kOpsPerThread) {
    const int d = static_cast<int>(rng.Below(2));
    const int n = static_cast<int>(rng.Below(kNamesPerDir));
    ModelFile& f = w->files[d][n];
    const double roll = rng.Uniform();
    const double t0 = WallNow();
    const double sim0 = clock->Now();
    bool ok = true;
    auto write = [&](ModelFile& file) {
      ++file.version;
      const std::span<std::byte> data(buf.data(), file.blocks * kBlockBytes);
      FillContent(file.id, file.version, data);
      logfs::Result<uint64_t> wrote = [&] {
        Span s("lfs.write");
        return fs->Write(file.ino, 0, data);
      }();
      if (!wrote.ok()) {
        --file.version;
        return false;
      }
      w->user_bytes += data.size();
      w->user_written += data.size();
      if (++writes % kFsyncEvery == 0) {
        Span s("lfs.fsync");
        return fs->Fsync(file.ino).ok();
      }
      return true;
    };
    if (!f.exists) {
      Span op("op.create");
      logfs::Result<InodeNum> ino = [&] {
        Span s("lfs.create");
        return fs->Create(w->dirs[d], Name(n), logfs::FileType::kRegular);
      }();
      ok = ino.ok();
      if (ok) {
        f = ModelFile{true, *ino, next_id++, 0, 1 + rng.Below(kMaxBlocks)};
        ok = write(f);
      }
    } else if (roll < 0.45) {
      Span op("op.write");
      ok = write(f);
    } else if (roll < 0.80) {
      Span op("op.read");
      const std::span<std::byte> data(buf.data(), f.blocks * kBlockBytes);
      logfs::Result<uint64_t> got = [&] {
        Span s("lfs.read");
        return fs->Read(f.ino, 0, data);
      }();
      ok = got.ok() && *got == data.size();
      if (ok) {
        w->user_bytes += data.size();
        if (DecodeVersion(f.id, data) != static_cast<int64_t>(f.version)) {
          w->problems.push_back("thread " + std::to_string(t) + " read stale data");
        }
      }
    } else if (roll < 0.90) {
      Span op("op.rename");
      const int to = static_cast<int>(rng.Below(kNamesPerDir));
      Status s = [&] {
        Span span("lfs.rename");
        return fs->Rename(w->dirs[d], Name(n), w->dirs[1 - d], Name(to));
      }();
      ok = s.ok();
      if (ok) {
        w->files[1 - d][to] = f;
        f = ModelFile{};
      }
    } else {
      Span op("op.unlink");
      Status s = [&] {
        Span span("lfs.unlink");
        return fs->Unlink(w->dirs[d], Name(n));
      }();
      ok = s.ok();
      if (ok) f = ModelFile{};
    }
    w->host_latency_ms.push_back((WallNow() - t0) * 1e3);
    w->latency_ms.push_back((clock->Now() - sim0) * 1e3);
    ++w->ops;
    w->ok_ops += ok ? 1 : 0;
  }
  w->wall_s = WallNow() - wall0;
  w->cpu_s = ThreadCpuNow() - cpu0;
  w->sleep_s = t_device_sleep_s;
}

// The tail before the crash: overwrites of the thread's own files, each
// fsynced, so the log past the checkpoint holds concurrent fsyncs that
// recovery must roll forward.
void OverwriteTail(ShardedLfs* fs, int t, uint64_t seed, Worker* w) {
  Rng rng(seed * 0xc2b2ae3d27d4eb4full + static_cast<uint64_t>(t) + 1);
  std::vector<std::byte> buf(kMaxBlocks * kBlockBytes);
  for (uint64_t i = 0; i < kTailWritesPerThread; ++i) {
    ModelFile& f = w->files[rng.Below(2)][rng.Below(kNamesPerDir)];
    if (!f.exists) continue;
    ++f.version;
    const std::span<std::byte> data(buf.data(), f.blocks * kBlockBytes);
    FillContent(f.id, f.version, data);
    if (!fs->Write(f.ino, 0, data).ok() || !fs->Fsync(f.ino).ok()) {
      w->problems.push_back("thread " + std::to_string(t) + " failed a tail write");
      return;
    }
  }
}

}  // namespace

Episode FsyncMtEpisode(uint64_t seed, Mode mode, bool checkpoint_before_tail) {
  const bool traced = mode == Mode::kTraced;
  Episode ep;
  const double setup_start = ProcessCpuNow();
  logfs::SimClock clock;
  logfs::CpuModel cpu(&clock, 10.0);
  logfs::MemoryDisk mem(kVolumeSectors, &clock);
  SleepDisk sleepy(&mem);
  TimingDisk dev(&sleepy);
  logfs::LfsParams params;
  params.max_inodes = 8192;
  if (Status s = ShardedLfs::Format(&dev, params, kShards); !s.ok()) {
    ep.problems.push_back("format: " + s.ToString());
    return ep;
  }
  auto mounted = ShardedLfs::Mount(&dev, &clock, &cpu);
  if (!mounted.ok()) {
    ep.problems.push_back("mount: " + mounted.status().ToString());
    return ep;
  }
  std::unique_ptr<ShardedLfs> fs = std::move(*mounted);

  // Cold population, spread over directories that hash across the shards.
  uint64_t usable = 0;
  for (uint32_t i = 0; i < kShards; ++i) usable += fs->shard(i)->UsableBytes();
  auto live = [&] {
    uint64_t sum = 0;
    for (uint32_t i = 0; i < kShards; ++i) sum += fs->shard(i)->TotalLiveBytes();
    return sum;
  };
  std::vector<InodeNum> cold_dirs;
  for (int k = 0; k < kColdDirs; ++k) {
    auto dir = fs->Create(logfs::kRootIno, "cold" + std::to_string(k),
                          logfs::FileType::kDirectory);
    if (!dir.ok()) {
      ep.problems.push_back("mkdir cold: " + dir.status().ToString());
      return ep;
    }
    cold_dirs.push_back(*dir);
  }
  std::vector<std::byte> cold(kColdFileBytes);
  for (uint64_t i = 0; live() < static_cast<uint64_t>(kColdShare * static_cast<double>(usable));
       ++i) {
    auto ino = fs->Create(cold_dirs[i % kColdDirs], "c" + std::to_string(i),
                          logfs::FileType::kRegular);
    FillContent(i, 0, cold);
    if (!ino.ok() || !fs->Write(*ino, 0, cold).ok() || !fs->Tick().ok()) {
      ep.problems.push_back("cold population failed at file " + std::to_string(i));
      return ep;
    }
  }

  // Each worker's two directories, on different shards.
  std::vector<Worker> workers(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int d = 0, k = 0; d < 2; ++k) {
      auto dir = fs->Create(logfs::kRootIno, "t" + std::to_string(t) + "_" + std::to_string(k),
                            logfs::FileType::kDirectory);
      if (!dir.ok()) {
        ep.problems.push_back("mkdir: " + dir.status().ToString());
        return ep;
      }
      if (d == 1 && fs->ShardOf(*dir) == fs->ShardOf(workers[t].dirs[0])) continue;
      workers[t].dirs[d++] = *dir;
    }
  }
  if (Status s = fs->Sync(); !s.ok()) {
    ep.problems.push_back("set-up sync: " + s.ToString());
    return ep;
  }
  ep.setup_cpu_s = ProcessCpuNow() - setup_start;
  if (mode == Mode::kSetUpOnly) return ep;

  // Timed phase: the workers, on the sleeping device.
  const logfs::DiskStats disk0 = mem.stats();
  const double intents0 = RegistryValue("logfs.intent.published");
  const double ckpt_bytes0 = RegistryValue("logfs.io.checkpoint.bytes");
  const double partials0 = RegistryValue("logfs.segwriter.partials_flushed");
  // Sleeps end within a few microseconds of the modelled service time,
  // rather than anywhere in the default 50 us of timer slack. Threads
  // created below inherit this.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  sleepy.set_sleeping(true);
  SetTracing(traced);
  const double cpu0 = ProcessCpuNow();
  const double wall0 = WallNow();
  const double sim0 = clock.Now();
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(RunWorker, fs.get(), &clock, t, seed, &workers[t]);
    }
    for (std::thread& th : threads) th.join();
  }
  const double wall_s = WallNow() - wall0;
  const double cpu_s = ProcessCpuNow() - cpu0;
  const double sim_s = clock.Now() - sim0;
  SetTracing(false);
  sleepy.set_sleeping(false);
  const logfs::DiskStats disk1 = mem.stats();

  std::vector<double> latency_ms;
  std::vector<double> host_latency_ms;
  uint64_t user_bytes = 0;
  uint64_t user_written = 0;
  double wait_share = 0.0;
  for (Worker& w : workers) {
    latency_ms.insert(latency_ms.end(), w.latency_ms.begin(), w.latency_ms.end());
    host_latency_ms.insert(host_latency_ms.end(), w.host_latency_ms.begin(),
                           w.host_latency_ms.end());
    ep.ops += w.ops;
    ep.ok_ops += w.ok_ops;
    user_bytes += w.user_bytes;
    user_written += w.user_written;
    wait_share += (w.wall_s - w.sleep_s - w.cpu_s) / w.wall_s / kThreads;
    ep.problems.insert(ep.problems.end(), w.problems.begin(), w.problems.end());
    w.problems.clear();
  }
  ep.cpu_us_per_op = cpu_s * 1e6 / static_cast<double>(ep.ops);
  ep.ops_per_s = static_cast<double>(ep.ops) / sim_s;
  ep.mb_per_s = static_cast<double>(user_bytes) / 1e6 / sim_s;
  ep.layers["host.ops_per_s"] = {static_cast<double>(ep.ops) / wall_s, "op/s"};
  ep.layers["host.p90_ms"] = {Quantile(host_latency_ms, 0.90), "ms"};
  ep.layers["host.p99_ms"] = {Quantile(host_latency_ms, 0.99), "ms"};
  ep.p50_ms = Quantile(latency_ms, 0.50);
  ep.p99_ms = Quantile(latency_ms, 0.99);
  ep.latency_ms = std::move(latency_ms);
  const double dev_written =
      static_cast<double>(disk1.sectors_written - disk0.sectors_written) * logfs::kSectorSize;
  ep.write_cost = dev_written / static_cast<double>(user_written);
  uint64_t dirty_segments = 0;
  uint64_t segment_size = 0;
  for (uint32_t i = 0; i < kShards; ++i) {
    const logfs::LfsSuperblock& sb = fs->shard(i)->superblock();
    dirty_segments += sb.num_segments - fs->shard(i)->CleanSegmentCount();
    segment_size = sb.segment_size;
  }
  ep.space_amp = static_cast<double>(dirty_segments * segment_size) / static_cast<double>(live());
  const double partials = RegistryValue("logfs.segwriter.partials_flushed") - partials0;
  ep.layers["lfs.shard.wait_share"] = {wait_share, "share"};
  ep.layers["lfs.shard.intents"] = {RegistryValue("logfs.intent.published") - intents0, "count"};
  ep.layers["lfs.segment.partials_per_user_mb"] = {
      partials / (static_cast<double>(user_written) / 1e6), "1/MB"};
  ep.layers["lfs.checkpoint.write_share"] = {
      (RegistryValue("logfs.io.checkpoint.bytes") - ckpt_bytes0) / dev_written, "share"};
  AddDiskLayers(disk0, disk1, &ep);
  if (traced) {
    ep.spans = TakeSpans();
    AddSpanLayers(ep.spans, &ep);
  }

  // The crash: a checkpoint, the fsynced tail, a fsync of every directory,
  // power-off and a remount, which rolls the tail forward.
  if (checkpoint_before_tail) {
    if (Status s = fs->Sync(); !s.ok()) ep.problems.push_back("checkpoint: " + s.ToString());
  }
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(OverwriteTail, fs.get(), t, seed, &workers[t]);
    }
    for (std::thread& th : threads) th.join();
  }
  for (Worker& w : workers) {
    ep.problems.insert(ep.problems.end(), w.problems.begin(), w.problems.end());
  }
  for (const Worker& w : workers) {
    for (InodeNum dir : w.dirs) {
      if (Status s = fs->Fsync(dir); !s.ok()) {
        ep.problems.push_back("final fsync: " + s.ToString());
      }
    }
  }
  sleepy.PowerOff();
  fs.reset();
  SleepDisk revived(&mem);
  const double scanned0 = RegistryValue("logfs.recovery.segments_scanned");
  const double recover0 = clock.Now();
  mounted = ShardedLfs::Mount(&revived, &clock, &cpu);
  ep.recovery_s = clock.Now() - recover0;
  if (!mounted.ok()) {
    ep.problems.push_back("remount after crash: " + mounted.status().ToString());
    return ep;
  }
  fs = std::move(*mounted);
  double rolled = 0.0;
  for (uint32_t i = 0; i < kShards; ++i) {
    rolled += static_cast<double>(fs->shard(i)->rolled_forward_partials());
  }
  ep.layers["lfs.recovery.rolled_partials"] = {rolled, "count"};
  ep.layers["lfs.recovery.segments_scanned"] = {
      RegistryValue("logfs.recovery.segments_scanned") - scanned0, "count"};
  auto report = logfs::CheckShardedLfs(fs.get());
  if (!report.ok() || !report->ok()) {
    ep.problems.push_back("CheckShardedLfs after remount: " +
                          (report.ok() ? report->problems.front() : report.status().ToString()));
  }
  // Every state the workers reached was checkpointed or fsynced, so after
  // the crash every name must hold exactly what the model holds: the
  // model's file at its last version, or nothing. Any name that differs
  // fails the episode, and so does any file of the model that no name
  // reaches any more.
  std::vector<std::byte> buf(kMaxBlocks * kBlockBytes);
  size_t names_differing = 0;
  size_t lost = 0;
  for (const Worker& w : workers) {
    std::set<uint64_t> want_ids;
    std::set<uint64_t> seen;
    for (int d = 0; d < 2; ++d) {
      for (int n = 0; n < kNamesPerDir; ++n) {
        const ModelFile& want = w.files[d][n];
        if (want.exists) want_ids.insert(want.id);
        auto ino = fs->Lookup(w.dirs[d], Name(n));
        if (!ino.ok()) {
          names_differing += want.exists ? 1 : 0;
          continue;
        }
        auto got = fs->Read(*ino, 0, buf);
        uint64_t id = 0;
        if (got.ok() && *got >= sizeof(id)) std::memcpy(&id, buf.data(), sizeof(id));
        if (got.ok() && want.exists && id == want.id && *got == want.blocks * kBlockBytes &&
            DecodeVersion(id, std::span(buf.data(), *got)) ==
                static_cast<int64_t>(want.version)) {
          seen.insert(id);
        } else {
          ++names_differing;
          if (got.ok()) seen.insert(id);
        }
      }
    }
    for (uint64_t id : want_ids) lost += seen.count(id) == 0 ? 1 : 0;
  }
  if (names_differing > 0) {
    ep.problems.push_back(std::to_string(names_differing) +
                          " names differ from the fsynced model after the crash, " +
                          std::to_string(lost) + " fsynced files reachable by no name");
  }
  ep.layers["lfs.recovery.fsynced_files_lost"] = {static_cast<double>(lost), "count"};
  ep.layers["lfs.recovery.names_differing"] = {static_cast<double>(names_differing), "count"};
  return ep;
}

}  // namespace lfsperf
