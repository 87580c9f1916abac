// serve_zipf: the lease-based file service over LFS.
//
// ServeCluster with 8 clients on a 128 MB server volume. Set-up writes a
// cold population to half of UsableBytes() through the server's file
// system and syncs it, because a file server holds more than its hot set.
// The clients then run a seeded closed loop: Zipf(0.9) over 64 shared
// 64 KB files (4 MB, well inside the server's 15 MB cache), 30% 4 KB
// writes and 70% 4 KB reads, exponential think time of 50 ms mean. The
// server crashes and restarts at the end.
//
// Leases, RPC retransmission and duplicate suppression decide the latency
// here, while the cleaner stays idle. Everything shares one simulated
// clock, so a seed fixes every simulated figure. The cluster's referee
// checks every client read against the lease serialization order; it must
// record no stale read, and after the restart the server must hold what
// the referee holds.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lfsperf/workloads.h"
#include "src/fsbase/path.h"
#include "src/obs/critical_path.h"
#include "src/obs/tracer.h"
#include "src/serve/cluster.h"
#include "src/serve/driver.h"
#include "src/workload/serve_load.h"

namespace lfsperf {
namespace {

constexpr uint64_t kVolumeSectors = 262144;  // 128 MB.
constexpr size_t kClients = 8;
constexpr size_t kOpsPerClient = 100;
constexpr uint64_t kIoBytes = 4096;
constexpr double kColdShare = 0.5;
constexpr uint64_t kColdFileBytes = 65536;
constexpr size_t kTraceEvents = 1 << 18;

}  // namespace

Episode ServeZipfEpisode(uint64_t seed, Mode mode) {
  const bool traced = mode == Mode::kTraced;
  Episode ep;
  const double setup_start = ProcessCpuNow();
  std::vector<double> latency_ms;
  logfs::serve::ServeClusterParams params;
  params.clients = kClients;
  params.sectors = kVolumeSectors;
  params.lfs.max_inodes = 4096;
  params.client.latency_hook = [&latency_ms](const char*, double seconds) {
    latency_ms.push_back(seconds * 1e3);
  };
  auto created = logfs::serve::ServeCluster::Create(params);
  if (!created.ok()) {
    ep.problems.push_back("cluster: " + created.status().ToString());
    return ep;
  }
  logfs::serve::ServeCluster& cluster = **created;
  {
    logfs::LfsFileSystem* fs = cluster.fs();
    auto dir = fs->Create(logfs::kRootIno, "cold", logfs::FileType::kDirectory);
    if (!dir.ok()) {
      ep.problems.push_back("mkdir cold: " + dir.status().ToString());
      return ep;
    }
    std::vector<std::byte> cold(kColdFileBytes);
    const uint64_t target =
        static_cast<uint64_t>(kColdShare * static_cast<double>(fs->UsableBytes()));
    for (uint64_t i = 0; fs->TotalLiveBytes() < target; ++i) {
      auto ino = fs->Create(*dir, "c" + std::to_string(i), logfs::FileType::kRegular);
      FillContent(i, 0, cold);
      if (!ino.ok() || !fs->Write(*ino, 0, cold).ok() || !fs->Tick().ok()) {
        ep.problems.push_back("cold population failed at file " + std::to_string(i));
        return ep;
      }
    }
    if (logfs::Status s = fs->Sync(); !s.ok()) {
      ep.problems.push_back("set-up sync: " + s.ToString());
      return ep;
    }
  }
  ep.setup_cpu_s = ProcessCpuNow() - setup_start;
  if (mode == Mode::kSetUpOnly) return ep;

  if (traced) {
    logfs::obs::Tracer().Clear();
    logfs::obs::Tracer().SetCapacity(kTraceEvents);
  }
  SetTracing(traced);
  const double cpu0 = ProcessCpuNow();
  logfs::ServeLoad load;
  {
    Span span("op.generate");
    logfs::ServeLoadParams lp;
    lp.clients = kClients;
    lp.files = 64;
    lp.zipf_s = 0.9;
    lp.ops_per_client = kOpsPerClient;
    lp.write_fraction = 0.3;
    lp.file_size = 64 * 1024;
    lp.io_size = kIoBytes;
    lp.mean_think_seconds = 0.05;
    lp.seed = seed;
    load = logfs::MakeSharedLoad(lp);
  }
  uint64_t user_read = 0;
  uint64_t user_written = 0;
  for (const auto& schedule : load.schedules) {
    for (const logfs::ServeOp& op : schedule) {
      if (op.kind == logfs::ServeOp::Kind::kRead) user_read += op.length;
      if (op.kind == logfs::ServeOp::Kind::kWrite) user_written += op.length;
    }
  }
  logfs::LfsFileSystem* fs = cluster.fs();
  const logfs::DiskStats disk0 = cluster.disk()->stats();
  const LfsSnapshot lfs0(*fs);
  std::map<std::string, double> reg0;
  const std::vector<std::string> counters = {
      "logfs.serve.rpc.attempts", "logfs.serve.rpc.wasted_attempts",
      "logfs.serve.lease.revokes", "logfs.op.write.count",
      "logfs.op.read.count", "logfs.op.fsync.count",
      "logfs.op.sync.count", "logfs.op.create.count"};
  for (const std::string& c : counters) reg0[c] = RegistryValue(c);
  const double sim0 = cluster.clock()->Now();
  logfs::Result<logfs::serve::DriveStats> drive = [&] {
    Span span("serve.drive");
    return logfs::serve::DriveSharedLoad(cluster, load);
  }();
  const double cpu_s = ProcessCpuNow() - cpu0;
  const double sim_s = cluster.clock()->Now() - sim0;
  SetTracing(false);
  if (!drive.ok()) {
    ep.problems.push_back("drive: " + drive.status().ToString());
    return ep;
  }
  auto delta = [&](const std::string& c) { return RegistryValue(c) - reg0[c]; };
  const logfs::DiskStats disk1 = cluster.disk()->stats();
  const LfsSnapshot lfs1(*fs);

  ep.ops = latency_ms.size() + drive->errors;
  ep.ok_ops = latency_ms.size();
  const double ops = static_cast<double>(ep.ops);
  ep.cpu_us_per_op = cpu_s * 1e6 / ops;
  ep.ops_per_s = ops / sim_s;
  ep.mb_per_s = static_cast<double>(user_read + user_written) / 1e6 / sim_s;
  ep.p50_ms = Quantile(latency_ms, 0.50);
  ep.p99_ms = Quantile(latency_ms, 0.99);
  ep.latency_ms = std::move(latency_ms);
  const double dev_written =
      static_cast<double>(disk1.sectors_written - disk0.sectors_written) * logfs::kSectorSize;
  ep.write_cost = dev_written / static_cast<double>(user_written);
  const logfs::LfsSuperblock sb = fs->superblock();
  ep.space_amp = static_cast<double>(sb.num_segments - fs->CleanSegmentCount()) *
                 sb.segment_size / static_cast<double>(fs->TotalLiveBytes());

  const double dev_read =
      static_cast<double>(disk1.sectors_read - disk0.sectors_read) * logfs::kSectorSize;
  AddLfsLayers(lfs0, lfs1, sb.segment_size, dev_written, dev_read,
               static_cast<double>(user_written), static_cast<double>(user_read), &ep);
  ep.layers["serve.rpc.attempts_per_op"] = {delta("logfs.serve.rpc.attempts") / ops, "ratio"};
  ep.layers["serve.rpc.wasted_per_op"] = {delta("logfs.serve.rpc.wasted_attempts") / ops,
                                          "ratio"};
  ep.layers["serve.lease.revokes_per_op"] = {delta("logfs.serve.lease.revokes") / ops, "ratio"};
  AddDiskLayers(disk0, disk1, &ep);
  if (traced) {
    double seconds[logfs::obs::kPathClassCount] = {};
    double total = 0.0;
    for (const logfs::obs::TraceTree& tree :
         logfs::obs::AssembleTraceTrees(logfs::obs::Tracer().Events())) {
      const logfs::obs::Breakdown b = logfs::obs::AnalyzeCriticalPath(tree);
      if (b.category != "serve.op") continue;
      for (size_t c = 0; c < logfs::obs::kPathClassCount; ++c) seconds[c] += b.seconds[c];
      total += b.total_seconds;
    }
    logfs::obs::Tracer().Clear();
    for (size_t c = 0; c < logfs::obs::kPathClassCount; ++c) {
      ep.layers[std::string("serve.path.") +
                logfs::obs::PathClassName(static_cast<logfs::obs::PathClass>(c)) + "_share"] = {
          total > 0 ? seconds[c] / total : 0.0, "share"};
    }
    ep.spans = TakeSpans();
    AddSpanLayers(ep.spans, &ep);
  }
  // The server calls its file system internally, out of the benchmark's
  // reach: the calls come from the system's own op counters, and their
  // host time is not measured on this workload.
  for (const char* call : {"write", "read", "fsync", "sync", "create"}) {
    ep.layers["lfs.op." + std::string(call) + ".calls"] = {
        delta("logfs.op." + std::string(call) + ".count"), "count"};
  }

  // Crash and restart the server, then compare it with the referee.
  const double scanned0 = RegistryValue("logfs.recovery.segments_scanned");
  cluster.CrashServer();
  const double recover0 = cluster.clock()->Now();
  if (logfs::Status s = cluster.RestartServer(); !s.ok()) {
    ep.problems.push_back("server restart: " + s.ToString());
    return ep;
  }
  ep.recovery_s = cluster.clock()->Now() - recover0;
  ep.layers["lfs.recovery.rolled_partials"] = {
      static_cast<double>(cluster.fs()->rolled_forward_partials()), "count"};
  ep.layers["lfs.recovery.segments_scanned"] = {
      RegistryValue("logfs.recovery.segments_scanned") - scanned0, "count"};
  if (drive->errors != 0) {
    ep.problems.push_back(std::to_string(drive->errors) + " client ops failed: " +
                          drive->first_errors.front());
  }
  if (cluster.shadow().violation_count() != 0) {
    ep.problems.push_back(std::to_string(cluster.shadow().violation_count()) +
                          " stale reads seen by the referee");
  }
  logfs::PathFs paths(cluster.fs());
  size_t bad = 0;
  for (const auto& [path, want] : cluster.shadow().files()) {
    auto got = paths.ReadFile(path);
    if (!got.ok() || got->size() < want.size() ||
        !std::equal(want.begin(), want.end(), got->begin())) {
      ++bad;
    }
  }
  if (bad > 0) {
    ep.problems.push_back(std::to_string(bad) +
                          " shared files differ from the referee after the restart");
  }

  ep.deterministic = {
      {"ops", ops},
      {"sim_s", sim_s},
      {"p50_ms", ep.p50_ms},
      {"p99_ms", ep.p99_ms},
      {"write_cost", ep.write_cost},
      {"space_amp", ep.space_amp},
      {"recovery_s", ep.recovery_s},
      {"device_bytes_written", dev_written},
      {"device_bytes_read", dev_read},
      {"reads_checked", static_cast<double>(cluster.shadow().reads_checked())},
  };
  return ep;
}

}  // namespace lfsperf
