// lfsperf: the storage manager's benchmark.
//
//   lfsperf --workload churn_hotcold|fsync_mt|serve_zipf --seed N --seconds S
//           [--trace 0|1] [--spans PATH]
//
// (--workload fsync_mt_no_checkpoint runs fsync_mt without the checkpoint
// before its crash. It is not a benchmark workload: it fails while recovery
// mis-settles cross-shard renames, the defect lfsperf/README.md describes.)
//
// Runs a fixed number of the workload's episodes, chosen from S so that the
// run takes about S seconds on a 4-core VM, each from its own seed derived
// from N. The count depends on S alone, never on the host's speed, so the
// simulated figures of a run depend on N and S alone. Prints, as the last
// line of standard output, one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones:
// latency percentiles over every op of the run, the rest medians over the
// episodes. With --trace 1 half as many episodes each run twice from the
// same seed, untraced and traced; the metrics are the per-layer figures the
// traced runs took, and the last traced episode's spans are written to PATH.
// A layer a workload does not have is absent; run.py reports it as 0.
// Exits 1, after printing the result with "correct": false, when a
// correctness check fails; 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "lfsperf/workloads.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_context.h"
#include "src/obs/tracer.h"

namespace lfsperf {
namespace {

constexpr int kMaxEpisodes = 40;
// Set-ups per untraced run, whose median is setup_s: each episode's own,
// and set-up-only repeats of it after each episode to make up the number.
constexpr int kSetUps = 12;

// Episodes per run: S seconds over one episode's nominal wall time on a
// 4-core VM, at least two.
int EpisodeCount(const std::string& workload, double seconds) {
  const double nominal =
      workload == "churn_hotcold" ? 12.0 : workload == "serve_zipf" ? 4.0 : 3.0;
  return std::clamp(static_cast<int>(std::lround(seconds / nominal)), 2, kMaxEpisodes);
}

// What one run reports. `problems` lists failed correctness checks; any
// entry makes the run incorrect and the binary exit nonzero.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> problems;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && args->seconds > 0 && args->seconds <= 120 &&
         (args->workload == "churn_hotcold" || args->workload == "fsync_mt" ||
          args->workload == "fsync_mt_no_checkpoint" || args->workload == "serve_zipf");
}

Episode RunEpisode(const std::string& workload, uint64_t seed, Mode mode) {
  // Every episode starts from the same metric values, because the flight
  // recorder encodes them into each checkpoint. The system's own request
  // tracing follows the benchmark's, so untraced episodes pay for neither.
  logfs::obs::Registry().ResetAll();
  logfs::obs::Tracer().Clear();
  logfs::obs::SetTracingEnabled(mode == Mode::kTraced);
  if (workload == "churn_hotcold") return ChurnHotColdEpisode(seed, mode);
  if (workload == "serve_zipf") return ServeZipfEpisode(seed, mode);
  return FsyncMtEpisode(seed, mode, workload == "fsync_mt");
}

std::vector<double> Collect(const std::vector<Episode>& eps, double (*get)(const Episode&)) {
  std::vector<double> out;
  for (const Episode& ep : eps) out.push_back(get(ep));
  return out;
}

std::vector<double> PooledLatency(const std::vector<Episode>& eps) {
  std::vector<double> out;
  for (const Episode& ep : eps) out.insert(out.end(), ep.latency_ms.begin(), ep.latency_ms.end());
  return out;
}

void PrintResult(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: lfsperf --workload churn_hotcold|fsync_mt|serve_zipf --seed N "
                 "--seconds S [--trace 0|1] [--spans PATH]\n";
    return 2;
  }
  // The single-threaded workloads are deterministic: an episode's simulated
  // figures must repeat bit for bit when its seed is replayed, traced or not.
  const bool deterministic = args.workload == "churn_hotcold" || args.workload == "serve_zipf";
  // A traced run plays every episode twice, so it runs half as many.
  const int episodes = EpisodeCount(args.workload, args.trace ? args.seconds / 2 : args.seconds);
  const int set_up_repeats = args.trace ? 0 : std::max(0, (kSetUps - 1) / episodes);
  std::vector<Episode> plain;
  std::vector<Episode> traced;
  std::vector<double> setup_s;
  RunResult result;
  auto log = [](const char* kind, const Episode& ep) {
    std::cerr << kind << " episode: setup " << ep.setup_cpu_s << " s cpu, " << ep.ops
              << " ops (" << ep.ops - ep.ok_ops << " failed), " << ep.ops_per_s << " op/s, "
              << ep.cpu_us_per_op << " us/op cpu, p50 " << ep.p50_ms << " ms, p99 " << ep.p99_ms
              << " ms, write cost " << ep.write_cost << ", recovery " << ep.recovery_s << " s\n";
  };
  for (int k = 0; k < episodes; ++k) {
    const uint64_t seed = Rng(args.seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(k)).Next();
    Episode ep = RunEpisode(args.workload, seed, Mode::kPlain);
    log("plain", ep);
    result.problems.insert(result.problems.end(), ep.problems.begin(), ep.problems.end());
    setup_s.push_back(ep.setup_cpu_s);
    for (int r = 0; r < set_up_repeats; ++r) {
      Episode again = RunEpisode(args.workload, seed, Mode::kSetUpOnly);
      std::cerr << "set-up only: " << again.setup_cpu_s << " s cpu\n";
      result.problems.insert(result.problems.end(), again.problems.begin(), again.problems.end());
      setup_s.push_back(again.setup_cpu_s);
    }
    if (args.trace) {
      Episode tr = RunEpisode(args.workload, seed, Mode::kTraced);
      log("traced", tr);
      result.problems.insert(result.problems.end(), tr.problems.begin(), tr.problems.end());
      if (deterministic && ep.problems.empty() && tr.deterministic != ep.deterministic) {
        result.problems.push_back("simulated figures differ between the untraced and traced "
                                  "runs of episode seed " + std::to_string(seed));
      }
      traced.push_back(std::move(tr));
    }
    plain.push_back(std::move(ep));
  }

  auto cpu_per_op = [](const Episode& e) { return e.cpu_us_per_op; };
  for (const Episode& ep : plain) {
    result.attempted += ep.ops;
    result.failed += ep.ops - ep.ok_ops;
  }
  if (!args.trace) {
    result.Set("setup_s", Median(setup_s), "s");
    result.Set("ops_per_s", Median(Collect(plain, [](const Episode& e) { return e.ops_per_s; })),
               "op/s");
    result.Set("mb_per_s", Median(Collect(plain, [](const Episode& e) { return e.mb_per_s; })),
               "MB/s");
    const std::vector<double> latency_ms = PooledLatency(plain);
    result.Set("p90_ms", Quantile(latency_ms, 0.90), "ms");
    result.Set("p99_ms", Quantile(latency_ms, 0.99), "ms");
    result.Set("write_cost",
               Median(Collect(plain, [](const Episode& e) { return e.write_cost; })), "ratio");
    result.Set("space_amp",
               Median(Collect(plain, [](const Episode& e) { return e.space_amp; })), "ratio");
    result.Set("recovery_s",
               Median(Collect(plain, [](const Episode& e) { return e.recovery_s; })), "s");
    result.Set("success_rate",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(result.attempted),
               "share");
    result.Set("rss_mb", PeakRssMb(), "MB");
  } else if (!traced.empty()) {
    // Every layer figure any traced episode has, as a median over the
    // episodes (0 where an episode lacks it).
    for (const Episode& with : traced) {
      for (const auto& [name, metric] : with.layers) {
        if (result.metrics.count(name) != 0) continue;
        std::vector<double> values;
        for (const Episode& ep : traced) {
          auto it = ep.layers.find(name);
          values.push_back(it == ep.layers.end() ? 0.0 : it->second.value);
        }
        result.Set(name, Median(values), metric.unit);
      }
    }
    // The median op of churn_hotcold is a cache hit whose simulated cost is
    // the same for every seed, so the median is reported here and p90 is the
    // end-to-end figure.
    result.Set("op.p50_ms", Quantile(PooledLatency(traced), 0.50), "ms");
    result.Set("host.cpu_us_per_op", Median(Collect(plain, cpu_per_op)), "us");
    result.Set("obs.trace_overhead",
               Median(Collect(traced, cpu_per_op)) / Median(Collect(plain, cpu_per_op)) - 1.0,
               "ratio");
    if (!args.spans_path.empty() && !WriteSpans(args.spans_path, traced.back().spans)) {
      result.problems.push_back("cannot write spans to " + args.spans_path);
    }
  }
  for (auto& [name, m] : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.problems.push_back("metric " + name + " is not finite");
      m.value = 0.0;  // Keeps the result line valid JSON.
    }
  }
  for (const std::string& p : result.problems) std::cerr << "FAIL: " << p << "\n";
  PrintResult(result);
  return result.problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace lfsperf

int main(int argc, char** argv) { return lfsperf::Main(argc, argv); }
