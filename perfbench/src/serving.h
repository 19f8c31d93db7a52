// Shared harness of the benchmark's workloads: the run configuration, the
// closed-loop client streams that submit progressive queries and check
// every answer, and the report every workload fills in.

#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bwd/bwd_table.h"
#include "checker.h"
#include "core/plan.h"
#include "core/query.h"
#include "server/query_server.h"

namespace perfbench {

/// Command-line configuration of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
};

/// Times the benchmark repeats its set-up in one run; setup_s is the median.
inline constexpr int kSetupRepeats = 7;
/// Direct engine replays per query kind in the traced run.
inline constexpr int kReplays = 3;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;      ///< first few check failures
  std::vector<Metric> end_to_end;       ///< printed with --trace 0
  /// End-to-end figures only this workload has (the run record only:
  /// every BENCHMARK.json metric must exist on every workload).
  std::vector<Metric> workload_metrics;
  std::vector<Metric> layers;           ///< printed with --trace 1
  std::vector<Metric> layer_details;    ///< layer table only
  std::vector<std::pair<std::string, std::string>> record;  ///< run record

  void Fail(const std::string& what);
  void Info(const std::string& key, const std::string& value) {
    record.emplace_back(key, value);
  }
  void Info(const std::string& key, double value);
};

/// One query of a workload's mix with its checker answer.
struct QueryKind {
  std::string tag;  ///< "q6_1994", "q14", "q3", ...
  std::optional<wastenot::core::QuerySpec> spec;
  std::optional<wastenot::core::PhysicalPlan> plan;
  Expected expected;
};

/// Where the client streams send their queries.
class Target {
 public:
  virtual ~Target() = default;
  /// Submits `kind` progressively. `context` carries per-query state to
  /// Verify (the ingest workload's durable batch count at submit).
  virtual wastenot::server::ProgressiveFutures Submit(unsigned stream,
                                                      const QueryKind& kind,
                                                      uint64_t* context) = 0;
  /// Empty when both answers are right, else what is wrong. The default
  /// compares against kind.expected.
  virtual std::string Verify(const QueryKind& kind, uint64_t context,
                             const wastenot::server::QueryResponse& refined,
                             const wastenot::server::ApproximateResponse& approx);
};

/// One completed query, as the client saw it.
struct Completion {
  size_t kind = 0;
  double done_at = 0;       ///< seconds since the window opened
  double latency_ms = 0;    ///< submit → refined answer
  double first_ms = 0;      ///< submit → approximate answer
  double queue_ms = 0;      ///< server admission → dequeue
  double service_ms = 0;    ///< server dequeue → completion
  bool exact_fallback = false;
};

struct LoadResult {
  std::vector<Completion> completions;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double window_seconds = 0;
  /// Share of the machine's CPU time the hypervisor took during the window
  /// (/proc/stat steal): run-to-run noise this benchmark cannot remove.
  double cpu_steal_share = 0;
};

/// Runs `streams` closed-loop client streams for `seconds`: each draws
/// its next query kind at random, kind k with probability
/// weights[k] / sum(weights), from its own generator seeded by `seed` and
/// the stream number. It submits the query, waits for the approximate then
/// the refined answer, verifies both, and submits again. Queries in flight
/// when the window closes run to completion and are counted. (Independent
/// draws, not a fixed cycle: a cycle keeps the streams' slow queries in
/// step for the whole run, so throughput would depend on the seed's order.)
LoadResult RunClosedLoop(Target* target, const std::vector<QueryKind>& kinds,
                         const std::vector<unsigned>& weights,
                         unsigned streams, double seconds, uint64_t seed,
                         RunReport* report);

/// Submits every kind once, one at a time, and checks the answers: kernels
/// compile and caches fill before the timed window. Counted as attempted.
void WarmUp(Target* target, const std::vector<QueryKind>& kinds,
            RunReport* report);

/// Nearest-rank percentile (sorted[ceil(f·n) - 1]); 0 for no samples.
double Percentile(std::vector<double> samples, double fraction);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMib();

/// Adds throughput, latency and first-answer metrics (end to end) and the
/// server queue/service/lead layer metrics of `load`.
void AddServingMetrics(const LoadResult& load,
                       const std::vector<QueryKind>& kinds, RunReport* report);

/// Median of the durations of every recorded span named `name`, seconds
/// (0 when none was recorded).
double MedianSpanSeconds(const char* name);
/// Sum of `value` over spans named `name` divided by the sum of their
/// durations (elements per second, say).
double SpanRate(const char* name);

/// Times bwd::UnpackRange over every decomposed column's device-resident
/// approximation of `table` and adds bwd.unpack_melem_s.
void MeasureUnpack(const wastenot::bwd::BwdTable& table, RunReport* report);

/// Accumulated over the traced run's engine replays.
struct ReplayStats {
  std::vector<double> host_ms, sim_device_ms, sim_bus_ms;
  uint64_t candidates = 0, refined = 0;
};
/// Runs `exec` (an ExecuteAr/ExecutePlanAr call taking the hook) inside
/// spans core.ExecuteAr → core.phase_a / core.phase_r and accumulates.
void ReplayAr(
    const std::function<wastenot::StatusOr<wastenot::core::ArExecution>(
        const wastenot::core::ArOptions&)>& exec,
    const Expected& expected, ReplayStats* stats, RunReport* report);
/// Adds the device/core replay metrics.
void AddReplayMetrics(const ReplayStats& stats, RunReport* report);

/// Adds device_bytes_per_row (end to end) and the bwd.device_bytes,
/// bwd.residual_bytes and device.kernel_cache_hit_ratio layer metrics.
void AddFootprintMetrics(uint64_t device_bytes, uint64_t residual_bytes,
                         uint64_t fact_rows,
                         const wastenot::device::KernelCache& kernels,
                         RunReport* report);

/// Adds setup_s (the median of `setup_seconds`, end to end) and, from the
/// workloads.generate and bwd.decompose spans, the layer metrics.
void AddSetupMetrics(const std::vector<double>& setup_seconds,
                     RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
