#include "serving.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

#include "bwd/packed_codec.h"
#include "trace.h"
#include "util/timer.h"

namespace perfbench {

namespace server = wastenot::server;
namespace core = wastenot::core;

void RunReport::Fail(const std::string& what) {
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

void RunReport::Info(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  record.emplace_back(key, buf);
}

std::string Target::Verify(const QueryKind& kind, uint64_t /*context*/,
                           const server::QueryResponse& refined,
                           const server::ApproximateResponse& approx) {
  std::string verdict = CompareExact(kind.expected, refined.result);
  if (!verdict.empty()) return "refined answer: " + verdict;
  verdict = CompareApprox(kind.expected, approx.approx);
  if (!verdict.empty()) return "approximate answer: " + verdict;
  return "";
}

namespace {

/// Total and steal jiffies of all CPUs (first line of /proc/stat).
std::pair<double, double> CpuJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {total, steal};
}

/// RunClosedLoop's body. Each stream draws its next kind from `slots`
/// (kind indices, a kind repeated as often as its weight) with its own
/// seeded generator, or, without a seed, walks `slots` in order; it stops
/// after `max_per_stream` queries or when the window closes.
LoadResult RunStreams(Target* target, const std::vector<QueryKind>& kinds,
                      const std::vector<size_t>& slots, unsigned streams,
                      double seconds, uint64_t max_per_stream,
                      std::optional<uint64_t> seed, RunReport* report) {
  LoadResult load;
  load.window_seconds = seconds;
  std::mutex mu;
  std::atomic<uint64_t> next_request{1};
  const wastenot::WallTimer window;
  auto stream_loop = [&](unsigned stream) {
    std::vector<Completion> mine;
    uint64_t attempted = 0, failed = 0;
    std::mt19937_64 rng(seed.value_or(0) * 1000003 + stream);
    for (uint64_t i = 0; i < max_per_stream && window.Seconds() < seconds;
         ++i) {
      const size_t k = seed.has_value() ? slots[rng() % slots.size()]
                                        : slots[i % slots.size()];
      const QueryKind& kind = kinds[k];
      const uint64_t request = next_request.fetch_add(1);
      ScopedSpan span("client.query", request);
      uint64_t context = 0;
      ++attempted;
      const wastenot::WallTimer timer;
      server::ProgressiveFutures futures;
      {
        ScopedSpan submit("server.SubmitProgressive", request);
        futures = target->Submit(stream, kind, &context);
      }
      server::ApproximateResponse approx;
      {
        ScopedSpan wait("client.wait_approximate", request);
        approx = futures.approximate.get();
      }
      const double first_ms = timer.Millis();
      server::QueryResponse refined;
      {
        ScopedSpan wait("client.wait_refined", request);
        refined = futures.refined.get();
      }
      const double latency_ms = timer.Millis();
      if (!refined.status.ok() || !approx.status.ok()) {
        ++failed;
        report->Fail(kind.tag + " failed: " + refined.status.ToString() +
                     " / " + approx.status.ToString());
        continue;
      }
      const std::string verdict =
          target->Verify(kind, context, refined, approx);
      if (!verdict.empty()) report->Fail(kind.tag + ": " + verdict);
      Completion c;
      c.kind = k;
      c.done_at = window.Seconds();
      c.latency_ms = latency_ms;
      c.first_ms = first_ms;
      c.queue_ms = refined.queue_seconds * 1e3;
      c.service_ms = (refined.latency_seconds - refined.queue_seconds) * 1e3;
      c.exact_fallback = approx.exact_fallback;
      mine.push_back(c);
    }
    std::lock_guard<std::mutex> lock(mu);
    load.completions.insert(load.completions.end(), mine.begin(), mine.end());
    load.attempted += attempted;
    load.failed += failed;
  };
  const auto [total0, steal0] = CpuJiffies();
  std::vector<std::thread> threads;
  for (unsigned s = 0; s < streams; ++s) threads.emplace_back(stream_loop, s);
  for (std::thread& t : threads) t.join();
  const auto [total1, steal1] = CpuJiffies();
  load.cpu_steal_share =
      total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0;
  return load;
}

}  // namespace

LoadResult RunClosedLoop(Target* target, const std::vector<QueryKind>& kinds,
                         const std::vector<unsigned>& weights,
                         unsigned streams, double seconds, uint64_t seed,
                         RunReport* report) {
  std::vector<size_t> slots;
  for (size_t k = 0; k < weights.size(); ++k) slots.insert(slots.end(), weights[k], k);
  return RunStreams(target, kinds, slots, streams, seconds, UINT64_MAX, seed,
                    report);
}

void WarmUp(Target* target, const std::vector<QueryKind>& kinds,
            RunReport* report) {
  std::vector<size_t> each(kinds.size());
  for (size_t k = 0; k < kinds.size(); ++k) each[k] = k;
  const LoadResult load = RunStreams(target, kinds, each, 1, 1e9,
                                     kinds.size(), std::nullopt, report);
  report->attempted += load.attempted;
  report->failed += load.failed;
}

double Percentile(std::vector<double> samples, double fraction) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(fraction * static_cast<double>(samples.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0;
}

void AddServingMetrics(const LoadResult& load,
                       const std::vector<QueryKind>& kinds, RunReport* report) {
  std::vector<double> latency, first, queue, service, lead;
  uint64_t in_window = 0, exact_fallback = 0;
  for (const Completion& c : load.completions) {
    latency.push_back(c.latency_ms);
    first.push_back(c.first_ms);
    queue.push_back(c.queue_ms);
    service.push_back(c.service_ms);
    lead.push_back(c.latency_ms - c.first_ms);
    if (c.done_at <= load.window_seconds) ++in_window;
    exact_fallback += c.exact_fallback ? 1 : 0;
  }
  report->attempted += load.attempted;
  report->failed += load.failed;
  report->Info("completions", static_cast<double>(load.completions.size()));
  report->Info("cpu_steal_share", load.cpu_steal_share);
  // Share of first answers that were the exact answer (no Phase A ran).
  report->Info("first_answer_exact_share",
               static_cast<double>(exact_fallback) /
                   static_cast<double>(std::max<size_t>(1, load.completions.size())));
  // Completions per second of the window: shows stalls and drift.
  std::vector<uint64_t> per_second(
      static_cast<size_t>(std::ceil(load.window_seconds)), 0);
  for (const Completion& c : load.completions) {
    const size_t bin = static_cast<size_t>(c.done_at);
    if (bin < per_second.size()) ++per_second[bin];
  }
  std::string timeline;
  for (uint64_t n : per_second) {
    timeline += (timeline.empty() ? "" : " ") + std::to_string(n);
  }
  report->Info("completions_per_second", timeline);
  if (load.completions.size() < 1000) {
    report->Fail("only " + std::to_string(load.completions.size()) +
                 " completions: p99 needs at least 1000");
  }
  report->end_to_end.push_back(
      {"throughput_qps", static_cast<double>(in_window) / load.window_seconds,
       "queries/s"});
  report->end_to_end.push_back({"latency_p50_ms", Percentile(latency, 0.5), "ms"});
  report->end_to_end.push_back({"latency_p99_ms", Percentile(latency, 0.99), "ms"});
  report->end_to_end.push_back(
      {"first_answer_p50_ms", Percentile(first, 0.5), "ms"});
  report->layers.push_back({"server.queue_wait_ms", Median(queue), "ms"});
  report->layers.push_back({"server.service_ms", Median(service), "ms"});
  report->layers.push_back({"server.first_answer_lead_ms", Median(lead), "ms"});

  // Service time per query type, on whichever engine served it.
  std::vector<std::vector<double>> per_kind(kinds.size());
  for (const Completion& c : load.completions) {
    per_kind[c.kind].push_back(c.service_ms);
  }
  std::vector<std::pair<std::string, std::vector<double>>> per_query;
  for (size_t k = 0; k < kinds.size(); ++k) {
    // q6_1993 .. q6_1997 pool into core.exec_ms.q6.
    const std::string query = kinds[k].tag.substr(0, kinds[k].tag.find('_'));
    auto it = std::find_if(per_query.begin(), per_query.end(),
                           [&](const auto& p) { return p.first == query; });
    if (it == per_query.end()) {
      per_query.emplace_back(query, std::vector<double>{});
      it = per_query.end() - 1;
    }
    it->second.insert(it->second.end(), per_kind[k].begin(), per_kind[k].end());
  }
  for (const auto& [query, samples] : per_query) {
    Metric m{"core.exec_ms." + query, Median(samples), "ms"};
    if (query == "q6") {
      report->layers.push_back(m);
    } else {
      report->layer_details.push_back(m);
    }
  }
}

double MedianSpanSeconds(const char* name) {
  std::vector<double> d;
  for (const Span& s : Tracer::Get().spans()) {
    if (std::string_view(s.name) == name) d.push_back(s.seconds());
  }
  return Median(d);
}

double SpanRate(const char* name) {
  double value = 0, seconds = 0;
  for (const Span& s : Tracer::Get().spans()) {
    if (std::string_view(s.name) == name) {
      value += s.value;
      seconds += s.seconds();
    }
  }
  return seconds > 0 ? value / seconds : 0;
}

void MeasureUnpack(const wastenot::bwd::BwdTable& table, RunReport* report) {
  std::vector<uint64_t> out;
  for (const std::string& name : table.column_names()) {
    const wastenot::bwd::PackedView view = table.column(name).approximation();
    out.resize(view.size());
    // Several passes per column, so each span is long enough to time.
    for (int pass = 0; pass < 4; ++pass) {
      ScopedSpan span("bwd.UnpackRange");
      wastenot::bwd::UnpackRange(view, 0, view.size(), out.data());
      span.set_value(static_cast<double>(view.size()));
    }
  }
  report->layers.push_back(
      {"bwd.unpack_melem_s", SpanRate("bwd.UnpackRange") * 1e-6, "Melem/s"});
}

void ReplayAr(
    const std::function<wastenot::StatusOr<core::ArExecution>(
        const core::ArOptions&)>& exec,
    const Expected& expected, ReplayStats* stats, RunReport* report) {
  Tracer& tracer = Tracer::Get();
  ScopedSpan span("core.ExecuteAr");
  const int64_t start = tracer.NowNs();
  int64_t boundary = 0;
  core::ArOptions options;
  options.num_threads = 1;  // as the server runs Phase R
  options.on_approximate = [&](const core::ApproximateAnswer&) {
    boundary = tracer.NowNs();
  };
  auto result = exec(options);
  const int64_t end = tracer.NowNs();
  if (!result.ok()) {
    report->Fail("replay failed: " + result.status().ToString());
    return;
  }
  std::string verdict = CompareExact(expected, result->result);
  if (verdict.empty()) verdict = CompareApprox(expected, result->approx);
  if (!verdict.empty()) report->Fail("replay: " + verdict);
  if (boundary == 0) boundary = end;  // hook not reached: no Phase A
  tracer.Record(Span{"core.phase_a", tracer.NextId(), span.id(), 0, start,
                     boundary, static_cast<double>(result->num_candidates)});
  tracer.Record(Span{"core.phase_r", tracer.NextId(), span.id(), 0, boundary,
                     end, static_cast<double>(result->num_refined)});
  stats->host_ms.push_back(result->breakdown.host_seconds * 1e3);
  stats->sim_device_ms.push_back(result->breakdown.device_seconds * 1e3);
  stats->sim_bus_ms.push_back(result->breakdown.bus_seconds * 1e3);
  stats->candidates += result->num_candidates;
  stats->refined += result->num_refined;
}

void AddReplayMetrics(const ReplayStats& stats, RunReport* report) {
  report->layers.push_back(
      {"core.phase_a_ms", MedianSpanSeconds("core.phase_a") * 1e3, "ms"});
  report->layers.push_back(
      {"core.phase_r_ms", MedianSpanSeconds("core.phase_r") * 1e3, "ms"});
  report->layers.push_back(
      {"core.candidates_per_result",
       stats.refined > 0 ? static_cast<double>(stats.candidates) /
                               static_cast<double>(stats.refined)
                         : 0,
       "ratio"});
  report->layers.push_back(
      {"device.sim_phase_a_ms", Median(stats.sim_device_ms), "model_ms"});
  report->layers.push_back(
      {"device.sim_bus_ms", Median(stats.sim_bus_ms), "model_ms"});
  // Phase R wall against the engine's own host_seconds: near 1 when the
  // hook sits where the breakdown splits the phases.
  const double host_ms = Median(stats.host_ms);
  report->layer_details.push_back(
      {"core.phase_r_over_host_seconds",
       host_ms > 0 ? MedianSpanSeconds("core.phase_r") * 1e3 / host_ms : 0,
       "ratio"});
}

void AddFootprintMetrics(uint64_t device_bytes, uint64_t residual_bytes,
                         uint64_t fact_rows,
                         const wastenot::device::KernelCache& kernels,
                         RunReport* report) {
  report->end_to_end.push_back(
      {"device_bytes_per_row",
       static_cast<double>(device_bytes) / static_cast<double>(fact_rows),
       "B/row"});
  report->layers.push_back(
      {"bwd.device_bytes", static_cast<double>(device_bytes), "B"});
  report->layers.push_back(
      {"bwd.residual_bytes", static_cast<double>(residual_bytes), "B"});
  report->layers.push_back(
      {"device.kernel_cache_hit_ratio",
       static_cast<double>(kernels.hit_count()) /
           static_cast<double>(kernels.hit_count() + kernels.compiled_count()),
       "ratio"});
}

void AddSetupMetrics(const std::vector<double>& setup_seconds,
                     RunReport* report) {
  report->end_to_end.push_back({"setup_s", Median(setup_seconds), "s"});
  std::string each;
  for (double seconds : setup_seconds) {
    each += (each.empty() ? "" : " ") + std::to_string(seconds);
  }
  report->Info("setup_seconds", each);
  report->layers.push_back(
      {"workloads.generate_s", MedianSpanSeconds("workloads.generate"), "s"});
  report->layers.push_back(
      {"bwd.decompose_s", MedianSpanSeconds("bwd.decompose"), "s"});
}

}  // namespace perfbench
