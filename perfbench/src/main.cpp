// wn_perfbench: runs one workload of the end-to-end serving benchmark and
// prints its result as one JSON line (see README.md).
//
//   wn_perfbench --workload ar_selective|adaptive_mix|ingest_serve
//                --seed N --seconds S --trace 0|1
//                [--out-dir DIR] [--git-sha SHA]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans, derives
// the per-layer metrics from them and prints those. Either way the run
// record (configuration, all metrics, check failures) is written to
// DIR/<workload>-seed<N>-trace<T>.json, and the traced run's spans to
// DIR/spans-<workload>-seed<N>.jsonl.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bwd/packed_codec.h"
#include "serving.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::RunConfig;
using perfbench::RunReport;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

bool WriteRecord(const std::string& path, const RunConfig& cfg,
                 const RunReport& report) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %llu,\n",
               JsonString(cfg.workload).c_str(),
               static_cast<unsigned long long>(cfg.seed));
  std::fprintf(f, "  \"seconds\": %s,\n  \"trace\": %d,\n",
               JsonNumber(cfg.seconds).c_str(), cfg.trace ? 1 : 0);
  std::fprintf(f, "  \"correct\": %s,\n  \"attempted\": %llu,\n",
               report.correct ? "true" : "false",
               static_cast<unsigned long long>(report.attempted));
  std::fprintf(f, "  \"failed\": %llu,\n",
               static_cast<unsigned long long>(report.failed));
  std::fprintf(f, "  \"config\": {");
  for (size_t i = 0; i < report.record.size(); ++i) {
    std::fprintf(f, "%s\n    %s: %s", i > 0 ? "," : "",
                 JsonString(report.record[i].first).c_str(),
                 JsonString(report.record[i].second).c_str());
  }
  std::fprintf(f, "\n  },\n  \"errors\": [");
  for (size_t i = 0; i < report.errors.size(); ++i) {
    std::fprintf(f, "%s%s", i > 0 ? ", " : "",
                 JsonString(report.errors[i]).c_str());
  }
  std::fprintf(f, "],\n  \"end_to_end\": %s,\n  \"workload_only\": %s",
               MetricsJson(report.end_to_end).c_str(),
               MetricsJson(report.workload_metrics).c_str());
  // Layer metrics come from spans, so only the traced run has them.
  if (cfg.trace) {
    std::fprintf(f, ",\n  \"layers\": %s,\n  \"layer_details\": %s",
                 MetricsJson(report.layers).c_str(),
                 MetricsJson(report.layer_details).c_str());
  }
  std::fprintf(f, "\n}\n");
  return std::fclose(f) == 0;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-42s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "wn_perfbench: %s\nusage: wn_perfbench --workload "
               "ar_selective|adaptive_mix|ingest_serve --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--git-sha SHA]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(cfg.seconds > 0) || cfg.seconds > 600) {
        return Usage("--seconds takes a number in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      cfg.trace = value == "1";
    } else if (arg == "--out-dir") {
      cfg.out_dir = value;
    } else if (arg == "--git-sha") {
      cfg.git_sha = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  const auto run = perfbench::FindWorkload(cfg.workload);
  if (run == nullptr) return Usage(("unknown workload " + cfg.workload).c_str());
  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  if (ec) return Usage(("cannot create " + cfg.out_dir).c_str());
  if (cfg.trace) perfbench::Tracer::Get().Enable();
  // One thread in the default host pool (generation, decomposition, the
  // ingest drain): a parallel set-up phase waits for its slowest thread,
  // which makes setup_s swing with the load of a shared host, and the
  // drain stays inside the workloads' thread budget (see README).
  ::setenv("WN_THREADS", "1", 1);

  RunReport report;
  report.Info("git_sha", cfg.git_sha);
  report.Info("codec_isa", wastenot::bwd::PackedCodecIsa());
  report.Info("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.Info("seed", static_cast<double>(cfg.seed));
  report.Info("run_seconds", cfg.seconds);
  report.Info("host_pool_threads", 1);
  run(cfg, &report);
  report.end_to_end.push_back(
      {"peak_rss_mib", perfbench::PeakRssMib(), "MiB"});

  const std::string stem = cfg.out_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed);
  if (cfg.trace) {
    const std::string spans = cfg.out_dir + "/spans-" + cfg.workload +
                              "-seed" + std::to_string(cfg.seed) + ".jsonl";
    if (!perfbench::Tracer::Get().WriteJsonLines(spans)) {
      report.Fail("cannot write " + spans);
    }
    report.Info("spans_file", spans);
    report.Info("spans", static_cast<double>(
                             perfbench::Tracer::Get().spans().size()));
  }
  const std::string record =
      stem + "-trace" + std::to_string(cfg.trace ? 1 : 0) + ".json";
  if (!WriteRecord(record, cfg, report)) report.Fail("cannot write " + record);

  PrintTable("end-to-end:", report.end_to_end);
  PrintTable("end-to-end (this workload only):", report.workload_metrics);
  if (cfg.trace) {
    PrintTable("per-layer:", report.layers);
    PrintTable("per-layer (this workload only):", report.layer_details);
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(cfg.trace ? report.layers : report.end_to_end)
                  .c_str());
  return report.correct ? 0 : 1;
}
