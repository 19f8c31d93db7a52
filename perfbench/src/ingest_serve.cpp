// ingest_serve: writes beside reads. An open-loop writer appends generated
// lineitem rows through QueryServer::Append / FlushIngest at a fixed
// offered rate, while closed-loop readers send A&R TPC-H Q6 year variants
// against the same mutable table (a base of over a million rows, with
// background re-decomposition on). WAL group commit, the delta union and
// whole-table drains share the cores with the scan path ar_selective
// uses, so a read-side gain that costs ingest, or the reverse, shows.
//
// Each answer must equal the checker's answer over the base plus a whole
// number of acknowledged batches, that number lying between the batches
// acknowledged when the query was submitted and those durable when it
// completed. After the window the table is reopened from its directory:
// it must recover at least every acknowledged row and answer exactly.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "bwd/bwd_table.h"
#include "core/ar_engine.h"
#include "core/classic_engine.h"
#include "server/query_server.h"
#include "storage/mutable_table.h"
#include "trace.h"
#include "util/timer.h"
#include "workloads.h"
#include "workloads/tpch.h"

namespace perfbench {

namespace {

using namespace wastenot;
namespace fs = std::filesystem;

/// 1.02 M base rows.
constexpr double kBaseScaleFactor = 0.17;
/// Rows the writer appends are drawn from a second generated lineitem
/// table (cycled if a long run exhausts it).
constexpr double kPoolScaleFactor = 0.05;
constexpr uint64_t kBatchRows = 256;
constexpr double kBatchesPerSecond = 16;  // 4,096 rows/s offered
constexpr unsigned kReaders = 3;
constexpr unsigned kServerWorkers = 2;
constexpr unsigned kDeviceThreads = 1;
constexpr int kYears = 5;  // Q6 variants 1993..1997

const std::vector<std::string> kColumns = {"l_shipdate", "l_discount",
                                           "l_quantity", "l_extendedprice"};

/// Row-major copy of the schema columns of a generated lineitem table.
std::vector<int64_t> Rows(const cs::Database& db) {
  const cs::Table& t = db.table("lineitem");
  std::vector<int64_t> rows(t.num_rows() * kColumns.size());
  for (size_t c = 0; c < kColumns.size(); ++c) {
    const cs::Column& col = t.column(kColumns[c]);
    for (uint64_t r = 0; r < t.num_rows(); ++r) {
      rows[r * kColumns.size() + c] = col.Get(r);
    }
  }
  return rows;
}

storage::MutableTableOptions TableOptions(const std::string& dir,
                                          device::Device* dev) {
  storage::MutableTableOptions options;
  options.dir = dir;
  options.name = "lineitem";
  options.columns = kColumns;
  for (const bwd::DecomposeRequest& r : workloads::TpchSpaceConstrained()) {
    if (std::find(kColumns.begin(), kColumns.end(), r.column) !=
        kColumns.end()) {
      options.requests.push_back(r);
    }
  }
  options.device = dev;
  return options;
}

struct Served {
  std::string dir;
  std::vector<int64_t> base;  ///< row-major, kColumns
  std::vector<int64_t> pool;  ///< rows the writer appends, cycled
  std::unique_ptr<device::Device> device;
  std::unique_ptr<storage::MutableTable> table;
  std::unique_ptr<server::QueryServer> server;

  uint64_t base_rows() const { return base.size() / kColumns.size(); }
  const int64_t* AppendedRow(uint64_t i) const {
    return &pool[(i % (pool.size() / kColumns.size())) * kColumns.size()];
  }
};

std::unique_ptr<Served> SetUp(const RunConfig& cfg, RunReport* report) {
  auto s = std::make_unique<Served>();
  s->dir = cfg.out_dir + "/ingest-" + std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(s->dir, ec);
  {
    ScopedSpan span("workloads.generate");
    cs::Database base, pool;
    {
      ScopedSpan call("workloads.GenerateTpch");
      workloads::GenerateTpch(kBaseScaleFactor, cfg.seed, &base);
    }
    {
      ScopedSpan call("workloads.GenerateTpch");
      workloads::GenerateTpch(kPoolScaleFactor, cfg.seed ^ 0x696e67657374ULL,
                              &pool);
    }
    s->base = Rows(base);
    s->pool = Rows(pool);
  }
  s->device = std::make_unique<device::Device>(device::DeviceSpec::Gtx680(),
                                               kDeviceThreads);
  auto table = storage::MutableTable::Open(TableOptions(s->dir, s->device.get()));
  if (!table.ok()) {
    report->Fail("open table: " + table.status().ToString());
    return nullptr;
  }
  s->table = std::move(*table);
  for (uint64_t r = 0; r < s->base_rows(); ++r) {
    const Status st = s->table->Append(std::span<const int64_t>(
        &s->base[r * kColumns.size()], kColumns.size()));
    if (!st.ok()) {
      report->Fail("load base: " + st.ToString());
      return nullptr;
    }
  }
  if (auto flushed = s->table->Flush(); !flushed.ok()) {
    report->Fail("load base: " + flushed.status().ToString());
    return nullptr;
  }
  {
    // The first drain decomposes the base onto the device (and writes its
    // snapshot): this workload's decomposition step.
    ScopedSpan span("bwd.decompose");
    ScopedSpan call("storage.MutableTable::Drain");
    if (const Status st = s->table->Drain(); !st.ok()) {
      report->Fail("decompose base: " + st.ToString());
      return nullptr;
    }
  }
  ScopedSpan span("server.start");
  server::ServerOptions options;
  options.num_workers = kServerWorkers;
  server::QueryServer::Backend backend;
  backend.device = s->device.get();
  backend.mutable_table = s->table.get();
  s->server = std::make_unique<server::QueryServer>(backend, options);
  return s;
}

/// Checker answers of every Q6 variant over the base plus the first k
/// appended batches, k = 0 .. max_batches.
std::vector<std::vector<Q6Sum>> PrefixAnswers(const Served& s,
                                              uint64_t max_batches) {
  std::vector<std::vector<Q6Sum>> prefix(kYears);
  for (int v = 0; v < kYears; ++v) {
    Q6Sum sum;
    for (uint64_t r = 0; r < s.base_rows(); ++r) {
      const int64_t* row = &s.base[r * kColumns.size()];
      AddQ6Row(1993 + v, row[0], row[1], row[2], row[3], &sum);
    }
    prefix[v].push_back(sum);
    for (uint64_t b = 0; b < max_batches; ++b) {
      for (uint64_t j = 0; j < kBatchRows; ++j) {
        const int64_t* row = s.AppendedRow(b * kBatchRows + j);
        AddQ6Row(1993 + v, row[0], row[1], row[2], row[3], &sum);
      }
      prefix[v].push_back(sum);
    }
  }
  return prefix;
}

/// What the open-loop writer measured.
struct WriterLog {
  std::atomic<uint64_t> acked{0};  ///< batches whose FlushIngest returned OK
  uint64_t attempted = 0, failed = 0, refused_appends = 0;
  std::vector<double> flush_from_due_ms, flush_call_ms, lag_ms, backlog_rows;
  uint64_t swaps = 0;
  std::vector<double> swap_at_s;   ///< window time of each observed swap
  double rewrite_bytes = 0;        ///< snapshot bytes written by swaps
};

void Write(Served* s, double seconds, WriterLog* log, RunReport* report) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kBatchesPerSecond));
  uint64_t swaps_seen = s->table->Stats().swaps;
  for (uint64_t k = 0;; ++k) {
    const Clock::time_point due = start + interval * static_cast<int64_t>(k);
    if (std::chrono::duration<double>(due - start).count() >= seconds) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point began = Clock::now();
    log->lag_ms.push_back(
        std::chrono::duration<double, std::milli>(began - due).count());
    ++log->attempted;
    bool failed = false;
    for (uint64_t j = 0; j < kBatchRows; ++j) {
      const std::span<const int64_t> row(s->AppendedRow(k * kBatchRows + j),
                                         kColumns.size());
      // A refused append (backlog full) is retried, so batches stay whole.
      while (!s->server->Append(row).ok()) {
        failed = true;
        ++log->refused_appends;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    const WallTimer call;
    const StatusOr<uint64_t> durable = [&] {
      ScopedSpan span("server.FlushIngest", k + 1);
      return s->server->FlushIngest();
    }();
    log->flush_call_ms.push_back(call.Millis());
    if (!durable.ok()) {
      // Fail the run: a failed flush leaves the batch buffered and the
      // whole-batch accounting below would no longer hold.
      report->Fail("FlushIngest: " + durable.status().ToString());
      ++log->failed;
      return;
    }
    if (failed) ++log->failed;
    log->flush_from_due_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    log->acked.store(k + 1);
    log->backlog_rows.push_back(
        static_cast<double>(s->server->stats().ingest_backlog));
    storage::MutableTableStats stats;
    {
      ScopedSpan span("storage.MutableTable::Stats");
      stats = s->table->Stats();
    }
    if (stats.swaps > swaps_seen) {
      // Each swap rewrote the whole snapshot; its size is read from the
      // file itself.
      std::error_code ec;
      const uint64_t size =
          fs::file_size(storage::MutableTable::SnapshotPath(s->dir), ec);
      log->rewrite_bytes +=
          static_cast<double>(stats.swaps - swaps_seen) * (ec ? 0.0 : size);
      log->swaps += stats.swaps - swaps_seen;
      log->swap_at_s.push_back(
          std::chrono::duration<double>(Clock::now() - start).count());
      swaps_seen = stats.swaps;
    }
  }
}

class IngestTarget : public Target {
 public:
  IngestTarget(Served* s, const WriterLog* log,
               const std::vector<std::vector<Q6Sum>>* prefix)
      : s_(s), log_(log), prefix_(prefix) {}

  server::ProgressiveFutures Submit(unsigned, const QueryKind& kind,
                                    uint64_t* context) override {
    *context = log_->acked.load();
    if (Tracer::Get().enabled()) {
      ScopedSpan span("storage.MutableTable::View");
      const storage::TableView view = s_->table->View();
      std::lock_guard<std::mutex> lock(mu_);
      delta_rows_.push_back(static_cast<double>(view.durable - view.absorbed));
    }
    server::QueryRequest request;
    request.query = *kind.spec;
    request.engine = server::EngineKind::kAr;
    return s_->server->SubmitProgressive(std::move(request));
  }

  std::string Verify(const QueryKind& kind, uint64_t acked_at_submit,
                     const server::QueryResponse& refined,
                     const server::ApproximateResponse& approx) override {
    uint64_t durable = 0;
    {
      ScopedSpan span("storage.MutableTable::Stats");
      durable = s_->table->Stats().durable_rows;
    }
    const uint64_t hi = (durable - s_->base_rows()) / kBatchRows;
    const std::vector<Q6Sum>& answers = (*prefix_)[Year(kind) - 1993];
    for (uint64_t k = acked_at_submit; k <= hi && k < answers.size(); ++k) {
      const Expected expected = Q6Expected(answers[k]);
      if (!CompareExact(expected, refined.result).empty()) continue;
      const std::string verdict = CompareApprox(expected, approx.approx);
      return verdict.empty() ? "" : "approximate answer: " + verdict;
    }
    return "refined answer matches no whole number of batches in [" +
           std::to_string(acked_at_submit) + ", " + std::to_string(hi) + "]";
  }

  std::vector<double> delta_rows() const {
    std::lock_guard<std::mutex> lock(mu_);
    return delta_rows_;
  }

  static int Year(const QueryKind& kind) {
    return std::atoi(kind.tag.c_str() + 3);  // "q6_1995"
  }

 private:
  Served* s_;
  const WriterLog* log_;
  const std::vector<std::vector<Q6Sum>>* prefix_;
  mutable std::mutex mu_;
  std::vector<double> delta_rows_;
};

/// Reopens the table from its directory: every acknowledged row must be
/// recovered, as whole batches, and answer exactly.
void CheckRecovery(Served* s, uint64_t acked,
                   const std::vector<std::vector<Q6Sum>>& prefix,
                   const std::vector<QueryKind>& kinds, RunReport* report) {
  s->server->Shutdown();
  s->server.reset();
  s->table.reset();
  storage::MutableTableOptions options = TableOptions(s->dir, s->device.get());
  options.background = false;
  auto reopened = storage::MutableTable::Open(options);
  if (!reopened.ok()) {
    report->Fail("reopen: " + reopened.status().ToString());
    return;
  }
  const uint64_t recovered = (*reopened)->Stats().durable_rows;
  const uint64_t acked_rows = s->base_rows() + acked * kBatchRows;
  report->Info("recovered_rows", static_cast<double>(recovered));
  report->Info("acknowledged_rows", static_cast<double>(acked_rows));
  if (recovered < acked_rows ||
      (recovered - s->base_rows()) % kBatchRows != 0) {
    report->Fail("recovered " + std::to_string(recovered) +
                 " rows, acknowledged " + std::to_string(acked_rows));
    return;
  }
  const uint64_t batches = (recovered - s->base_rows()) / kBatchRows;
  const storage::TableView view = (*reopened)->View();
  for (const QueryKind& kind : kinds) {
    core::ClassicOptions options;
    options.delta = view.delta_or_null();
    auto result = core::ExecuteClassic(*kind.spec, *view.db, options);
    const std::vector<Q6Sum>& answers =
        prefix[IngestTarget::Year(kind) - 1993];
    if (!result.ok() || batches >= answers.size() ||
        !CompareExact(Q6Expected(answers[batches]), *result).empty()) {
      report->Fail(kind.tag + ": wrong answer after recovery");
    }
  }
}

}  // namespace

void RunIngestServe(const RunConfig& cfg, RunReport* report) {
  report->Info("base_scale_factor", kBaseScaleFactor);
  report->Info("batch_rows", static_cast<double>(kBatchRows));
  report->Info("offered_rows_per_s", kBatchesPerSecond * kBatchRows);
  report->Info("readers", kReaders);
  report->Info("server_workers", kServerWorkers);
  report->Info("device_threads", kDeviceThreads);
  std::vector<double> setup_seconds;
  std::unique_ptr<Served> s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s.reset();
    const WallTimer timer;
    s = SetUp(cfg, report);
    if (s == nullptr) return;
    setup_seconds.push_back(timer.Seconds());
  }
  report->Info("base_rows", static_cast<double>(s->base_rows()));

  const uint64_t max_batches =
      static_cast<uint64_t>(cfg.seconds * kBatchesPerSecond) + 2;
  const std::vector<std::vector<Q6Sum>> prefix = PrefixAnswers(*s, max_batches);
  std::vector<QueryKind> kinds;
  for (int v = 0; v < kYears; ++v) {
    kinds.push_back({"q6_" + std::to_string(1993 + v),
                     workloads::TpchQ6YearVariant(static_cast<uint64_t>(v)),
                     std::nullopt, Q6Expected(prefix[v][0])});
  }
  WriterLog log;
  IngestTarget target(s.get(), &log, &prefix);
  WarmUp(&target, kinds, report);

  std::thread writer(Write, s.get(), cfg.seconds, &log, report);
  const LoadResult load = RunClosedLoop(&target, kinds,
                                        {1, 1, 1, 1, 1}, kReaders,
                                        cfg.seconds, cfg.seed, report);
  writer.join();
  report->attempted += log.attempted;
  report->failed += log.failed;

  AddSetupMetrics(setup_seconds, report);
  AddServingMetrics(load, kinds, report);
  const storage::TableView view = s->table->View();
  AddFootprintMetrics(view.bwd->device_bytes(), view.bwd->residual_bytes(),
                      view.absorbed, s->device->kernel_cache(), report);

  const uint64_t ingested_rows = log.acked.load() * kBatchRows;
  report->workload_metrics.push_back(
      {"flush_p50_ms", Median(log.flush_from_due_ms), "ms"});
  report->workload_metrics.push_back(
      {"ingest_rows_per_s", static_cast<double>(ingested_rows) / cfg.seconds,
       "rows/s"});
  report->workload_metrics.push_back(
      {"load.generator_lag_ms", Percentile(log.lag_ms, 0.99), "ms"});
  report->workload_metrics.push_back(
      {"storage.refused_appends", static_cast<double>(log.refused_appends),
       "count"});
  report->layer_details.push_back(
      {"storage.flush_ms", Median(log.flush_call_ms), "ms"});
  report->layer_details.push_back(
      {"storage.swaps", static_cast<double>(log.swaps), "count"});
  double gaps = 0;
  for (size_t i = 1; i < log.swap_at_s.size(); ++i) {
    gaps += log.swap_at_s[i] - log.swap_at_s[i - 1];
  }
  report->layer_details.push_back(
      {"storage.swap_interval_ms",
       log.swap_at_s.size() > 1
           ? gaps / static_cast<double>(log.swap_at_s.size() - 1) * 1e3
           : 0,
       "ms"});
  report->layer_details.push_back(
      {"storage.backlog_rows", Median(log.backlog_rows), "rows"});
  report->layer_details.push_back(
      {"storage.rewrite_bytes_per_ingested_byte",
       ingested_rows > 0
           ? log.rewrite_bytes /
                 static_cast<double>(ingested_rows * kColumns.size() *
                                     sizeof(int64_t))
           : 0,
       "ratio"});
  report->layer_details.push_back(
      {"core.delta_rows", Median(target.delta_rows()), "rows"});

  if (cfg.trace) {
    ReplayStats replay;
    for (const QueryKind& kind : kinds) {
      for (int r = 0; r < kReplays; ++r) {
        storage::TableView now;
        {
          ScopedSpan span("storage.MutableTable::View");
          now = s->table->View();
        }
        const uint64_t k = (now.durable - s->base_rows()) / kBatchRows;
        ReplayAr(
            [&](const core::ArOptions& options) {
              core::ArOptions with_delta = options;
              with_delta.delta = now.delta_or_null();
              return core::ExecuteAr(*kind.spec, *now.bwd, nullptr,
                                     now.bwd->device(), with_delta);
            },
            Q6Expected(prefix[IngestTarget::Year(kind) - 1993][k]), &replay, report);
      }
    }
    AddReplayMetrics(replay, report);
    MeasureUnpack(*view.bwd, report);
  }
  CheckRecovery(s.get(), log.acked.load(), prefix, kinds, report);
  s->table.reset();
  std::error_code ec;
  fs::remove_all(s->dir, ec);
}

}  // namespace perfbench
