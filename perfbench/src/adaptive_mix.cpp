// adaptive_mix: closed-loop tenants submit TPC-H Q1, Q6 year variants and
// Q14 (QuerySpec) and Q3, Q10 (PhysicalPlan) through
// AdaptiveScheduler::Submit, with progressive answers. Device memory is
// sized so that the decomposed tables fit but the raw columns the
// streaming engine pins for the whole mix do not. The engine choice, the
// cost model, the classic and streaming engines, the general plan
// executors and the residency cache do most of the work here; Phase R
// does little.

#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "bwd/bwd_table.h"
#include "core/ar_engine.h"
#include "core/plan_exec.h"
#include "server/scheduler.h"
#include "trace.h"
#include "util/timer.h"
#include "workloads.h"
#include "workloads/tpch.h"

namespace perfbench {

namespace {

using namespace wastenot;

constexpr double kScaleFactor = 0.1;
constexpr unsigned kTenants = 4;  // one closed-loop stream each
constexpr unsigned kServerWorkers = 3;
constexpr unsigned kDeviceThreads = 1;
/// Device memory beyond the decomposed tables, as a share of the raw
/// column bytes: room for one query's streaming pins (Q1 reads 7 of
/// lineitem's 9 columns), not for the whole mix's.
constexpr double kStreamingShare = 0.8;

struct Table {
  const char* name;
  std::vector<bwd::DecomposeRequest> requests;
};

std::vector<Table> Decomposition() {
  std::vector<bwd::DecomposeRequest> lineitem =
      workloads::TpchSpaceConstrained();
  for (const auto& r : workloads::TpchMultiJoinResident()) lineitem.push_back(r);
  return {{"lineitem", lineitem},
          {"part", workloads::TpchPartResident()},
          {"orders", workloads::TpchOrdersResident()},
          {"customer", workloads::TpchCustomerResident()}};
}

/// Decomposes every table of the mix onto `dev`.
StatusOr<std::map<std::string, bwd::BwdTable>> DecomposeAll(
    const cs::Database& db, device::Device* dev) {
  std::map<std::string, bwd::BwdTable> tables;
  for (const Table& t : Decomposition()) {
    ScopedSpan call("bwd.BwdTable::Decompose");
    WN_ASSIGN_OR_RETURN(bwd::BwdTable table,
                        bwd::BwdTable::Decompose(db.table(t.name), t.requests,
                                                 dev));
    tables.emplace(t.name, std::move(table));
  }
  return tables;
}

uint64_t DeviceBytes(const std::map<std::string, bwd::BwdTable>& tables) {
  uint64_t bytes = 0;
  for (const auto& [_, t] : tables) bytes += t.device_bytes();
  return bytes;
}

struct Served {
  cs::Database db;
  std::unique_ptr<device::Device> device;
  std::map<std::string, bwd::BwdTable> tables;
  core::BwdTableMap dims;
  std::unique_ptr<server::AdaptiveScheduler> scheduler;
};

std::unique_ptr<Served> SetUp(uint64_t seed, RunReport* report) {
  auto s = std::make_unique<Served>();
  {
    ScopedSpan span("workloads.generate");
    ScopedSpan call("workloads.GenerateTpch");
    workloads::GenerateTpch(kScaleFactor, seed, &s->db);
  }
  {
    ScopedSpan span("bwd.decompose");
    // The decomposed footprint decides the device size, so it is measured
    // on an unconstrained device first.
    uint64_t decomposed = 0;
    {
      device::Device probe(device::DeviceSpec::Gtx680(), kDeviceThreads);
      auto tables = DecomposeAll(s->db, &probe);
      if (!tables.ok()) {
        report->Fail("decompose: " + tables.status().ToString());
        return nullptr;
      }
      decomposed = DeviceBytes(*tables);
    }
    device::DeviceSpec spec = device::DeviceSpec::Gtx680();
    spec.memory_capacity =
        decomposed + static_cast<uint64_t>(
                         kStreamingShare * static_cast<double>(s->db.byte_size()));
    s->device = std::make_unique<device::Device>(spec, kDeviceThreads);
    auto tables = DecomposeAll(s->db, s->device.get());
    if (!tables.ok()) {
      report->Fail("decompose: " + tables.status().ToString());
      return nullptr;
    }
    s->tables = std::move(*tables);
  }
  for (const auto& [name, t] : s->tables) {
    if (name != "lineitem") s->dims[name] = &t;
  }
  ScopedSpan span("server.start");
  server::SchedulerOptions options;
  options.server.num_workers = kServerWorkers;
  server::QueryServer::Backend backend{&s->db, &s->tables.at("lineitem"),
                                       &s->tables.at("part"), s->device.get()};
  backend.dim_tables = &s->dims;
  s->scheduler =
      std::make_unique<server::AdaptiveScheduler>(backend, options);
  return s;
}

class SchedulerTarget : public Target {
 public:
  explicit SchedulerTarget(server::AdaptiveScheduler* scheduler)
      : scheduler_(scheduler) {}
  server::ProgressiveFutures Submit(unsigned stream, const QueryKind& kind,
                                    uint64_t*) override {
    const std::string tenant = "tenant" + std::to_string(stream);
    return kind.plan.has_value() ? scheduler_->Submit(tenant, *kind.plan)
                                 : scheduler_->Submit(tenant, *kind.spec);
  }

 private:
  server::AdaptiveScheduler* scheduler_;
};

const char* EngineName(server::EngineKind engine) {
  switch (engine) {
    case server::EngineKind::kAr:
      return "ar";
    case server::EngineKind::kClassic:
      return "classic";
    case server::EngineKind::kStreaming:
      return "streaming";
  }
  return "?";
}

}  // namespace

void RunAdaptiveMix(const RunConfig& cfg, RunReport* report) {
  report->Info("scale_factor", kScaleFactor);
  report->Info("tenants", kTenants);
  report->Info("server_workers", kServerWorkers);
  report->Info("device_threads", kDeviceThreads);
  std::vector<double> setup_seconds;
  std::unique_ptr<Served> s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s.reset();
    const WallTimer timer;
    s = SetUp(cfg.seed, report);
    if (s == nullptr) return;
    setup_seconds.push_back(timer.Seconds());
  }
  report->Info("device_capacity_bytes",
               static_cast<double>(s->device->spec().memory_capacity));

  std::vector<QueryKind> kinds;
  std::vector<unsigned> weights;
  kinds.push_back({"q1", workloads::TpchQ1(), std::nullopt, CheckQ1(s->db)});
  weights.push_back(3);
  for (uint64_t v = 0; v < 5; ++v) {
    const int year = 1993 + static_cast<int>(v);
    kinds.push_back({"q6_" + std::to_string(year),
                     workloads::TpchQ6YearVariant(v), std::nullopt,
                     CheckQ6(s->db, year)});
    weights.push_back(4);
  }
  core::QuerySpec q14 = workloads::TpchQ14();
  if (!workloads::ResolvePromoFilter(s->db, &q14).ok()) {
    report->Fail("cannot resolve the Q14 promo filter");
    return;
  }
  kinds.push_back({"q14", q14, std::nullopt, CheckQ14(s->db)});
  weights.push_back(8);
  kinds.push_back({"q3", std::nullopt, workloads::TpchQ3(), CheckQ3(s->db)});
  weights.push_back(2);
  kinds.push_back({"q10", std::nullopt, workloads::TpchQ10(), CheckQ10(s->db)});
  weights.push_back(2);

  SchedulerTarget target(s->scheduler.get());
  WarmUp(&target, kinds, report);
  const device::ResidencyCache& cache = s->scheduler->server().streaming_cache();
  const uint64_t hits0 = cache.hits(), misses0 = cache.misses();
  const LoadResult load =
      RunClosedLoop(&target, kinds, weights, kTenants, cfg.seconds,
                    cfg.seed, report);
  const uint64_t hits = cache.hits() - hits0, misses = cache.misses() - misses0;
  AddSetupMetrics(setup_seconds, report);
  AddServingMetrics(load, kinds, report);

  const bwd::BwdTable& fact = s->tables.at("lineitem");
  uint64_t residual = 0;
  for (const auto& [_, t] : s->tables) residual += t.residual_bytes();
  AddFootprintMetrics(DeviceBytes(s->tables), residual, fact.num_rows(),
                      s->device->kernel_cache(), report);
  report->layer_details.push_back(
      {"device.residency_hit_ratio",
       hits + misses > 0 ? static_cast<double>(hits) /
                               static_cast<double>(hits + misses)
                         : 0,
       "ratio"});
  const server::SchedulerStats stats = s->scheduler->stats();
  for (server::EngineKind e :
       {server::EngineKind::kAr, server::EngineKind::kClassic,
        server::EngineKind::kStreaming}) {
    report->layer_details.push_back(
        {std::string("server.dispatch.") + EngineName(e),
         static_cast<double>(stats.dispatched[static_cast<size_t>(e)]),
         "count"});
  }
  report->layer_details.push_back(
      {"server.degraded", static_cast<double>(stats.degraded), "count"});

  if (cfg.trace) {
    // Decide and replay each kind on the engine the policy picks, quiesced.
    ReplayStats replay;
    std::vector<double> est_over_measured;
    for (const QueryKind& kind : kinds) {
      const core::PhysicalPlan plan =
          kind.plan.has_value() ? *kind.plan : core::LowerToPlan(*kind.spec);
      for (int r = 0; r < kReplays; ++r) {
        server::SchedulerDecision decision;
        {
          ScopedSpan span("server.Decide");
          decision = kind.plan.has_value() ? s->scheduler->Decide(*kind.plan)
                                           : s->scheduler->Decide(*kind.spec);
        }
        const WallTimer timer;
        double estimate = 0;
        switch (decision.engine) {
          case server::EngineKind::kAr:
            estimate = decision.est_ar_seconds;
            ReplayAr(
                [&](const core::ArOptions& options) {
                  return core::ExecutePlanAr(plan, fact, s->dims,
                                             s->device.get(), options);
                },
                kind.expected, &replay, report);
            break;
          case server::EngineKind::kClassic: {
            estimate = decision.est_classic_seconds;
            ScopedSpan span("core.ExecutePlanClassic");
            auto result = core::ExecutePlanClassic(plan, s->db);
            if (!result.ok() || !CompareExact(kind.expected, *result).empty()) {
              report->Fail(kind.tag + ": classic replay wrong or failed");
            }
            break;
          }
          case server::EngineKind::kStreaming: {
            estimate = decision.est_streaming_seconds;
            ScopedSpan span("core.ExecutePlanStreaming");
            device::ResidencyCache replay_cache(s->device.get());
            auto result = core::ExecutePlanStreaming(plan, s->db,
                                                     s->device.get(),
                                                     &replay_cache);
            if (!result.ok() ||
                !CompareExact(kind.expected, result->result).empty()) {
              report->Fail(kind.tag + ": streaming replay wrong or failed");
            }
            break;
          }
        }
        est_over_measured.push_back(estimate / timer.Seconds());
        if (r == 0) {
          char estimates[128];
          std::snprintf(estimates, sizeof estimates,
                        " (est. ar %.3g ms, classic %.3g ms, streaming %.3g ms)",
                        decision.est_ar_seconds * 1e3,
                        decision.est_classic_seconds * 1e3,
                        decision.est_streaming_seconds * 1e3);
          report->Info("decision." + kind.tag,
                       EngineName(decision.engine) + std::string(estimates));
        }
      }
    }
    if (replay.host_ms.empty()) {
      // The policy routed nothing to A&R: replay the Q6 kinds there so the
      // Phase A/R metrics still describe this workload's data.
      for (const QueryKind& kind : kinds) {
        if (kind.tag.rfind("q6", 0) != 0) continue;
        ReplayAr(
            [&](const core::ArOptions& options) {
              return core::ExecuteAr(*kind.spec, fact, s->dims.at("part"),
                                     s->device.get(), options);
            },
            kind.expected, &replay, report);
      }
    }
    AddReplayMetrics(replay, report);
    report->layer_details.push_back(
        {"server.decide_us", MedianSpanSeconds("server.Decide") * 1e6, "us"});
    report->layer_details.push_back(
        {"server.est_over_measured", Median(est_over_measured), "ratio"});
    MeasureUnpack(fact, report);
  }
  s->scheduler->Shutdown();
}

}  // namespace perfbench
