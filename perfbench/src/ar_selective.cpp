// ar_selective: the paper's own regime. Closed-loop client streams send
// TPC-H Q6 year variants and Q14 through QueryServer::SubmitProgressive on
// the fixed A&R engine. Lineitem uses the space-constrained decomposition
// (l_shipdate keeps 8 residual bits on the host), so Phase A returns a
// real candidate superset for Phase R to refine. Codec and Phase R changes
// show here; the scheduler, the plan executors and storage are bypassed.

#include <memory>
#include <optional>

#include "bwd/bwd_table.h"
#include "core/ar_engine.h"
#include "server/query_server.h"
#include "trace.h"
#include "util/timer.h"
#include "workloads.h"
#include "workloads/tpch.h"

namespace perfbench {

namespace {

using namespace wastenot;

constexpr double kScaleFactor = 0.25;
constexpr unsigned kStreams = 4;
constexpr unsigned kServerWorkers = 3;
constexpr unsigned kDeviceThreads = 1;

/// The served state, built by one set-up repetition. Members are declared
/// in dependency order: the server is destroyed first, the data last.
struct Served {
  cs::Database db;
  std::unique_ptr<device::Device> device;
  std::optional<bwd::BwdTable> fact;
  std::optional<bwd::BwdTable> part;
  std::unique_ptr<server::QueryServer> server;
};

std::unique_ptr<Served> SetUp(uint64_t seed, RunReport* report) {
  auto s = std::make_unique<Served>();
  {
    ScopedSpan span("workloads.generate");
    ScopedSpan call("workloads.GenerateTpch");
    workloads::GenerateTpch(kScaleFactor, seed, &s->db);
  }
  s->device = std::make_unique<device::Device>(device::DeviceSpec::Gtx680(),
                                               kDeviceThreads);
  {
    ScopedSpan span("bwd.decompose");
    {
      ScopedSpan call("bwd.BwdTable::Decompose");
      auto fact = bwd::BwdTable::Decompose(s->db.table("lineitem"),
                                           workloads::TpchSpaceConstrained(),
                                           s->device.get());
      if (!fact.ok()) {
        report->Fail("decompose lineitem: " + fact.status().ToString());
        return nullptr;
      }
      s->fact.emplace(std::move(*fact));
    }
    ScopedSpan call("bwd.BwdTable::Decompose");
    auto part = bwd::BwdTable::Decompose(
        s->db.table("part"), workloads::TpchPartResident(), s->device.get());
    if (!part.ok()) {
      report->Fail("decompose part: " + part.status().ToString());
      return nullptr;
    }
    s->part.emplace(std::move(*part));
  }
  ScopedSpan span("server.start");
  server::ServerOptions options;
  options.num_workers = kServerWorkers;
  s->server = std::make_unique<server::QueryServer>(
      server::QueryServer::Backend{&s->db, &*s->fact, &*s->part,
                                   s->device.get()},
      options);
  return s;
}

class ArTarget : public Target {
 public:
  explicit ArTarget(server::QueryServer* server) : server_(server) {}
  server::ProgressiveFutures Submit(unsigned, const QueryKind& kind,
                                    uint64_t*) override {
    server::QueryRequest request;
    request.query = *kind.spec;
    request.engine = server::EngineKind::kAr;
    return server_->SubmitProgressive(std::move(request));
  }

 private:
  server::QueryServer* server_;
};

}  // namespace

void RunArSelective(const RunConfig& cfg, RunReport* report) {
  report->Info("scale_factor", kScaleFactor);
  report->Info("client_streams", kStreams);
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

  std::vector<QueryKind> kinds;
  for (uint64_t v = 0; v < 5; ++v) {
    const int year = 1993 + static_cast<int>(v);
    kinds.push_back({"q6_" + std::to_string(year),
                     workloads::TpchQ6YearVariant(v), std::nullopt,
                     CheckQ6(s->db, year)});
  }
  core::QuerySpec q14 = workloads::TpchQ14();
  if (!workloads::ResolvePromoFilter(s->db, &q14).ok()) {
    report->Fail("cannot resolve the Q14 promo filter");
    return;
  }
  kinds.push_back({"q14", q14, std::nullopt, CheckQ14(s->db)});

  ArTarget target(s->server.get());
  WarmUp(&target, kinds, report);
  const LoadResult load = RunClosedLoop(&target, kinds, {1, 1, 1, 1, 1, 1},
                                        kStreams, cfg.seconds, cfg.seed, report);
  AddSetupMetrics(setup_seconds, report);
  AddServingMetrics(load, kinds, report);
  AddFootprintMetrics(s->fact->device_bytes() + s->part->device_bytes(),
                      s->fact->residual_bytes() + s->part->residual_bytes(),
                      s->fact->num_rows(), s->device->kernel_cache(), report);
  const server::ServerStats stats = s->server->stats();
  report->layer_details.push_back(
      {"server.dispatch.ar",
       static_cast<double>(stats.engines[0].completed), "count"});

  if (cfg.trace) {
    ReplayStats replay;
    for (const QueryKind& kind : kinds) {
      for (int r = 0; r < kReplays; ++r) {
        ReplayAr(
            [&](const core::ArOptions& options) {
              return core::ExecuteAr(*kind.spec, *s->fact, &*s->part,
                                     s->device.get(), options);
            },
            kind.expected, &replay, report);
      }
    }
    AddReplayMetrics(replay, report);
    MeasureUnpack(*s->fact, report);
  }
  s->server->Shutdown();
}

}  // namespace perfbench
