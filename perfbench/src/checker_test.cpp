// The checker's own test: it accepts the engines' answers on a small
// generated database and rejects deliberately perturbed ones. Exits 0 when
// every case behaves, 1 otherwise (run.py runs it after every build).

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "bwd/bwd_table.h"
#include "checker.h"
#include "core/ar_engine.h"
#include "core/classic_engine.h"
#include "core/plan_exec.h"
#include "workloads/tpch.h"

namespace {

using namespace wastenot;
using perfbench::Expected;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "checker_test FAILED: %s\n", what.c_str());
    ++failures;
  }
}

/// `result` must pass, and each perturbation of it must be rejected.
void CheckExactCase(const std::string& name, const Expected& expected,
                    const core::QueryResult& result) {
  const std::string verdict = perfbench::CompareExact(expected, result);
  Expect(verdict.empty(), name + " rejected the engine answer: " + verdict);
  const std::vector<std::pair<std::string,
                              std::function<void(core::QueryResult*)>>>
      perturbations = {
          {"aggregate +1", [](core::QueryResult* r) { ++r->agg_values[0][0]; }},
          {"selected rows +1", [](core::QueryResult* r) { ++r->selected_rows; }},
          {"group dropped",
           [](core::QueryResult* r) {
             r->group_keys.pop_back();
             r->agg_values.pop_back();
             if (!r->group_counts.empty()) r->group_counts.pop_back();
           }},
      };
  for (const auto& [what, perturb] : perturbations) {
    core::QueryResult bad = result;
    perturb(&bad);
    Expect(!perfbench::CompareExact(expected, bad).empty(),
           name + " accepted a perturbed answer (" + what + ")");
  }
  if (!result.group_keys.empty() && !result.group_keys[0].empty()) {
    core::QueryResult bad = result;
    bad.group_keys[0][0] += 1000003;
    Expect(!perfbench::CompareExact(expected, bad).empty(),
           name + " accepted a perturbed answer (group key moved)");
  }
}

void CheckApproxCase(const std::string& name, const Expected& expected,
                     const core::ApproximateAnswer& approx) {
  const std::string verdict = perfbench::CompareApprox(expected, approx);
  Expect(verdict.empty(), name + " rejected a sound interval: " + verdict);
  core::ApproximateAnswer bad = approx;
  core::ValueBounds& b = bad.agg_bounds[0][0];
  b.lo = b.hi + 1;
  b.hi = b.lo;
  Expect(!perfbench::CompareApprox(expected, bad).empty(),
         name + " accepted an interval that misses the exact answer");
  bad = approx;
  bad.row_count = {static_cast<int64_t>(expected.rows) + 1,
                   static_cast<int64_t>(expected.rows) + 1};
  Expect(!perfbench::CompareApprox(expected, bad).empty(),
         name + " accepted a row-count interval that misses the exact count");
}

}  // namespace

int main() {
  cs::Database db;
  workloads::GenerateTpch(0.01, 7, &db);
  device::Device dev(device::DeviceSpec::Gtx680(), 1);
  auto fact = bwd::BwdTable::Decompose(db.table("lineitem"),
                                       workloads::TpchSpaceConstrained(), &dev);
  auto part = bwd::BwdTable::Decompose(db.table("part"),
                                       workloads::TpchPartResident(), &dev);
  if (!fact.ok() || !part.ok()) {
    std::fprintf(stderr, "checker_test: decomposition failed\n");
    return 1;
  }
  core::QuerySpec q14 = workloads::TpchQ14();
  if (!workloads::ResolvePromoFilter(db, &q14).ok()) return 1;

  const std::vector<std::pair<core::QuerySpec, Expected>> specs = {
      {workloads::TpchQ1(), perfbench::CheckQ1(db)},
      {workloads::TpchQ6YearVariant(1), perfbench::CheckQ6(db, 1994)},
      {q14, perfbench::CheckQ14(db)},
  };
  for (const auto& [spec, expected] : specs) {
    auto classic = core::ExecuteClassic(spec, db);
    Expect(classic.ok(), spec.name + " classic failed");
    if (classic.ok()) CheckExactCase(spec.name + " classic", expected, *classic);
    auto ar = core::ExecuteAr(spec, *fact, &*part, &dev);
    Expect(ar.ok(), spec.name + " A&R failed");
    if (ar.ok()) {
      CheckExactCase(spec.name + " A&R", expected, ar->result);
      CheckApproxCase(spec.name + " A&R", expected, ar->approx);
    }
  }
  const std::vector<std::pair<core::PhysicalPlan, Expected>> plans = {
      {workloads::TpchQ3(), perfbench::CheckQ3(db)},
      {workloads::TpchQ10(), perfbench::CheckQ10(db)},
  };
  for (const auto& [plan, expected] : plans) {
    auto classic = core::ExecutePlanClassic(plan, db);
    Expect(classic.ok(), plan.name + " classic failed");
    if (classic.ok()) CheckExactCase(plan.name + " classic", expected, *classic);
  }

  // A different year must not pass as the requested one.
  auto q6_1995 = core::ExecuteClassic(workloads::TpchQ6YearVariant(2), db);
  Expect(q6_1995.ok() &&
             !perfbench::CompareExact(perfbench::CheckQ6(db, 1994), *q6_1995)
                  .empty(),
         "Q6 1995 accepted as Q6 1994");
  if (failures == 0) std::printf("checker_test: all cases passed\n");
  return failures == 0 ? 0 : 1;
}
