// The benchmark's workloads (see README.md for their make-up and why each
// was chosen). Each builds its own data from the run's seed, serves it for
// the run's window and fills in the report.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "serving.h"

namespace perfbench {

void RunArSelective(const RunConfig& cfg, RunReport* report);
void RunAdaptiveMix(const RunConfig& cfg, RunReport* report);
void RunIngestServe(const RunConfig& cfg, RunReport* report);

using WorkloadFn = void (*)(const RunConfig&, RunReport*);

inline WorkloadFn FindWorkload(const std::string& name) {
  if (name == "ar_selective") return RunArSelective;
  if (name == "adaptive_mix") return RunAdaptiveMix;
  if (name == "ingest_serve") return RunIngestServe;
  return nullptr;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
