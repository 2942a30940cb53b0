#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "harness.h"

namespace perfbench {

/// train-storage and train-faults (train_workloads.cc).
bool IsTrainWorkload(const std::string& name);
RunOutcome RunTrainWorkload(const Args& args);

/// serve-ladder (serve_workload.cc).
RunOutcome RunServeWorkload(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
