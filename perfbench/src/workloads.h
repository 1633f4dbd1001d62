// The three workloads. Each builds its system from scratch three times
// (setup_s is the median), measures for --seconds, checks its outputs and
// returns the metrics of the run.
#pragma once

#include "common.h"

namespace perfbench {

RunResult RunIngest(const Args& args);
RunResult RunQuery(const Args& args);
RunResult RunVerify(const Args& args);

}  // namespace perfbench
