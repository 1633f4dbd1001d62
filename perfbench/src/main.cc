// SEBDB benchmark program. One process runs one workload end to end:
//
//   sebdb_perfbench --workload ingest|query|verify --seed N --seconds S
//                   --trace 0|1 --data-dir DIR [--trace-dir DIR]
//                   [--scale full|smoke] [--wrong-truth 0|1]
//
// It prints human-readable "info" lines (traffic properties, the workload's
// named end-to-end figures, cache budgets) and, last, one JSON line with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// The exit code is 0 only when every correctness and validity check held.
#include <cmath>
#include <cstdio>
#include <set>

#include "common.h"
#include "storage/file.h"
#include "trace.h"
#include "workloads.h"

namespace {

// End-to-end metrics every workload reports; see README.md for what each
// one means per workload.
const std::set<std::string> kEndToEnd = {"setup_s",  "ops_per_s",
                                         "p50_ms",   "tail_ms",
                                         "cpu_ms_per_op", "peak_rss_mb"};

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    fprintf(stderr, "sebdb_perfbench: %s\n", error.c_str());
    return 2;
  }
  if (args.trace) Tracer::Enable();
  sebdb::RemoveDirRecursive(args.data_dir);
  if (!sebdb::CreateDirIfMissing(args.data_dir).ok()) {
    fprintf(stderr, "sebdb_perfbench: cannot create %s\n",
            args.data_dir.c_str());
    return 2;
  }

  RunResult result;
  if (args.workload == "ingest") {
    result = RunIngest(args);
  } else if (args.workload == "query") {
    result = RunQuery(args);
  } else if (args.workload == "verify") {
    result = RunVerify(args);
  } else {
    fprintf(stderr, "sebdb_perfbench: unknown workload %s\n",
            args.workload.c_str());
    return 2;
  }
  result.Set("peak_rss_mb", PeakRssMb(), "MiB");
  sebdb::RemoveDirRecursive(args.data_dir);

  // A traced run reports per-layer metrics; its own end-to-end figures go
  // to info lines, where they give the tracing overhead against an
  // untraced run of the same seed.
  std::vector<Metric> printed;
  for (const Metric& m : result.metrics) {
    if (args.trace && kEndToEnd.count(m.name) > 0) {
      result.Info("traced." + m.name, Fmt("%.6g %s", m.value, m.unit.c_str()));
    } else {
      printed.push_back(m);
    }
  }
  for (const Metric& m : printed) {
    if (!std::isfinite(m.value)) result.Fail("metric " + m.name + " not measured");
  }
  if (args.trace && !args.trace_dir.empty()) {
    sebdb::CreateDirIfMissing(args.trace_dir);
    std::string path =
        args.trace_dir + "/" + args.workload + "-" + std::to_string(args.seed) +
        ".spans.tsv";
    uint64_t written = Tracer::WriteSpans(path, 2000000);
    result.Info("spans", Fmt("%llu written to %s",
                             static_cast<unsigned long long>(written),
                             path.c_str()));
  }
  result.metrics = printed;
  PrintResult(result);
  return result.correct ? 0 : 1;
}
