// The four perf workloads (bench/perf/README.md "Workloads"). Each builds
// its inputs from opt.seed, sets up, measures for opt.seconds, checks the
// program's outputs, and fills a RunResult. The working directory is the
// run's scratch directory; every path a workload creates is relative to it.
#pragma once

#include "harness.h"

namespace asteria::perf {

RunResult RunQueryTopk(const Options& opt);
RunResult RunIngestArrivals(const Options& opt);
RunResult RunOfflineEncode(const Options& opt);
RunResult RunTrainEpoch(const Options& opt);

}  // namespace asteria::perf
