// sleuthbench: one workload per invocation.
//
//   sleuthbench --workload storm-rca|live-serve|durable-restart
//               --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits
// non-zero when a correctness check fails.

#include <cstdio>

#include "common.h"
#include "workloads.h"

int
main(int argc, char **argv)
{
    sleuthbench::Args args;
    if (!sleuthbench::parseArgs(argc, argv, &args))
        return 2;
    if (args.workload == "storm-rca")
        return sleuthbench::runStormRca(args);
    if (args.workload == "live-serve")
        return sleuthbench::runServe(args, false);
    if (args.workload == "durable-restart")
        return sleuthbench::runServe(args, true);
    std::fprintf(stderr, "unknown workload '%s' (want storm-rca, "
                         "live-serve or durable-restart)\n",
                 args.workload.c_str());
    return 2;
}
