/**
 * @file
 * Figure 8 (top) reproduction: register-file capacity amplification.
 * For physical register files of 164 / 144 / 124 / 104 entries,
 * performance of the baseline and the integer-memory mini-graph
 * machine, everything relative to the 164-register baseline. Runs on
 * the ExperimentEngine (`--jobs N`) and writes BENCH_regfile.json.
 */

#include <cstdio>

#include "common/logging.hh"
#include "engine/cli.hh"
#include "sim/report.hh"
#include "workloads/suites.hh"

using namespace mg;

int
main(int argc, char **argv)
{
    CliOptions cli = parseCli(argc, argv);
    ExperimentEngine engine(cli.jobs);
    cli.configureStore(engine);
    cli.configureFaultTolerance(engine);

    SweepSpec spec;
    spec.title = "Figure 8 (top): performance with reduced register "
                 "files, relative to the 164-register baseline";
    spec.workloads = suiteWorkloads("all", 0, cli.scale);
    spec.columns.push_back({"baseline", SimConfig::baseline(), true});
    spec.baselineColumn = 0;
    for (int regs : {164, 144, 124, 104}) {
        SimConfig base = SimConfig::baseline();
        base.core.physRegs = regs;
        spec.columns.push_back({strfmt("base%d", regs), base, true});

        SimConfig mg = SimConfig::intMemMg();
        mg.core.physRegs = regs;
        spec.columns.push_back({strfmt("mg%d", regs), mg, true});
    }

    cli.applySampling(spec);
    cli.applyAnalysis(spec);
    SweepResult r = engine.sweep(spec);
    printf("%s\n", sweepTable(r).c_str());
    finishSweep(r, cli.benchName("regfile"), cli.jsonPath,
                !cli.noThroughput);
    return 0;
}
