/**
 * @file
 * Figure 8 (bottom) reproduction: bandwidth amplification and
 * scheduling-loop latency. Configurations, relative to the 6-wide
 * 1-cycle-scheduler baseline:
 *   6w base / 6w mg            the reference pair
 *   4w base / 4w mg            4-wide front and back end (1 load port)
 *   4w+6x base / 4w+6x mg      4-wide front end, 6-wide execute
 *                              (2 load ports)
 *   2cyc base / 2cyc mg        6-wide with a pipelined scheduler
 * Runs on the ExperimentEngine (`--jobs N`, `--sched` for the
 * scheduler pair only) and writes BENCH_bandwidth.json.
 */

#include <cstdio>

#include "engine/cli.hh"
#include "sim/report.hh"
#include "workloads/suites.hh"

using namespace mg;

namespace {

void
narrowFrontEnd(CoreConfig &c)
{
    c.fetchWidth = c.renameWidth = c.commitWidth = 4;
}

void
narrowExecute(CoreConfig &c)
{
    c.issueWidth = 4;
    c.fu.loadPorts = 1;
}

/** The base/mg column pair for one machine-width variant. */
void
addPair(std::vector<SweepColumn> &cols, const std::string &tag,
        void (*tweak)(CoreConfig &))
{
    SimConfig base = SimConfig::baseline();
    if (tweak)
        tweak(base.core);
    cols.push_back({tag + "-base", base, true});

    SimConfig mg = SimConfig::intMemMg();
    if (tweak)
        tweak(mg.core);
    cols.push_back({tag + "-mg", mg, true});
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli = parseCli(argc, argv, {"--sched"});
    bool schedOnly = cli.has("--sched");
    ExperimentEngine engine(cli.jobs);
    cli.configureStore(engine);
    cli.configureFaultTolerance(engine);

    SweepSpec spec;
    spec.title = "Figure 8 (bottom): bandwidth and scheduling-loop "
                 "amplification, relative to the 6-wide baseline";
    spec.workloads = suiteWorkloads("all", 0, cli.scale);
    spec.columns.push_back({"baseline", SimConfig::baseline(), true});
    spec.baselineColumn = 0;
    if (!schedOnly) {
        addPair(spec.columns, "6w", nullptr);
        addPair(spec.columns, "4w", +[](CoreConfig &c) {
            narrowFrontEnd(c);
            narrowExecute(c);
        });
        addPair(spec.columns, "4w6x",
                +[](CoreConfig &c) { narrowFrontEnd(c); });
    }
    addPair(spec.columns, "2cyc",
            +[](CoreConfig &c) { c.schedulerCycles = 2; });

    cli.applySampling(spec);
    cli.applyAnalysis(spec);
    SweepResult r = engine.sweep(spec);
    printf("%s\n", sweepTable(r).c_str());
    finishSweep(r, cli.benchName("bandwidth"), cli.jsonPath,
                !cli.noThroughput);
    return 0;
}
