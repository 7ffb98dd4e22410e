/**
 * @file
 * Figure 6 reproduction: speedup of mini-graph processing over the
 * 6-wide baseline. Four configurations per benchmark:
 *   int            integer mini-graphs on 4-stage ALU pipelines
 *   int+coll       + pair-wise collapsing pipelines
 *   int-mem        integer-memory mini-graphs + sliding-window
 *   int-mem+coll   + pair-wise collapsing
 * Baseline IPCs are printed per benchmark, as in the figure. The
 * matrix runs on the ExperimentEngine (`--jobs N` parallelises it) and
 * is also written as BENCH_performance.json.
 */

#include <cstdio>

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
    spec.title = "Figure 6: mini-graph speedup over the 6-wide baseline";
    spec.workloads = suiteWorkloads("all", 0, cli.scale);
    spec.columns = standardColumns();
    spec.baselineColumn = 0;
    cli.applySampling(spec);
    cli.applyAnalysis(spec);
    SweepResult r = engine.sweep(spec);

    // The figure annotates each bar group with int-mem's dynamic
    // coverage (the fraction of work executed inside handles).
    std::vector<BenchRow> rows = benchRows(r);
    for (std::size_t row = 0; row < rows.size(); ++row)
        rows[row].extra.push_back(r.at(row, 3).stats.dynamicCoverage());

    printf("%s\n",
           reportSpeedups(spec.title, speedupColumns(r), rows,
                          {"covg(int-mem)"})
               .c_str());
    finishSweep(r, cli.benchName("performance"), cli.jsonPath,
                !cli.noThroughput);
    return 0;
}
