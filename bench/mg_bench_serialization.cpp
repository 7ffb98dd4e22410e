/**
 * @file
 * Figure 7 reproduction: isolating serialization and replay effects.
 * For each benchmark, speedup over baseline under selection policies:
 *   int               unrestricted integer mini-graphs
 *   int -ext          disallow externally serial
 *   int -int          disallow internally serial
 *   int -both         disallow both
 *   int-mem           unrestricted integer-memory
 *   int-mem -both     disallow both serialization forms
 *   int-mem -replay   additionally disallow interior loads
 *
 * With --best, also prints the per-benchmark best-of-policies gmean
 * (Section 6.2's selective-policy result). Runs on the
 * ExperimentEngine (`--jobs N`) and writes BENCH_serialization.json.
 */

#include <algorithm>
#include <cstdio>

#include "common/stats.hh"
#include "engine/cli.hh"
#include "sim/report.hh"
#include "workloads/suites.hh"

using namespace mg;

namespace {

SimConfig
makePolicy(bool memory, bool ext, bool inte, bool replay)
{
    SimConfig c = memory ? SimConfig::intMemMg() : SimConfig::intMg();
    c.policy.allowExternallySerial = ext;
    c.policy.allowInternallySerial = inte;
    c.policy.allowInteriorLoads = replay;
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli = parseCli(argc, argv, {"--best"});
    bool best = cli.has("--best");
    ExperimentEngine engine(cli.jobs);
    cli.configureStore(engine);
    cli.configureFaultTolerance(engine);

    SweepSpec spec;
    spec.title = "Figure 7: serialization and replay policy isolation "
                 "(speedup over baseline)";
    spec.workloads = suiteWorkloads("all", 0, cli.scale);
    spec.columns = {
        {"baseline", SimConfig::baseline(), true},
        {"int", makePolicy(false, true, true, true), true},
        {"int-ext", makePolicy(false, false, true, true), true},
        {"int-int", makePolicy(false, true, false, true), true},
        {"int-both", makePolicy(false, false, false, true), true},
        {"intmem", makePolicy(true, true, true, true), true},
        {"intmem-both", makePolicy(true, false, false, true), true},
        {"intmem-replay", makePolicy(true, false, false, false), true},
    };
    spec.baselineColumn = 0;

    cli.applySampling(spec);
    cli.applyAnalysis(spec);
    SweepResult r = engine.sweep(spec);
    std::vector<BenchRow> rows = benchRows(r);
    std::vector<double> bests;
    for (BenchRow &row : rows) {
        double b = *std::max_element(row.speedups.begin(),
                                     row.speedups.end());
        row.extra.push_back(b);
        bests.push_back(b);
    }
    printf("%s\n",
           reportSpeedups(spec.title, speedupColumns(r), rows, {"best"})
               .c_str());
    if (best) {
        printf("Best-of-policies gmean over all benchmarks: %.3f\n",
               gmean(bests));
    }
    finishSweep(r, cli.benchName("serialization"), cli.jsonPath,
                !cli.noThroughput);
    return 0;
}
