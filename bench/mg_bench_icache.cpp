/**
 * @file
 * Section 6.2 "Instruction cache effects" reproduction: the
 * compression effect of mini-graphs, isolated by comparing the
 * nop-padded layout (same footprint as the original) against the
 * compressed layout (interior slots deleted, everything re-linked).
 * The effect is strongest for instruction-footprint-bound programs;
 * a reduced 2KB instruction cache mimics SPECint's relative pressure
 * on our small kernels. Runs on the ExperimentEngine (`--jobs N`) and
 * writes BENCH_icache.json.
 */

#include <cstdio>

#include "engine/cli.hh"
#include "sim/report.hh"
#include "workloads/suites.hh"

using namespace mg;

namespace {

void
shrinkIcache(SimConfig &cfg)
{
    cfg.core.mem.l1i = CacheGeometry{2 * 1024, 2, 32};
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli = parseCli(argc, argv);
    ExperimentEngine engine(cli.jobs);
    cli.configureStore(engine);
    cli.configureFaultTolerance(engine);

    SweepSpec spec;
    spec.title = "Section 6.2: icache compression effect (mini-graph "
                 "speedup over the matching baseline)";
    spec.workloads = suiteWorkloads("all", 0, cli.scale);
    for (bool smallIcache : {false, true}) {
        const char *sfx = smallIcache ? "-2KBi" : "";
        SimConfig base = SimConfig::baseline();
        SimConfig nopad = SimConfig::intMemMg();
        SimConfig comp = SimConfig::intMemMg();
        comp.compress = true;
        if (smallIcache) {
            shrinkIcache(base);
            shrinkIcache(nopad);
            shrinkIcache(comp);
        }
        spec.columns.push_back(
            {std::string("base") + sfx, base, true});
        spec.columns.push_back(
            {std::string("mg-nopad") + sfx, nopad, true});
        spec.columns.push_back(
            {std::string("mg-compress") + sfx, comp, true});
    }
    spec.baselineColumn = 0;

    cli.applySampling(spec);
    cli.applyAnalysis(spec);
    SweepResult r = engine.sweep(spec);
    // Mini-graph columns are measured against the baseline with the
    // matching icache (column 0 or 3) everywhere, JSON included.
    r.columnBaseline = {0, 0, 0, 3, 3, 3};

    std::vector<BenchRow> rows;
    std::vector<std::string> names = {"mg-nopad", "mg-compress",
                                      "mg-nopad-2KBi",
                                      "mg-compress-2KBi"};
    for (std::size_t row = 0; row < r.rows.size(); ++row) {
        BenchRow br;
        br.bench = r.rows[row];
        br.suite = r.suites[row];
        br.baselineIpc = r.at(row, 0).stats.ipc();
        br.speedups = {r.speedup(row, 1), r.speedup(row, 2),
                       r.speedup(row, 4), r.speedup(row, 5)};
        // Static footprint: compressed text over the original.
        br.extra.push_back(
            static_cast<double>(r.at(row, 2).textSlots) /
            static_cast<double>(r.at(row, 0).textSlots));
        rows.push_back(std::move(br));
    }
    printf("%s\n",
           reportSpeedups(spec.title, names, rows, {"text-ratio"})
               .c_str());
    finishSweep(r, cli.benchName("icache"), cli.jsonPath,
                !cli.noThroughput);
    return 0;
}
