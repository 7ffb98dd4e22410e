/**
 * @file
 * Design-space exploration on one kernel: how MGT capacity, maximum
 * mini-graph size, selection policies, and collapsing pipelines trade
 * off coverage against speedup — the knobs a user tunes when adopting
 * the library. The whole space is one ExperimentEngine sweep: the
 * kernel is profiled once, every configuration cell runs in parallel
 * under `--jobs N`, and the cache counters show the dedup at work.
 */

#include <cstdio>

#include "common/logging.hh"
#include "common/stats.hh"
#include "engine/cli.hh"
#include "sim/report.hh"
#include "workloads/suites.hh"

using namespace mg;

int
main(int argc, char **argv)
{
    CliOptions cli = parseCli(argc, argv);
    const char *name =
        cli.rest.empty() ? "adpcm.enc" : cli.rest[0].c_str();
    BoundKernel bk = bindKernel(findKernel(name), cli.scale);
    printf("design space for kernel '%s' at scale %s (%s)\n\n",
           bk.kernel->name, scaleName(bk.scale),
           bk.kernel->description);

    SweepSpec spec;
    spec.workloads = {workload(bk)};
    spec.columns.push_back({"baseline", SimConfig::baseline(), true});
    spec.baselineColumn = 0;
    for (int entries : {8, 32, 128, 512}) {
        SimConfig cfg = SimConfig::intMemMg();
        cfg.policy.maxTemplates = entries;
        spec.columns.push_back(
            {strfmt("int-mem, %d entries", entries), cfg, true});
    }
    for (int size : {2, 3, 4, 8}) {
        SimConfig cfg = SimConfig::intMemMg();
        cfg.policy.maxSize = size;
        spec.columns.push_back(
            {strfmt("int-mem, size<=%d", size), cfg, true});
    }
    {
        spec.columns.push_back({"int only", SimConfig::intMg(), true});
        spec.columns.push_back(
            {"int + collapsing", SimConfig::intMg(true), true});
        spec.columns.push_back(
            {"int-mem + collapsing", SimConfig::intMemMg(true), true});
        SimConfig cfg = SimConfig::intMemMg();
        cfg.policy.allowExternallySerial = false;
        spec.columns.push_back({"int-mem, no ext-serial", cfg, true});
        cfg = SimConfig::intMemMg();
        cfg.policy.allowInteriorLoads = false;
        spec.columns.push_back(
            {"int-mem, no replay-vulnerable", cfg, true});
        cfg = SimConfig::intMemMg();
        cfg.compress = true;
        spec.columns.push_back(
            {"int-mem, compressed layout", cfg, true});
    }

    ExperimentEngine engine(cli.jobs);
    cli.configureStore(engine);
    cli.configureFaultTolerance(engine);
    cli.applySampling(spec);
    SweepResult r = engine.sweep(spec);

    const SweepCell &base = r.at(0, 0);
    printf("baseline IPC %.3f over %llu cycles\n\n", base.stats.ipc(),
           static_cast<unsigned long long>(base.stats.cycles));

    TextTable t;
    t.header({"config", "templates", "coverage", "IPC", "speedup"});
    for (std::size_t col = 1; col < r.columns.size(); ++col) {
        const SweepCell &c = r.at(0, col);
        t.row({r.columns[col], strfmt("%llu",
                                      static_cast<unsigned long long>(
                                          c.templates)),
               fmtPct(c.staticCoverage), fmtDouble(c.stats.ipc(), 3),
               fmtDouble(r.speedup(0, col), 3)});
    }
    printf("%s\n", t.str().c_str());
    std::string outcomes = outcomeSummary(r);
    if (!outcomes.empty())
        printf("%s\n", outcomes.c_str());

    EngineCounters ec = engine.counters();
    printf("engine: %d jobs; profiles %llu computed / %llu reused, "
           "prepares %llu computed / %llu reused\n",
           engine.jobs(),
           static_cast<unsigned long long>(ec.profileComputes),
           static_cast<unsigned long long>(ec.profileHits),
           static_cast<unsigned long long>(ec.prepareComputes),
           static_cast<unsigned long long>(ec.prepareHits));
    return 0;
}
