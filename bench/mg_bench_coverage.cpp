/**
 * @file
 * Figure 5 reproduction: mini-graph coverage.
 *
 *  - top:    application-specific integer mini-graphs
 *  - middle: application-specific integer-memory mini-graphs
 *  - bottom: domain-specific integer-memory mini-graphs (one MGT
 *            shared per suite)
 *
 * Sweeps MGT entries {32,128,512,2048} x max size {2,3,4,8}. Also
 * regenerates the Section 6.1 input-data robustness study (train on
 * input set 1, measure coverage on input set 0).
 *
 * The app-specific tables are untimed engine sweeps (profile + select
 * only); the domain and robustness studies share the same cached
 * profiles. `--jobs N` parallelises everything; the int-mem table is
 * written as BENCH_coverage.json.
 */

#include <cstdio>
#include <map>
#include <string>

#include "cfg/liveness.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "engine/cli.hh"
#include "engine/thread_pool.hh"
#include "sim/report.hh"
#include "workloads/suites.hh"

using namespace mg;

namespace {

constexpr std::uint64_t profBudget = 400000;
const int entrySweep[] = {32, 128, 512, 2048};

/** The (entries, maxSize) combos of the app-specific tables. */
const struct { int entries, maxSize; } comboSweep[] = {
    {32, 4}, {128, 4}, {512, 2}, {512, 3}, {512, 4}, {512, 8},
    {2048, 4},
};

SimConfig
coverageConfig(bool memory, int entries, int maxSize)
{
    SimConfig cfg;                      // default machine, as Figure 5
    cfg.useMiniGraphs = true;
    cfg.policy.allowMemory = memory;
    cfg.policy.maxTemplates = entries;
    cfg.policy.maxSize = maxSize;
    cfg.profileBudget = profBudget;
    return cfg;
}

SweepResult
appSpecific(ExperimentEngine &engine, bool memory, const char *title,
            Scale scale)
{
    SweepSpec spec;
    spec.title = strfmt("Figure 5 %s: application-specific %s "
                        "mini-graphs",
                        memory ? "(middle)" : "(top)", title);
    spec.workloads = suiteWorkloads("all", 0, scale);
    for (const auto &c : comboSweep) {
        spec.columns.push_back({strfmt("%dx%d", c.entries, c.maxSize),
                                coverageConfig(memory, c.entries,
                                               c.maxSize),
                                false});
    }
    SweepResult r = engine.sweep(spec);

    printf("== %s ==\n", spec.title.c_str());
    TextTable t;
    std::vector<std::string> hdr = {"suite", "bench"};
    for (const std::string &c : r.columns)
        hdr.push_back(c);
    t.header(hdr);
    std::size_t meanCol = 0;
    for (std::size_t col = 0; col < r.columns.size(); ++col) {
        if (r.columns[col] == "512x4")
            meanCol = col;
    }
    std::map<std::string, std::vector<double>> suiteCov;
    for (std::size_t row = 0; row < r.rows.size(); ++row) {
        std::vector<std::string> cells = {r.suites[row], r.rows[row]};
        for (std::size_t col = 0; col < r.columns.size(); ++col)
            cells.push_back(fmtPct(r.at(row, col).staticCoverage));
        suiteCov[r.suites[row]].push_back(
            r.at(row, meanCol).staticCoverage);
        t.row(cells);
    }
    t.row(std::vector<std::string>(hdr.size(), ""));
    for (const std::string &suite : suiteNames()) {
        std::vector<std::string> mean(hdr.size(), "");
        mean[0] = suite;
        mean[1] = "mean(512x4)";
        mean[2 + meanCol] = fmtPct(amean(suiteCov[suite]));
        t.row(mean);
    }
    printf("%s\n", t.str().c_str());
    std::string outcomes = outcomeSummary(r);
    if (!outcomes.empty())
        printf("%s\n", outcomes.c_str());
    return r;
}

/** Per-kernel analyses the cross-kernel studies share. */
struct SuiteData
{
    std::vector<BoundKernel> kernels;
    std::vector<std::shared_ptr<const BlockProfile>> profs;
    std::vector<std::unique_ptr<Cfg>> cfgs;
    std::vector<std::unique_ptr<Liveness>> lives;
};

SuiteData
analyzeSuite(ExperimentEngine &engine, const std::string &suite,
             Scale scale)
{
    SuiteData d;
    d.kernels = bindSuite(suite, scale);
    for (const BoundKernel &bk : d.kernels) {
        d.profs.push_back(engine.profile(workload(bk), profBudget));
        d.cfgs.push_back(std::make_unique<Cfg>(*bk.program));
        d.lives.push_back(std::make_unique<Liveness>(*d.cfgs.back()));
    }
    return d;
}

void
domainSpecific(ExperimentEngine &engine, Scale scale)
{
    printf("== Figure 5 (bottom): domain-specific integer-memory "
           "mini-graphs (shared MGT per suite) ==\n");

    const std::vector<std::string> &suites = suiteNames();
    std::vector<SuiteData> data;
    for (const std::string &s : suites)
        data.push_back(analyzeSuite(engine, s, scale));

    // coverage[suite][bench][entries-idx], scattered in parallel over
    // the suite×entries grid, gathered in order below.
    std::vector<std::vector<std::vector<double>>> cov(data.size());
    for (std::size_t s = 0; s < data.size(); ++s)
        cov[s].assign(data[s].kernels.size(),
                      std::vector<double>(4, 0.0));

    ThreadPool::parallelFor(
        engine.jobs(), data.size() * 4, [&](std::size_t i) {
            const SuiteData &d = data[i / 4];
            std::size_t ei = i % 4;
            SelectionPolicy policy;
            policy.maxTemplates = entrySweep[ei];
            policy.maxSize = 4;
            std::vector<const Cfg *> cfgs;
            std::vector<const Liveness *> lives;
            std::vector<const BlockProfile *> profs;
            for (std::size_t b = 0; b < d.kernels.size(); ++b) {
                cfgs.push_back(d.cfgs[b].get());
                lives.push_back(d.lives[b].get());
                profs.push_back(d.profs[b].get());
            }
            auto sels = selectDomainMiniGraphs(cfgs, lives, profs,
                                               policy, MgtMachine{});
            for (std::size_t b = 0; b < d.kernels.size(); ++b)
                cov[i / 4][b][ei] =
                    sels[b].coverage(*d.cfgs[b], *d.profs[b]);
        });

    TextTable t;
    std::vector<std::string> hdr = {"suite", "bench"};
    for (int e : entrySweep)
        hdr.push_back(strfmt("%dx4", e));
    t.header(hdr);
    for (std::size_t s = 0; s < data.size(); ++s) {
        for (std::size_t b = 0; b < data[s].kernels.size(); ++b) {
            std::vector<std::string> row = {
                suites[s], data[s].kernels[b].kernel->name};
            for (std::size_t ei = 0; ei < 4; ++ei)
                row.push_back(fmtPct(cov[s][b][ei]));
            t.row(row);
        }
    }
    printf("%s\n", t.str().c_str());
}

void
robustness(ExperimentEngine &engine, Scale scale)
{
    printf("== Section 6.1: input-data robustness (select on the "
           "alternate input, measure on the reference input) ==\n");

    std::vector<BoundKernel> kernels;
    for (const char *suite : {"SPECint-S", "MiBench-S"}) {
        for (BoundKernel &bk : bindSuite(suite, scale))
            kernels.push_back(std::move(bk));
    }

    struct Row
    {
        double self = 0, cross = 0, rel = 1;
    };
    std::vector<Row> rows(kernels.size());
    ThreadPool::parallelFor(
        engine.jobs(), kernels.size(), [&](std::size_t i) {
            const BoundKernel &bk = kernels[i];
            auto self = engine.profile(workload(bk, 0), profBudget);
            auto cross = engine.profile(workload(bk, 1), profBudget);
            Cfg cfg(*bk.program);
            Liveness live(cfg);
            SelectionPolicy policy;
            policy.maxTemplates = 512;
            Selection selfSel = selectMiniGraphs(cfg, live, *self,
                                                 policy, MgtMachine{});
            // Select with the alternate profile, evaluate against the
            // reference profile.
            Selection crossSel = selectMiniGraphs(cfg, live, *cross,
                                                  policy, MgtMachine{});
            rows[i].self = selfSel.coverage(cfg, *self);
            rows[i].cross = crossSel.coverage(cfg, *self);
            rows[i].rel = rows[i].self > 0
                              ? rows[i].cross / rows[i].self
                              : 1.0;
        });

    TextTable t;
    t.header({"bench", "self-trained", "cross-trained", "relative"});
    std::vector<double> rels;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        rels.push_back(rows[i].rel);
        t.row({kernels[i].kernel->name, fmtPct(rows[i].self),
               fmtPct(rows[i].cross), fmtDouble(rows[i].rel, 3)});
    }
    t.row({"mean", "", "", fmtDouble(amean(rels), 3)});
    printf("%s\n", t.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli = parseCli(argc, argv, {"--robustness"});
    ExperimentEngine engine(cli.jobs);
    cli.configureStore(engine);
    cli.configureFaultTolerance(engine);
    if (!cli.has("--robustness")) {
        appSpecific(engine, false, "integer", cli.scale);
        SweepResult intMem =
            appSpecific(engine, true, "integer-memory", cli.scale);
        domainSpecific(engine, cli.scale);
        // Untimed sweep: no throughput to show, and appSpecific has
        // printed its outcome digest.
        finishSweep(intMem, cli.benchName("coverage"), cli.jsonPath,
                    !cli.noThroughput, false);
    }
    robustness(engine, cli.scale);
    return 0;
}
