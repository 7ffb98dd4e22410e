#include "engine/cli.hh"

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/logging.hh"
#include "engine/fault_inject.hh"

namespace mg {

bool
CliOptions::has(const std::string &flag) const
{
    for (const std::string &a : rest) {
        if (a == flag)
            return true;
    }
    return false;
}

std::string
CliOptions::benchName(const std::string &base) const
{
    return scale == Scale::Ref ? base
                               : base + "_" + scaleName(scale);
}

namespace {

std::uint64_t
parseCount(const char *flag, const char *value)
{
    // strtoull would wrap negatives and accept empty strings.
    if (!value || !*value || *value == '-' || *value == '+')
        fatal("bad %s value '%s'", flag, value ? value : "");
    char *end = nullptr;
    unsigned long long v = std::strtoull(value, &end, 10);
    if (!end || *end)
        fatal("bad %s value '%s'", flag, value);
    return v;
}

} // namespace

CliOptions
parseCli(int argc, char **argv)
{
    CliOptions opt;
    auto next = [&](const std::string &flag, int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("%s requires a value", flag.c_str());
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--jobs" || a == "-j") {
            char *end = nullptr;
            long v = std::strtol(next(a, i), &end, 10);
            if (!end || *end || v < 0)
                fatal("bad job count '%s'", argv[i]);
            opt.jobs = static_cast<int>(v);
        } else if (a == "--json") {
            opt.jsonPath = next(a, i);
        } else if (a == "--scale") {
            opt.scale = parseScale(next(a, i));
        } else if (a == "--list-kernels") {
            fputs(kernelListing().c_str(), stdout);
            // NOLINTNEXTLINE(concurrency-mt-unsafe): CLI parse runs
            // single-threaded, before any worker exists
            exit(0);
        } else if (a == "--sample-interval") {
            opt.sampleInterval = parseCount("--sample-interval",
                                            next(a, i));
            if (opt.sampleInterval == 0)
                fatal("--sample-interval must be positive");
        } else if (a == "--sample-period") {
            opt.samplePeriod = parseCount("--sample-period", next(a, i));
        } else if (a == "--warmup") {
            opt.sampleWarmup = parseCount("--warmup", next(a, i));
        } else if (a == "--no-ss-shadow") {
            opt.ssShadow = false;
        } else if (a == "--full") {
            opt.full = true;
        } else if (a == "--no-throughput") {
            opt.noThroughput = true;
        } else if (a == "--checkpoint-dir") {
            opt.checkpointDir = next(a, i);
        } else if (a == "--no-checkpoint-store") {
            opt.checkpointStore = false;
        } else if (a == "--checkpoint-cap-mb") {
            opt.checkpointCapMb = parseCount("--checkpoint-cap-mb",
                                             next(a, i));
            if (opt.checkpointCapMb == 0)
                fatal("--checkpoint-cap-mb must be positive");
        } else if (a == "--cell-timeout-s") {
            const char *v = next(a, i);
            char *end = nullptr;
            double s = std::strtod(v, &end);
            if (!end || *end || s < 0)
                fatal("bad --cell-timeout-s value '%s'", v);
            opt.cellTimeoutS = s;
        } else if (a == "--journal-dir") {
            opt.journalDirOpt = next(a, i);
        } else if (a == "--no-journal") {
            opt.journal = false;
        } else if (a == "--fault-inject") {
            opt.faultSpec = next(a, i);
        } else if (a == "--dry-run") {
            opt.dryRun = true;
        } else if (a == "--critpath") {
            opt.critpath = true;
        } else if (a == "--trace") {
            opt.traceDepth = parseCount("--trace", next(a, i));
            opt.critpath = true;
        } else if (a == "--whatif") {
            opt.whatIf = next(a, i);
            if (opt.whatIf.empty())
                fatal("--whatif requires a key=val spec");
            opt.critpath = true;
        } else {
            opt.rest.push_back(std::move(a));
        }
    }
    // Sampled cells never trace: a critical-path breakdown needs every
    // cycle simulated.
    if (opt.critpath && opt.samplingParams().enabled)
        fatal("--critpath, --trace and --whatif need full simulation; "
              "drop --sample-interval or add --full");
    return opt;
}

SamplingParams
CliOptions::samplingParams() const
{
    SamplingParams sp;
    if (full || sampleInterval == 0)
        return sp;   // disabled: full cycle-accurate simulation
    sp.enabled = true;
    sp.interval = sampleInterval;
    sp.period = samplePeriod ? samplePeriod : 12 * sampleInterval;
    sp.warmup = sampleWarmup != ~0ull ? sampleWarmup
                                      : 2 * sampleInterval;
    sp.ffWarm = 2 * sampleInterval;
    sp.ssShadow = ssShadow;
    return sp;
}

void
CliOptions::configureStore(ExperimentEngine &engine) const
{
    SamplingParams sp = samplingParams();
    if (!checkpointStore || !sp.enabled)
        return;
    CheckpointStoreConfig cfg;
    cfg.dir = checkpointDir;
    if (cfg.dir.empty()) {
        // NOLINTNEXTLINE(concurrency-mt-unsafe): read at startup only
        const char *env = std::getenv("MG_CHECKPOINT_DIR");
        cfg.dir = env && *env ? env : ".mg-cache/checkpoints";
    }
    if (checkpointCapMb)
        cfg.capBytes = checkpointCapMb << 20;
    engine.setCheckpointStore(
        std::make_shared<CheckpointStore>(std::move(cfg)));
}

std::string
CliOptions::journalDir() const
{
    if (!journal)
        return "";
    if (!journalDirOpt.empty())
        return journalDirOpt;
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read at startup only
    const char *env = std::getenv("MG_JOURNAL_DIR");
    return env && *env ? env : "";
}

void
CliOptions::configureFaultTolerance(ExperimentEngine &engine) const
{
    FaultPolicy p;
    if (cellTimeoutS >= 0) {
        p.cellTimeoutS = cellTimeoutS;
    } else {
        // Tier-scaled defaults, generous enough that a healthy cell
        // never comes close — the deadline exists to catch hangs, not
        // to race honest work.
        switch (scale) {
          case Scale::Ref: p.cellTimeoutS = 600; break;
          case Scale::Long: p.cellTimeoutS = 3600; break;
          case Scale::Huge: p.cellTimeoutS = 14400; break;
        }
    }
    engine.setFaultPolicy(p);

    engine.setJournalDir(journalDir());
    engine.setDryRun(dryRun);

    std::string spec = faultSpec;
    if (spec.empty()) {
        // NOLINTNEXTLINE(concurrency-mt-unsafe): read at startup only
        const char *env = std::getenv("MG_FAULT_SPEC");
        if (env)
            spec = env;
    }
    if (!spec.empty())
        FaultInjector::global().configure(spec);
}

void
CliOptions::applySampling(SweepSpec &spec) const
{
    SamplingParams sp = samplingParams();
    if (!sp.enabled)
        return;
    for (SweepColumn &col : spec.columns) {
        if (col.timing)
            col.config.sampling = sp;
    }
}

void
CliOptions::applyAnalysis(SweepSpec &spec) const
{
    if (!critpath)
        return;
    for (SweepColumn &col : spec.columns) {
        if (col.timing) {
            col.config.critpath = true;
            col.config.traceDepth = traceDepth;
            col.config.whatIf = whatIf;
        }
    }
}

} // namespace mg
