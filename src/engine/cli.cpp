#include "engine/cli.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "analysis/critpath.hh"
#include "common/logging.hh"

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
    // strtoull would wrap negatives, accept empty strings and clamp
    // out-of-range values to ULLONG_MAX.
    if (!value || !*value || *value == '-' || *value == '+')
        fatal("bad %s value '%s'", flag, value ? value : "");
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(value, &end, 10);
    if (!end || *end || errno == ERANGE)
        fatal("bad %s value '%s'", flag, value);
    return v;
}

} // namespace

CliOptions
parseCli(int argc, char **argv, const std::vector<std::string> &benchFlags)
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
            std::uint64_t v = parseCount(a.c_str(), next(a, i));
            if (v > static_cast<std::uint64_t>(INT_MAX))
                fatal("bad %s value '%s'", a.c_str(), argv[i]);
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
            if (opt.samplePeriod == 0)
                fatal("--sample-period must be positive");
        } else if (a == "--warmup") {
            opt.sampleWarmup = parseCount("--warmup", next(a, i));
        } else if (a == "--full") {
            opt.full = true;
        } else if (a == "--no-throughput") {
            opt.noThroughput = true;
        } else if (a == "--checkpoint-dir") {
            opt.checkpointDir = next(a, i);
        } else if (a == "--no-checkpoint-store") {
            opt.checkpointStore = false;
        } else if (a == "--cell-timeout-s") {
            const char *v = next(a, i);
            char *end = nullptr;
            double s = std::strtod(v, &end);
            // strtod also takes "inf" and "nan", which no deadline
            // can mean; a finite 1e30 is accepted and never fires.
            if (!end || *end || !std::isfinite(s) || s < 0)
                fatal("bad --cell-timeout-s value '%s'", v);
            opt.cellTimeoutS = s;
        } else if (a == "--critpath") {
            opt.critpath = true;
        } else if (a == "--trace") {
            opt.traceDepth = parseCount("--trace", next(a, i));
            opt.critpath = true;
        } else if (a == "--whatif") {
            opt.whatIf = next(a, i);
            // Check the spec now: a malformed one would otherwise cost
            // a whole traced sweep and fail in every cell.
            std::string err;
            CpParams probe;
            if (!applyWhatIf(probe, opt.whatIf, &err))
                fatal("bad --whatif: %s", err.c_str());
            opt.critpath = true;
        } else {
            // A mistyped flag must not silently run a different sweep:
            // only the bench's own flags and positional arguments pass.
            if (a[0] == '-' && std::find(benchFlags.begin(),
                                         benchFlags.end(),
                                         a) == benchFlags.end())
                fatal("unknown option '%s'", a.c_str());
            opt.rest.push_back(std::move(a));
        }
    }
    // The sampling sub-flags only shape a sampled run; without one
    // they would silently run a full sweep.
    if (!opt.sampleInterval && !opt.full &&
        (opt.samplePeriod || opt.sampleWarmup))
        fatal("--sample-period and --warmup need --sample-interval");
    // The lengths derived from the interval must not wrap: a wrapped
    // period silently degenerates every cell to exact simulation. The
    // bound on interval + warmup + 2 × interval is kept as it was when
    // fast-forward ended in a two-interval tail, so the accepted range
    // did not change.
    if (opt.sampleInterval) {
        std::uint64_t i = opt.sampleInterval;
        std::uint64_t twice = 0, period = 0, duty = 0;
        bool wraps = __builtin_mul_overflow(i, 2, &twice) ||
            (!opt.samplePeriod && __builtin_mul_overflow(i, 12, &period)) ||
            __builtin_add_overflow(i, opt.sampleWarmup.value_or(twice),
                                   &duty) ||
            __builtin_add_overflow(duty, twice, &duty);
        if (wraps)
            fatal("bad --sample-interval/--warmup: the sampling lengths "
                  "derived from them overflow");
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
    sp.warmup = sampleWarmup.value_or(2 * sampleInterval);
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
    engine.setCheckpointStore(
        std::make_shared<CheckpointStore>(std::move(cfg)));
}

void
CliOptions::configureFaultTolerance(ExperimentEngine &engine) const
{
    double s = cellTimeoutS;
    if (s < 0) {
        // Tier-scaled defaults, generous enough that a healthy cell
        // never comes close — the deadline exists to catch hangs, not
        // to race honest work.
        switch (scale) {
          case Scale::Ref: s = 600; break;
          case Scale::Long: s = 3600; break;
          case Scale::Huge: s = 14400; break;
        }
    }
    engine.setCellTimeout(s);
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
