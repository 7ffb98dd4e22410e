/**
 * @file
 * Benchmark harness for the Figure 6 sweep. One process runs one phase
 * of one benchmark workload and writes its measurements as a JSON
 * object; run.py next to this file drives the phases and turns them
 * into metrics (README.md defines every one).
 *
 *   mgperf setup  <sweep flags> --out PATH [--check]
 *       bind + assemble the kernels, construct the engine, open the
 *       store; report how long that took. --check then validates
 *       every kernel's checksum (untimed).
 *   mgperf sweep  <sweep flags> --report PATH --out PATH
 *       setup, then ExperimentEngine::sweep over every kernel x the
 *       standard columns, then the JSON report; tracing off.
 *   mgperf traced <sweep flags> --report PATH --out PATH
 *       the same cells through the engine's public per-layer calls,
 *       each inside a recorded span, then a bare-emulation probe.
 *
 * Sweep flags: --scale ref|long, --seed N (the kernels' input set),
 * --jobs N, --sampled (1000-work intervals, default sampling params),
 * --store DIR (attach the checkpoint store there; sampled only),
 * --critpath (critical-path analysis with the what-if spec
 * robsize=256,l1dlat=3). Without --sampled the sweep runs --full.
 */

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "engine/cli.hh"
#include "engine/fingerprint.hh"
#include "engine/thread_pool.hh"
#include "sim/report.hh"
#include "workloads/suites.hh"

using namespace mg;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Process user+sys CPU seconds and peak RSS (MB) so far. */
struct Usage
{
    double cpuS = 0;
    double peakRssMb = 0;

    static Usage
    now()
    {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        Usage u;
        u.cpuS = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
        u.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        return u;
    }
};

// ------------------------------------------------------------- options

struct Options
{
    std::string mode;
    Scale scale = Scale::Ref;
    int seed = 0;
    int jobs = 2;
    bool sampled = false;
    bool critpath = false;
    bool check = false;
    std::string store;
    std::string report;
    std::string out;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "mgperf: %s\n", why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    if (argc < 2)
        usage("expected a mode: setup | sweep | traced");
    Options o;
    o.mode = argv[1];
    if (o.mode != "setup" && o.mode != "sweep" && o.mode != "traced")
        usage("unknown mode");
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("flag without a value");
            return argv[++i];
        };
        if (a == "--scale") {
            o.scale = parseScale(value());
        } else if (a == "--seed") {
            long v = std::strtol(value().c_str(), nullptr, 10);
            if (v < 0 || v > 0x7fffffffL)
                usage("--seed must be in [0, 2^31)");
            o.seed = static_cast<int>(v);
        } else if (a == "--jobs") {
            o.jobs = std::atoi(value().c_str());
        } else if (a == "--sampled") {
            o.sampled = true;
        } else if (a == "--critpath") {
            o.critpath = true;
        } else if (a == "--check") {
            o.check = true;
        } else if (a == "--store") {
            o.store = value();
        } else if (a == "--report") {
            o.report = value();
        } else if (a == "--out") {
            o.out = value();
        } else {
            usage(("unknown flag " + a).c_str());
        }
    }
    if (o.out.empty())
        usage("--out is required");
    if (o.mode != "setup" && o.report.empty())
        usage("--report is required");
    return o;
}

/** The command line a user would give mg_bench_performance for this
 *  sweep, as parsed options (journal off: runs must be hermetic). */
CliOptions
cliFor(const Options &o)
{
    CliOptions cli;
    cli.jobs = o.jobs;
    cli.scale = o.scale;
    cli.journal = false;
    cli.noThroughput = true;   // byte-comparable report
    if (o.sampled)
        cli.sampleInterval = 1000;
    else
        cli.full = true;
    if (o.store.empty())
        cli.checkpointStore = false;
    else
        cli.checkpointDir = o.store;
    if (o.critpath) {
        cli.critpath = true;
        cli.whatIf = "robsize=256,l1dlat=3";
    }
    return cli;
}

// ---------------------------------------------------------------- setup

struct Bench
{
    CliOptions cli;
    std::unique_ptr<ExperimentEngine> engine;
    SweepSpec spec;
    double bindS = 0;
    double storeOpenS = 0;
    double setupS = 0;
};

/** Everything a sweep needs before its first cell: the timed set-up. */
Bench
setUp(const Options &o)
{
    Bench b;
    b.cli = cliFor(o);
    auto t0 = Clock::now();
    b.spec.title = "Figure 6: mini-graph speedup over the 6-wide baseline";
    b.spec.workloads = suiteWorkloads("all", o.seed, b.cli.scale);
    auto t1 = Clock::now();
    b.engine = std::make_unique<ExperimentEngine>(b.cli.jobs);
    auto t2 = Clock::now();
    b.cli.configureStore(*b.engine);
    auto t3 = Clock::now();
    b.cli.configureFaultTolerance(*b.engine);
    b.spec.columns = standardColumns();
    b.spec.baselineColumn = 0;
    b.cli.applySampling(b.spec);
    b.cli.applyAnalysis(b.spec);
    auto t4 = Clock::now();
    b.bindS = secondsBetween(t0, t1);
    b.storeOpenS = secondsBetween(t2, t3);
    b.setupS = secondsBetween(t0, t4);
    return b;
}

// ----------------------------------------------------------------- json

/** Minimal JSON text builder (objects, arrays, scalars). */
class Json
{
  public:
    Json &
    key(const char *k)
    {
        comma();
        quote(k);
        text_ += ':';
        fresh_ = true;
        return *this;
    }

    Json &
    open(char c)
    {
        comma();
        text_ += c;
        fresh_ = true;
        return *this;
    }

    Json &
    close(char c)
    {
        text_ += c;
        fresh_ = false;
        return *this;
    }

    Json &
    num(double v)
    {
        comma();
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        text_ += buf;
        return *this;
    }

    Json &
    num(std::uint64_t v)
    {
        comma();
        text_ += std::to_string(v);
        return *this;
    }

    Json &
    boolean(bool v)
    {
        comma();
        text_ += v ? "true" : "false";
        return *this;
    }

    Json &
    str(const std::string &s)
    {
        comma();
        quote(s);
        return *this;
    }

    template <typename T>
    Json &
    field(const char *k, const T &v)
    {
        key(k);
        if constexpr (std::is_same_v<T, bool>)
            return boolean(v);
        else if constexpr (std::is_floating_point_v<T>)
            return num(static_cast<double>(v));
        else if constexpr (std::is_integral_v<T>)
            return num(static_cast<std::uint64_t>(v));
        else
            return str(v);
    }

    const std::string &text() const { return text_; }

  private:
    void
    quote(const std::string &s)
    {
        text_ += '"';
        for (char c : s) {
            if (c == '"' || c == '\\') {
                text_ += '\\';
                text_ += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                text_ += ' ';
            } else {
                text_ += c;
            }
        }
        text_ += '"';
    }

    void
    comma()
    {
        if (!fresh_ && !text_.empty())
            text_ += ',';
        fresh_ = false;
    }

    std::string text_;
    bool fresh_ = true;
};

void
writeFile(const std::string &path, const std::string &text)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f || std::fwrite(text.data(), 1, text.size(), f) != text.size() ||
        std::fclose(f) != 0) {
        std::fprintf(stderr, "mgperf: cannot write %s\n", path.c_str());
        std::exit(1);
    }
}

// -------------------------------------------------------------- digests

struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        h = fnv1a64(&v, sizeof v, h);
    }

    void
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
};

/** Hash of every simulated result a cell carries. Wall-clock fields and
 *  the store's restore/writeback counts are left out: they describe
 *  how the result was reached, and a store must never change it. */
std::string
cellDigest(const SweepCell &c)
{
    Digest d;
#define MG_D(f) d.add(static_cast<std::uint64_t>(c.stats.f));
    MG_CORE_STATS_COUNTERS(MG_D)
#undef MG_D
    d.add(c.staticCoverage);
    d.add(c.templates);
    d.add(c.textSlots);
    if (c.sampledRun) {
        const SampledStats &s = c.sampled;
        for (std::uint64_t v :
             {s.totalWork, s.prefixWork, s.measuredWork, s.measuredCycles,
              s.detailedWork, s.ffWork, std::uint64_t{s.intervals},
              std::uint64_t{s.exact}, std::uint64_t{s.footprintWarning},
              s.footprintSkippedLines})
            d.add(v);
        d.add(s.ipcHat);
        d.add(s.ipcRelCi95);
    }
    if (c.critpath.present) {
        const CritPathSummary &p = c.critpath;
        for (std::uint64_t v :
             {p.tracedSlots, p.tracedWork, std::uint64_t{p.traceWrapped},
              p.actualCycles, p.modeledCycles, p.whatIfCycles})
            d.add(v);
        for (std::uint64_t v : p.breakdown)
            d.add(v);
        d.h = fnv1a64(p.error.data(), p.error.size(), d.h);
    }
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, d.h);
    return buf;
}

void
emitCells(Json &j, const SweepResult &r)
{
    std::size_t cols = r.columns.size();
    j.key("cells").open('[');
    for (std::size_t i = 0; i < r.cells.size(); ++i) {
        const SweepCell &c = r.cells[i];
        j.open('{');
        j.field("kernel", r.rows[i / cols]);
        j.field("config", r.columns[i % cols]);
        j.field("outcome", std::string(cellOutcomeName(c.outcome)));
        j.field("error", c.error);
        j.field("digest", cellDigest(c));
        j.field("work", c.stats.committedWork);
        j.field("cycles", c.stats.cycles);
        j.field("dmiss", c.stats.dcacheMisses);
        j.field("imiss", c.stats.icacheMisses);
        j.field("wall_s", c.wallSeconds);
        if (c.sampledRun) {
            const SampledStats &s = c.sampled;
            j.key("sampled").open('{');
            j.field("total_work", s.totalWork);
            j.field("detailed_work", s.detailedWork);
            j.field("ff_work", s.ffWork);
            j.field("intervals", s.intervals);
            j.field("ci95", s.ipcRelCi95);
            j.field("exact", s.exact);
            j.field("restores", s.ckptRestores);
            j.field("writebacks", s.ckptWritebacks);
            j.close('}');
        }
        if (c.critpath.present) {
            const CritPathSummary &p = c.critpath;
            std::uint64_t sum = 0;
            for (std::uint64_t v : p.breakdown)
                sum += v;
            j.key("critpath").open('{');
            j.field("actual", p.actualCycles);
            j.field("modeled", p.modeledCycles);
            j.field("breakdown_sum", sum);
            j.field("traced_work", p.tracedWork);
            j.field("whatif", p.whatIfCycles);
            j.field("error", p.error);
            j.close('}');
        }
        j.close('}');
    }
    j.close(']');
}

void
emitSetup(Json &j, const Bench &b)
{
    j.field("setup_s", b.setupS);
    j.field("bind_s", b.bindS);
    j.field("store_open_s", b.storeOpenS);
    j.field("jobs", b.engine->jobs());
}

void
emitCounters(Json &j, const EngineCounters &c)
{
    j.key("counters").open('{');
    j.field("profile_computes", c.profileComputes);
    j.field("profile_hits", c.profileHits);
    j.field("prepare_computes", c.prepareComputes);
    j.field("prepare_hits", c.prepareHits);
    j.field("run_computes", c.runComputes);
    j.field("run_hits", c.runHits);
    j.field("summary_computes", c.summaryComputes);
    j.field("summary_hits", c.summaryHits);
    j.field("sampled_computes", c.sampledComputes);
    j.field("sampled_hits", c.sampledHits);
    j.close('}');
}

/** Emulate every kernel at the run's input set and validate its
 *  checksum against the C++ reference (checkKernel without the exit). */
void
emitKernelChecks(Json &j, const Options &o)
{
    j.key("kernels").open('[');
    for (const BoundKernel &bk : bindAll(o.scale)) {
        Emulator emu(*bk.program);
        bk.kernel->setupAt(emu, o.seed, bk.scale);
        EmuResult r = emu.run(100000000ull);
        bool ok = r.stop == StopReason::Halted &&
            bk.kernel->validateAt(emu, o.seed, bk.scale);
        std::string id = workload(bk, o.seed).id;
        j.open('{').field("kernel", id).field("ok", ok).close('}');
    }
    j.close(']');
}

// ---------------------------------------------------------------- modes

int
runSetup(const Options &o)
{
    Bench b = setUp(o);
    Json j;
    j.open('{');
    emitSetup(j, b);
    if (o.check)
        emitKernelChecks(j, o);
    j.close('}');
    writeFile(o.out, j.text());
    return 0;
}

int
runSweep(const Options &o)
{
    Bench b = setUp(o);
    Usage u0 = Usage::now();
    auto t0 = Clock::now();
    SweepResult r = b.engine->sweep(b.spec);
    b.cli.applyReporting(r);
    auto tr = Clock::now();
    std::string wrote =
        writeSweepJson(r, b.cli.benchName("performance"), o.report);
    auto t1 = Clock::now();
    Usage u1 = Usage::now();

    Json j;
    j.open('{');
    emitSetup(j, b);
    j.field("sweep_s", secondsBetween(t0, t1));
    j.field("report_s", secondsBetween(tr, t1));
    j.field("report_ok", !wrote.empty());
    j.field("cpu_s", u1.cpuS - u0.cpuS);
    j.field("peak_rss_mb", u1.peakRssMb);
    emitCounters(j, b.engine->counters());
    j.key("store").open('{');
    j.field("attached", r.storeAttached);
    j.field("hits", r.storeHits);
    j.field("misses", r.storeMisses);
    j.field("writebacks", r.storeWritebacks);
    j.field("corrupt", r.storeCorrupt);
    j.close('}');
    emitCells(j, r);
    j.close('}');
    writeFile(o.out, j.text());
    return 0;
}

// --------------------------------------------------------------- traced

/** One recorded interval: a call into a layer from the traced run. */
struct Span
{
    const char *name;
    int thread;
    int cell;        ///< sweep cell index, -1 outside cells
    int parent;      ///< enclosing span index, -1 at top level
    bool computed;   ///< first call for its artifact key in this run
    double t0 = 0;
    double t1 = 0;
};

/** In-memory span recorder; spans are written out when the run ends. */
class Tracer
{
  public:
    int
    begin(const char *name, int cell, bool computed)
    {
        double t = now();
        std::lock_guard<std::mutex> g(mu_);
        if (thread_ < 0)
            thread_ = nextThread_++;
        spans_.push_back({name, thread_, cell, parent_, computed, t, t});
        int id = static_cast<int>(spans_.size() - 1);
        parent_ = id;
        return id;
    }

    void
    end(int id)
    {
        double t = now();
        std::lock_guard<std::mutex> g(mu_);
        spans_[static_cast<std::size_t>(id)].t1 = t;
        parent_ = spans_[static_cast<std::size_t>(id)].parent;
    }

    /** True for the first caller of @p key (that call computes the
     *  artifact; later ones hit the engine's cache or wait on it). */
    bool
    claim(const std::string &key)
    {
        std::lock_guard<std::mutex> g(mu_);
        return claimed_.insert(key).second;
    }

    double
    now() const
    {
        return secondsBetween(origin_, Clock::now());
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point origin_ = Clock::now();
    std::mutex mu_;
    std::vector<Span> spans_;
    std::set<std::string> claimed_;
    int nextThread_ = 0;
    static thread_local int thread_;
    static thread_local int parent_;
};

thread_local int Tracer::thread_ = -1;
thread_local int Tracer::parent_ = -1;

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, int cell, bool computed = true)
        : t_(t), id_(t.begin(name, cell, computed))
    {
    }

    ~Scope() { t_.end(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/** Timing decorator around the engine's store client: every store read
 *  and write becomes a span under the sampled run that issued it. */
class TimedClient : public CellCheckpointClient
{
  public:
    TimedClient(std::unique_ptr<CellCheckpointClient> inner, Tracer &t,
                int cell)
        : inner_(std::move(inner)), t_(t), cell_(cell)
    {
    }

    bool
    loadWarm(std::uint64_t pos, std::uint64_t seedHash,
             std::vector<std::uint8_t> &bytes) override
    {
        Scope s(t_, "store.load", cell_);
        return inner_->loadWarm(pos, seedHash, bytes);
    }

    void
    storeWarm(std::uint64_t pos, std::uint64_t seedHash,
              const std::vector<std::uint8_t> &bytes) override
    {
        Scope s(t_, "store.write", cell_);
        inner_->storeWarm(pos, seedHash, bytes);
    }

    bool
    loadViolPairs(std::vector<std::pair<Addr, Addr>> &out) override
    {
        Scope s(t_, "store.load", cell_);
        return inner_->loadViolPairs(out);
    }

    void
    storeViolPairs(const std::vector<std::pair<Addr, Addr>> &pairs) override
    {
        Scope s(t_, "store.write", cell_);
        inner_->storeViolPairs(pairs);
    }

  private:
    std::unique_ptr<CellCheckpointClient> inner_;
    Tracer &t_;
    int cell_;
};

/**
 * One cell through the engine's public calls, in the order the sweep
 * needs them: profile, prepare, summary, the timing run, then the
 * critical-path traced run. Sampled cells call runCellSampled here,
 * with the engine's cell key and salt rule, so store traffic can be
 * timed; their stats must equal the untraced sweep's.
 */
SweepCell
tracedCell(Bench &b, Tracer &tr, std::size_t i)
{
    std::size_t cols = b.spec.columns.size();
    const EngineWorkload &w = b.spec.workloads[i / cols];
    const SimConfig &cfg = b.spec.columns[i % cols].config;
    ExperimentEngine &eng = *b.engine;
    int cell = static_cast<int>(i);
    Scope cellSpan(tr, "cell", cell);
    SweepCell out;
    try {
        std::shared_ptr<const PreparedMg> prep;
        std::string profKey = profileFingerprint(w.id, cfg.profileBudget);
        std::string prepKey = prepareFingerprint(profKey, cfg.policy,
                                                 cfg.machine, cfg.compress);
        if (cfg.useMiniGraphs) {
            {
                Scope s(tr, "cfg.profile", cell, tr.claim("p|" + profKey));
                eng.profile(w, cfg.profileBudget);
            }
            {
                Scope s(tr, "mg.prepare", cell, tr.claim("m|" + prepKey));
                prep = eng.prepare(w, cfg);
            }
            out.staticCoverage = prep->staticCoverage;
            out.templates = prep->table.size();
            out.textSlots = prep->program.text.size();
        } else {
            out.textSlots = w.program->text.size();
        }
        std::string key = cellFingerprint(w.id, cfg);
        if (cfg.sampling.enabled) {
            std::string variant = w.id;
            if (cfg.useMiniGraphs)
                variant += "|" + prepKey;
            std::shared_ptr<const SampleSummary> sum;
            {
                Scope s(tr, "emu.summary", cell,
                        tr.claim("s|" + summaryFingerprint(
                                            variant, cfg.sampling,
                                            cfg.runBudget)));
                sum = eng.summary(w, cfg);
            }
            const std::shared_ptr<CheckpointStore> &store =
                eng.checkpointStore();
            std::unique_ptr<CellCheckpointClient> client;
            if (store && store->enabled() && cfg.sampling.warmThrough &&
                !cfg.sampling.degenerate()) {
                client = std::make_unique<TimedClient>(
                    makeCellClient(*store, key), tr, cell);
            }
            SimConfig run = cfg;
            std::uint64_t salt = fnv1a64(key.data(), key.size());
            run.sampling.phaseSalt = salt ? salt : 1;
            auto t0 = Clock::now();
            {
                Scope s(tr, "uarch.sampled", cell, tr.claim("c|" + key));
                out.sampled = runCellSampled(*w.program, prep.get(), run,
                                             w.setup, *sum, client.get());
            }
            out.wallSeconds = secondsBetween(t0, Clock::now());
            out.stats = out.sampled.est;
            out.sampledRun = true;
        } else {
            Scope s(tr, "uarch.run", cell, tr.claim("c|" + key));
            TimedStats ts = eng.cellTimed(w, cfg);
            out.stats = ts.stats;
            out.wallSeconds = ts.seconds;
        }
        out.timed = true;
        if (out.wallSeconds > 0) {
            out.workPerSec = static_cast<double>(out.stats.committedWork) /
                out.wallSeconds;
        }
        if (cfg.critpath) {
            Scope s(tr, "analysis.traced", cell);
            out.critpath = runCellTraced(*w.program, prep.get(), cfg,
                                         w.setup);
        }
    } catch (const std::exception &e) {
        out.outcome = CellOutcome::Failed;
        out.error = e.what();
    }
    return out;
}

/** Bare functional emulation (Emulator::run) over every distinct
 *  binary the sweep executed: the functional layer's raw speed. */
void
emitEmuProbe(Json &j, Bench &b)
{
    std::uint64_t work = 0;
    double seconds = 0;
    for (const EngineWorkload &w : b.spec.workloads) {
        std::set<const Program *> seen;
        for (const SweepColumn &col : b.spec.columns) {
            const Program *prog = w.program;
            const MgTable *mgt = nullptr;
            std::shared_ptr<const PreparedMg> prep;
            if (col.config.useMiniGraphs) {
                prep = b.engine->prepare(w, col.config);
                prog = &prep->program;
                mgt = &prep->table;
            }
            if (!seen.insert(prog).second)
                continue;
            Emulator emu(*prog, mgt);
            w.setup(emu);
            auto t0 = Clock::now();
            EmuResult r = emu.run();
            seconds += secondsBetween(t0, Clock::now());
            work += r.dynWork;
        }
    }
    j.key("emu_probe").open('{');
    j.field("work", work);
    j.field("seconds", seconds);
    j.close('}');
}

int
runTraced(const Options &o)
{
    Bench b = setUp(o);
    Tracer tr;
    std::size_t cols = b.spec.columns.size();

    SweepResult r;
    r.title = b.spec.title;
    r.baselineColumn = b.spec.baselineColumn;
    for (const EngineWorkload &w : b.spec.workloads) {
        r.rows.push_back(w.id);
        r.suites.push_back(w.suite);
    }
    for (const SweepColumn &c : b.spec.columns)
        r.columns.push_back(c.name);
    r.cells.resize(b.spec.workloads.size() * cols);

    double w0 = tr.now();
    ThreadPool::parallelFor(b.engine->jobs(), r.cells.size(),
                            [&](std::size_t i) {
                                r.cells[i] = tracedCell(b, tr, i);
                            });
    b.cli.applyReporting(r);
    std::string wrote;
    {
        Scope s(tr, "sim.report", -1);
        wrote = writeSweepJson(r, b.cli.benchName("performance"), o.report);
    }
    double w1 = tr.now();

    Json j;
    j.open('{');
    emitSetup(j, b);
    j.field("wall_s", w1 - w0);
    j.field("report_ok", !wrote.empty());
    emitCounters(j, b.engine->counters());
    j.key("spans").open('[');
    for (const Span &s : tr.spans()) {
        j.open('{');
        j.field("name", std::string(s.name));
        j.field("thread", s.thread);
        j.key("cell").num(static_cast<double>(s.cell));
        j.key("parent").num(static_cast<double>(s.parent));
        j.field("computed", s.computed);
        j.field("t0", s.t0 - w0);
        j.field("t1", s.t1 - w0);
        j.close('}');
    }
    j.close(']');
    emitCells(j, r);
    emitEmuProbe(j, b);
    j.close('}');
    writeFile(o.out, j.text());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Hermetic runs: no store, journal or fault injection may leak in
    // from the environment.
    for (const char *var :
         {"MG_CHECKPOINT_DIR", "MG_JOURNAL_DIR", "MG_FAULT_SPEC"})
        unsetenv(var);
    Options o = parseOptions(argc, argv);
    if (o.mode == "setup")
        return runSetup(o);
    if (o.mode == "sweep")
        return runSweep(o);
    return runTraced(o);
}
