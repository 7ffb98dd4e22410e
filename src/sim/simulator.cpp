#include "sim/simulator.hh"

#include <array>
#include <cmath>
#include <memory>

#include "cfg/liveness.hh"
#include "common/failsoft.hh"
#include "common/rng.hh"

namespace mg {

BlockProfile
collectProfile(const Program &prog, const SetupFn &setup,
               std::uint64_t budget)
{
    Emulator emu(prog);
    if (setup)
        setup(emu);
    EmuResult r = emu.run(budget);
    return r.profile;
}

PreparedMg
prepareMiniGraphs(const Program &prog, const BlockProfile &prof,
                  const SelectionPolicy &policy, const MgtMachine &machine,
                  bool compress)
{
    Cfg cfg(prog);
    Liveness live(cfg);
    Selection sel = selectMiniGraphs(cfg, live, prof, policy, machine);

    PreparedMg out;
    out.staticCoverage = sel.coverage(cfg, prof);
    if (compress) {
        RewriteResult rr = rewriteCompress(prog, sel, machine);
        out.program = std::move(rr.program);
        out.table = std::move(rr.table);
    } else {
        out.program = rewriteNopPad(prog, sel);
        out.table = sel.table;
    }
    out.selection = std::move(sel);
    return out;
}

CoreStats
runCore(const Program &prog, const MgTable *mgt, const CoreConfig &coreCfg,
        const SetupFn &setup, std::uint64_t maxWork,
        const std::atomic<bool> *cancel)
{
    Core core(prog, mgt, coreCfg);
    core.setCancel(cancel);
    if (setup)
        setup(core.oracle());
    return core.run(maxWork);
}

CoreStats
runCell(const Program &prog, const PreparedMg *prep, const SimConfig &cfg,
        const SetupFn &setup, const std::atomic<bool> *cancel,
        CritPathSummary *critpath)
{
    const Program *p = &prog;
    const MgTable *mgt = nullptr;
    if (cfg.useMiniGraphs) {
        p = &prep->program;
        mgt = &prep->table;
    }
    if (!cfg.critpath || !critpath)
        return runCore(*p, mgt, cfg.core, setup, cfg.runBudget, cancel);
    Core core(*p, mgt, cfg.core);
    core.setCancel(cancel);
    TraceBuffer trace(cfg.traceDepth
                          ? static_cast<std::size_t>(cfg.traceDepth)
                          : TraceBuffer::defaultCapacity);
    core.setTrace(&trace);
    if (setup)
        setup(core.oracle());
    CoreStats stats = core.run(cfg.runBudget);
    *critpath = analyzeCritPath(trace, cfg.core, cfg.whatIf);
    return stats;
}

CritPathSummary
runCellTraced(const Program &prog, const PreparedMg *prep,
              const SimConfig &cfg, const SetupFn &setup,
              const std::atomic<bool> *cancel)
{
    CritPathSummary s;
    runCell(prog, prep, cfg, setup, cancel, &s);
    return s;
}

namespace {

/** Normalized-L1 distance between two chunk signatures. */
double
sigDistance(const std::array<double, sampleSigDims> &a,
            const std::array<double, sampleSigDims> &b)
{
    double d = 0;
    for (int i = 0; i < sampleSigDims; ++i)
        d += std::abs(a[i] - b[i]);
    return d;
}

} // namespace

SampleSummary
collectSampleSummary(const Program &prog, const MgTable *mgt,
                     const SetupFn &setup, const SamplingParams &sp,
                     std::uint64_t maxWork,
                     const std::atomic<bool> *cancel)
{
    Emulator emu(prog, mgt);
    if (setup)
        setup(emu);

    // The functional pre-pass can dominate a huge-tier cell's wall
    // clock, so it honors the same cooperative deadline as the timing
    // loops (one counter bump per instruction, an atomic load every
    // 4096).
    std::uint64_t pollCtr = 0;
    auto pollCancel = [&] {
        if (cancel && (++pollCtr & 4095) == 0 &&
            cancel->load(std::memory_order_relaxed))
            throw CellTimeout("cell deadline exceeded (functional "
                              "pre-pass cancelled by watchdog)");
    };

    SampleSummary sum;
    if (sp.degenerate()) {
        while (!emu.halted() && emu.dynWork() < maxWork) {
            pollCancel();
            if (!emu.step())
                break;
        }
        sum.totalWork = emu.dynWork();
        sum.totalSlots = emu.dynInsns();
        return sum;
    }

    // Deterministic per-instruction signature bucket (the PC-histogram
    // sketch phase clustering runs on).
    std::vector<std::uint8_t> bucket(prog.text.size());
    for (std::size_t i = 0; i < bucket.size(); ++i)
        bucket[i] = static_cast<std::uint8_t>(
            Rng(0x5151u ^ static_cast<std::uint64_t>(i)).next() %
            sampleSigDims);

    const std::uint64_t period = sp.period;
    std::vector<std::array<double, sampleSigDims>> leaders;
    std::array<std::uint64_t, sampleSigDims> sig{};
    std::uint64_t sigSlots = 0;
    std::uint64_t chunkIdx = 0;
    std::uint64_t chunkStart = 0;

    auto finishChunk = [&](std::uint64_t endWork) {
        std::array<double, sampleSigDims> norm{};
        if (sigSlots) {
            for (int i = 0; i < sampleSigDims; ++i)
                norm[i] = static_cast<double>(sig[i]) /
                    static_cast<double>(sigSlots);
        }
        std::uint32_t cid = 0;
        bool found = false;
        for (std::size_t c = 0; c < leaders.size(); ++c) {
            if (sigDistance(norm, leaders[c]) < sampleClusterTheta) {
                cid = static_cast<std::uint32_t>(c);
                found = true;
                break;
            }
        }
        if (!found) {
            cid = static_cast<std::uint32_t>(leaders.size());
            leaders.push_back(norm);
        }
        sum.chunks.push_back({chunkStart, endWork - chunkStart, cid});
        sig.fill(0);
        sigSlots = 0;
        ++chunkIdx;
        chunkStart = endWork;
    };

    ExecRecord rec;
    while (!emu.halted() && emu.dynWork() < maxWork) {
        pollCancel();
        std::uint64_t w = emu.dynWork();
        while (w >= (chunkIdx + 1) * period)
            finishChunk((chunkIdx + 1) * period);
        if (!emu.step(&rec))
            break;
        if (rec.insn && prog.validPc(rec.pc)) {
            sig[bucket[prog.indexOf(rec.pc)]] +=
                emu.dynWork() - w;
            sigSlots += emu.dynWork() - w;
        }
    }
    if (emu.dynWork() > chunkStart)
        finishChunk(emu.dynWork());
    sum.totalWork = emu.dynWork();
    sum.totalSlots = emu.dynInsns();
    sum.clusters = static_cast<std::uint32_t>(leaders.size());
    return sum;
}

SampledStats
runCellSampled(const Program &prog, const PreparedMg *prep,
               const SimConfig &cfg, const SetupFn &setup,
               const SampleSummary &sum, CellCheckpointClient *store,
               const std::atomic<bool> *cancel)
{
    const Program &p = prep ? prep->program : prog;
    const MgTable *mgt = prep ? &prep->table : nullptr;
    const SamplingParams &sp = cfg.sampling;
    auto freshCore = [&]() {
        auto core = std::make_unique<Core>(p, mgt, cfg.core);
        core->setCancel(cancel);
        if (setup)
            setup(core->oracle());
        return core;
    };

    // Degenerate parameters run exactly and have no fast-forward gaps
    // to serve or seed.
    if (sp.degenerate())
        return freshCore()->runSampled(sp, sum, cfg.runBudget);

    // Violation-pair seed: the store memoizes the discovery pass's
    // output, written once per cell and never updated, so a session
    // that loads it seeds exactly the pairs a storeless run discovers.
    std::vector<std::pair<Addr, Addr>> pairs;
    bool havePairs = sp.ssShadow && store && store->loadViolPairs(pairs);
    if (!havePairs) {
        // Discovery pass: the unseeded trajectory (seed generation
        // h(empty)), restoring and writing back under that
        // generation's keys.
        auto core = freshCore();
        SampledStats discovery =
            core->runSampled(sp, sum, cfg.runBudget, store);
        if (!sp.ssShadow)
            return discovery;   // pairs cannot seed anything
        pairs = core->violPairsSorted();
        if (store)
            store->storeViolPairs(pairs);
        // No violations discovered (or the run degraded to exact):
        // the discovery pass *is* the final pass, and later sessions
        // load the empty set and reproduce it under the same keys.
        if (pairs.empty() || discovery.exact)
            return discovery;
        // Often the seeded pass would retrace discovery exactly; a
        // storeless run then skips it (a cold store session runs it
        // anyway, for the warm records later sessions restore).
        if (!store && freshCore()->seededRunRetraces(*core, pairs))
            return discovery;
    } else if (pairs.empty()) {
        // A previous session discovered no violations: a single
        // unseeded pass replays its records bit-exactly.
        return freshCore()->runSampled(sp, sum, cfg.runBudget, store);
    }
    // Final pass, seeded with the full discovered violation set: the
    // store-set shadow trains every learned dependence across every
    // fast-forward gap.
    return freshCore()->runSampled(sp, sum, cfg.runBudget, store,
                                   &pairs);
}

void
serializeSampleSummary(const SampleSummary &sum, SerialWriter &w)
{
    w.u64(sum.totalWork);
    w.u64(sum.totalSlots);
    w.u32(sum.clusters);
    w.u64(sum.chunks.size());
    for (const SampleChunk &c : sum.chunks) {
        w.u64(c.start);
        w.u64(c.work);
        w.u32(c.cluster);
    }
}

bool
deserializeSampleSummary(SerialReader &r, SampleSummary &sum)
{
    sum = SampleSummary();
    sum.totalWork = r.u64();
    sum.totalSlots = r.u64();
    sum.clusters = r.u32();
    std::uint64_t n = r.u64();
    if (n > r.remaining() / 20) {
        r.fail();
        return false;
    }
    sum.chunks.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        SampleChunk c;
        c.start = r.u64();
        c.work = r.u64();
        c.cluster = r.u32();
        sum.chunks.push_back(c);
    }
    // An exact-length record: trailing bytes (an older layout) are
    // malformed, not ignored.
    return r.ok() && r.remaining() == 0;
}

CoreStats
simulate(const Program &prog, const SimConfig &cfg, const SetupFn &setup)
{
    if (!cfg.useMiniGraphs)
        return runCell(prog, nullptr, cfg, setup);

    BlockProfile prof = collectProfile(prog, setup, cfg.profileBudget);
    PreparedMg prep = prepareMiniGraphs(prog, prof, cfg.policy,
                                        cfg.machine, cfg.compress);
    return runCell(prog, &prep, cfg, setup);
}

} // namespace mg
