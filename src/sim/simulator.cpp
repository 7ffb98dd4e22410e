#include "sim/simulator.hh"

#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <unordered_set>

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
    const std::uint64_t prefixChunks = sp.prefixChunks();
    std::vector<std::array<double, sampleSigDims>> leaders;
    std::vector<std::uint32_t> postCount;   ///< post-prefix chunks seen
    std::array<std::uint64_t, sampleSigDims> sig{};
    std::uint64_t sigSlots = 0;
    std::uint64_t chunkIdx = 0;
    std::uint64_t chunkStart = 0;
    // Checkpoints are captured tentatively at every chunk's jump
    // target and kept only if the finished chunk turns out to be one
    // of its cluster's first two post-prefix members.
    std::map<std::uint64_t, EmuCheckpoint> pending;
    std::uint64_t nextCkptChunk = 1;
    // First-touch data-footprint curve (64-byte proxy lines): how many
    // unique lines the run has touched by each chunk boundary.
    std::unordered_set<Addr> footSeen;

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
            postCount.push_back(0);
        }
        sum.chunks.push_back({chunkStart, endWork - chunkStart, cid});
        sum.footLines.push_back(footSeen.size());
        bool post = chunkIdx >= prefixChunks;
        auto it = pending.find(chunkIdx);
        // Keep the checkpoint for every chunk the sampled run might
        // measure: the first two of each cluster always, later
        // occurrences (adaptive refinement) while the budget lasts.
        if (post && it != pending.end() &&
            (postCount[cid] < 2 || sum.ckpts.size() < 48))
            sum.ckpts.push_back(std::move(it->second));
        if (it != pending.end())
            pending.erase(it);
        if (post)
            ++postCount[cid];
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
        // Once the retention budget is full, only a brand-new cluster
        // could still keep a checkpoint; stop paying for the deep
        // copies and let such rare chunks fast-forward functionally.
        // Warm-through runs never jump, so their summaries skip the
        // captures (and their deep memory copies) entirely.
        if (!sp.warmThrough &&
            nextCkptChunk >= prefixChunks && sum.ckpts.size() < 48 &&
            w >= sp.jumpTarget(nextCkptChunk) &&
            sp.jumpTarget(nextCkptChunk) > 0)
            pending.emplace(nextCkptChunk, emu.checkpoint());
        while (w >= sp.jumpTarget(nextCkptChunk) ||
               sp.jumpTarget(nextCkptChunk) == 0)
            ++nextCkptChunk;
        if (!emu.step(&rec))
            break;
        if (rec.isMem)
            footSeen.insert(rec.memAddr /
                            static_cast<Addr>(sampleFootLineBytes));
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
               const SampleSummary &sum,
               const std::atomic<bool> *cancel)
{
    return runCellSampled(prog, prep, cfg, setup, sum,
                          static_cast<CellCheckpointClient *>(nullptr),
                          cancel);
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

    // The store only composes with warm-through sampling; degenerate
    // parameters run exactly and have no fast-forward gaps to serve.
    if (!store || !sp.warmThrough || sp.degenerate())
        return freshCore()->runSampled(sp, sum, cfg.runBudget);

    // Violation-pair seed: stored once per cell by the first session's
    // discovery pass and never updated (a frozen seed is what makes
    // every session's returned stats identical).
    std::vector<std::pair<Addr, Addr>> pairs;
    bool havePairs = sp.ssShadow && store->loadViolPairs(pairs);
    if (!havePairs) {
        // Discovery pass: the storeless trajectory (seed generation
        // h(empty)), restoring and writing back under that
        // generation's keys.
        auto core = freshCore();
        SampledStats discovery =
            core->runSampled(sp, sum, cfg.runBudget, store);
        if (!sp.ssShadow)
            return discovery;   // pairs cannot seed anything
        pairs = core->violPairsSorted();
        store->storeViolPairs(pairs);
        // No violations discovered (or the run degraded to exact):
        // the discovery pass *is* the final pass, and later sessions
        // load the empty set and reproduce it under the same keys.
        if (pairs.empty() || discovery.exact)
            return discovery;
    } else if (pairs.empty()) {
        // A previous session discovered no violations: a single
        // unseeded pass replays its records bit-exactly.
        return freshCore()->runSampled(sp, sum, cfg.runBudget, store);
    }
    // Final pass, seeded with the full discovered violation set: the
    // store-set shadow trains every learned dependence across every
    // fast-forward gap from work position zero.
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
    w.vec(sum.footLines);
    // Checkpoints deliberately elided: a persisted summary only ever
    // serves warm-through runs (enforced by the engine's key), and
    // those never jump.
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
    sum.footLines = r.vec<std::uint64_t>();
    return r.ok();
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
