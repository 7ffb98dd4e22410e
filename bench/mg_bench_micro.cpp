/**
 * @file
 * google-benchmark microbenchmarks of the library's hot operations:
 * assembly, the functional layers' single-thread rates (bare and
 * handle-bearing emulation, the sampling pre-pass, warm-through
 * fast-forward), enumeration + selection, cache access,
 * branch prediction, end-to-end cycle simulation rate, critical-path
 * analysis of a traced run, and the experiment engine's artifact-cache
 * and sweep paths. Useful when tuning the infrastructure itself.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "analysis/critpath.hh"
#include "assembler/assembler.hh"

#include "sim/simulator.hh"
#include "uarch/branch_pred.hh"
#include "uarch/sliding_window.hh"
#include "workloads/suites.hh"

namespace {

using namespace mg;

// kernelProgram caches; the microbenchmark wants the raw path.
Program
assembleForBench(const Kernel &k)
{
    return assemble(k.sourceFor(Scale::Ref), k.name);
}

void
BM_Assemble(benchmark::State &state)
{
    const Kernel &k = findKernel("sha");
    for (auto _ : state) {
        Program p = assembleForBench(k);
        benchmark::DoNotOptimize(p.text.size());
    }
}

void
BM_EmulationRate(benchmark::State &state)
{
    BoundKernel bk = bindKernel(findKernel("crc"));
    std::uint64_t work = 0;
    for (auto _ : state) {
        Emulator emu(*bk.program);
        bk.setup(emu);
        work += emu.run().dynWork;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(work));
}

/** BM_EmulationRate on the int-mem mini-graph binary: handles run
 *  from their decoded template bodies. */
void
BM_EmulationRateMiniGraph(benchmark::State &state)
{
    ExperimentEngine engine;
    EngineWorkload w = workload(bindKernel(findKernel("crc")));
    auto prep = engine.prepare(w, SimConfig::intMemMg());
    std::uint64_t work = 0;
    for (auto _ : state) {
        Emulator emu(prep->program, &prep->table);
        w.setup(emu);
        EmuResult r = emu.run();
        benchmark::DoNotOptimize(r);
        work += r.dynWork;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(work));
}

/** The sampling pre-pass (phase signatures and clustering on top of
 *  emulation) at the default sampling grid. */
void
BM_SummaryRate(benchmark::State &state)
{
    BoundKernel bk = bindKernel(findKernel("crc"));
    SamplingParams sp;
    sp.enabled = true;
    std::uint64_t work = 0;
    for (auto _ : state) {
        SampleSummary sum = collectSampleSummary(*bk.program, nullptr,
                                                 bk.setup, sp, ~0ull);
        benchmark::DoNotOptimize(sum);
        work += sum.totalWork;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(work));
}

/** Warm-through fast-forward over a whole run: emulation plus I-cache,
 *  D-cache and predictor warming on a virtually advancing clock. */
void
BM_FastForwardRate(benchmark::State &state)
{
    BoundKernel bk = bindKernel(findKernel("crc"));
    std::uint64_t work = 0;
    for (auto _ : state) {
        Core core(*bk.program, nullptr, CoreConfig{});
        bk.setup(core.oracle());
        core.fastForward(~0ull, 2.0);
        benchmark::DoNotOptimize(core);
        work += core.oracle().dynWork();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(work));
}

void
BM_EnumerateAndSelect(benchmark::State &state)
{
    BoundKernel bk = bindKernel(findKernel("gzip"));
    BlockProfile prof = collectProfile(*bk.program, bk.setup, 200000);
    Cfg cfg(*bk.program);
    Liveness live(cfg);
    for (auto _ : state) {
        Selection sel = selectMiniGraphs(cfg, live, prof,
                                         SelectionPolicy{},
                                         MgtMachine{});
        benchmark::DoNotOptimize(sel.instances.size());
    }
}

void
BM_CacheAccess(benchmark::State &state)
{
    Cache c({32 * 1024, 2, 32}, "bm");
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.access(a, false).hit);
        a += 32;
        if (a > 256 * 1024)
            a = 0;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
BM_BranchPredict(benchmark::State &state)
{
    BranchPredictor bp;
    Addr pc = textBase;
    bool taken = false;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bp.predictDirection(pc));
        bp.updateDirection(pc, taken);
        taken = !taken;
        pc += 4;
        if (pc > textBase + 4096)
            pc = textBase;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
BM_CycleSimRate(benchmark::State &state)
{
    BoundKernel bk = bindKernel(findKernel("bitcount"));
    std::uint64_t work = 0;
    for (auto _ : state) {
        CoreStats st = runCore(*bk.program, nullptr, CoreConfig{},
                               bk.setup);
        work += st.committedWork;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(work));
}

void
BM_CycleSimRateMiniGraph(benchmark::State &state)
{
    ExperimentEngine engine;
    EngineWorkload w = workload(bindKernel(findKernel("bitcount")));
    SimConfig sc = SimConfig::intMemMg();
    auto prep = engine.prepare(w, sc);     // amortised, as in a sweep
    std::uint64_t work = 0;
    for (auto _ : state) {
        CoreStats st = runCell(*w.program, prep.get(), sc, w.setup);
        work += st.committedWork;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(work));
}

/** Critical-path analysis of one traced ref cell (gzip baseline, which
 *  links producers 4096 or more events back): attribution, the forward
 *  model and a what-if walk, without the simulation. Items are traced
 *  events. */
void
BM_CritPathAnalyze(benchmark::State &state)
{
    BoundKernel bk = bindKernel(findKernel("gzip"));
    CoreConfig cfg;
    TraceBuffer trace;
    Core core(*bk.program, nullptr, cfg);
    core.setTrace(&trace);
    bk.setup(core.oracle());
    core.run();
    std::uint64_t events = 0;
    for (auto _ : state) {
        CritPathSummary s =
            analyzeCritPath(trace, cfg, "robsize=256,l1dlat=3");
        benchmark::DoNotOptimize(s.whatIfCycles);
        events += trace.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

/** Sampled-cell rate against BM_CycleSimRate: the raw win of
 *  fast-forward + measurement intervals on one kernel. */
void
BM_SampledSimRate(benchmark::State &state)
{
    ExperimentEngine engine;
    EngineWorkload w = workload(bindKernel(findKernel("bitcount")));
    SimConfig sc = SimConfig::baseline();
    sc.sampling.enabled = true;
    sc.sampling.interval = static_cast<std::uint64_t>(state.range(0));
    sc.sampling.period = 10 * sc.sampling.interval;
    sc.sampling.warmup = sc.sampling.interval / 4;
    auto sum = engine.summary(w, sc);      // amortised, as in a sweep
    std::uint64_t work = 0;
    for (auto _ : state) {
        SampledStats st = runCellSampled(*w.program, nullptr, sc,
                                         w.setup, *sum);
        work += st.totalWork;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(work));
}

/**
 * Sliding-window check-and-reserve on the packed-bitmask fast path:
 * the per-handle cost of the select stage's FUBMP test. Templates
 * mirror common integer-memory shapes (load + ALU chain + store).
 */
void
BM_WindowConflictReserve(benchmark::State &state)
{
    SlidingWindow w(SimConfig::intMemMg().core.fu, 16);
    const std::vector<std::vector<FuKind>> shapes = {
        {FuKind::LoadPort, FuKind::None, FuKind::IntAlu, FuKind::IntAlu},
        {FuKind::IntAlu, FuKind::IntAlu, FuKind::StorePort},
        {FuKind::LoadPort, FuKind::None, FuKind::IntAlu, FuKind::None,
         FuKind::IntAlu, FuKind::StorePort},
        {FuKind::AluPipe, FuKind::IntAlu},
    };
    std::vector<PackedFubmp> packed;
    for (const auto &s : shapes)
        packed.push_back(packFubmp(s));
    Cycle now = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        const PackedFubmp &p = packed[i];
        if (!w.conflicts(p, now))
            w.reserve(p, now);
        i = (i + 1) % packed.size();
        ++now;
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

/** The same sequence through the unpacked convenience overload:
 *  packs the FUBMP vector on every call, approximating the replaced
 *  per-entry vector-scan cost for a before/after read. */
void
BM_WindowConflictReserveUnpacked(benchmark::State &state)
{
    SlidingWindow w(SimConfig::intMemMg().core.fu, 16);
    const std::vector<std::vector<FuKind>> shapes = {
        {FuKind::LoadPort, FuKind::None, FuKind::IntAlu, FuKind::IntAlu},
        {FuKind::IntAlu, FuKind::IntAlu, FuKind::StorePort},
        {FuKind::LoadPort, FuKind::None, FuKind::IntAlu, FuKind::None,
         FuKind::IntAlu, FuKind::StorePort},
        {FuKind::AluPipe, FuKind::IntAlu},
    };
    Cycle now = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &s = shapes[i];
        if (!w.conflicts(s, now))
            w.reserve(s, now);
        i = (i + 1) % shapes.size();
        ++now;
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

/**
 * Select-stage cost on a dense high-IPC mini-graph kernel: whole
 * detailed cells of jpeg.dct under the int-mem configuration. The
 * handles_per_s counter inverts to ns/handle; items count committed
 * slots (every slot crosses select at least once).
 */
void
BM_SelectStageDense(benchmark::State &state)
{
    ExperimentEngine engine;
    EngineWorkload w = workload(bindKernel(findKernel("jpeg.dct")));
    SimConfig sc = SimConfig::intMemMg();
    auto prep = engine.prepare(w, sc);
    std::uint64_t slots = 0, handles = 0;
    for (auto _ : state) {
        CoreStats st = runCell(*w.program, prep.get(), sc, w.setup);
        slots += st.committedSlots;
        handles += st.committedHandles;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(slots));
    state.counters["handles_per_s"] = benchmark::Counter(
        static_cast<double>(handles), benchmark::Counter::kIsRate);
}

/** Artifact-cache hit path: the per-cell overhead of a warm sweep. */
void
BM_EngineCacheHit(benchmark::State &state)
{
    ExperimentEngine engine;
    EngineWorkload w = workload(bindKernel(findKernel("crc")));
    SimConfig sc = SimConfig::intMemMg();
    benchmark::DoNotOptimize(engine.prepare(w, sc));
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.prepare(w, sc));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

/** One-kernel standard sweep, parallel cells, warm artifact caches. */
void
BM_EngineSweep(benchmark::State &state)
{
    ExperimentEngine engine(static_cast<int>(state.range(0)));
    SweepSpec spec;
    spec.workloads = {workload(bindKernel(findKernel("bitcount")))};
    spec.columns = standardColumns();
    spec.baselineColumn = 0;
    for (auto _ : state) {
        SweepResult r = engine.sweep(spec);
        benchmark::DoNotOptimize(r.cells.size());
    }
}

BENCHMARK(BM_Assemble);
BENCHMARK(BM_EmulationRate);
BENCHMARK(BM_EmulationRateMiniGraph);
BENCHMARK(BM_SummaryRate);
BENCHMARK(BM_FastForwardRate);
BENCHMARK(BM_EnumerateAndSelect);
BENCHMARK(BM_CacheAccess);
BENCHMARK(BM_BranchPredict);
BENCHMARK(BM_CycleSimRate);
BENCHMARK(BM_CycleSimRateMiniGraph);
BENCHMARK(BM_SampledSimRate)->Arg(1000)->Arg(4000);
BENCHMARK(BM_CritPathAnalyze);
BENCHMARK(BM_WindowConflictReserve);
BENCHMARK(BM_WindowConflictReserveUnpacked);
BENCHMARK(BM_SelectStageDense);
BENCHMARK(BM_EngineCacheHit);
BENCHMARK(BM_EngineSweep)->Arg(1)->Arg(4);

} // namespace

BENCHMARK_MAIN();
