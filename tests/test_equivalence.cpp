/**
 * @file
 * End-to-end correctness: for every kernel, the handle-bearing
 * program (selection + rewrite + MGT) must produce exactly the same
 * validated outputs as the original, under both the nop-padded and
 * compressed layouts, for integer-only and integer-memory policies.
 * This exercises enumeration, legality, selection, template
 * construction, the rewriter, and the emulator's sequencer semantics
 * in one sweep.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "workloads/suites.hh"

namespace mg {
namespace {

struct Combo
{
    const char *kernel;
    bool memory;        ///< integer-memory mini-graphs allowed
    bool compress;
};

class Equivalence : public ::testing::TestWithParam<Combo>
{
};

TEST_P(Equivalence, RewrittenProgramMatchesOriginal)
{
    const Combo &c = GetParam();
    BoundKernel bk = bindKernel(findKernel(c.kernel));

    BlockProfile prof = collectProfile(*bk.program, bk.setup, 400000);

    SelectionPolicy policy;
    policy.allowMemory = c.memory;
    MgtMachine machine;
    PreparedMg prep = prepareMiniGraphs(*bk.program, prof, policy,
                                        machine, c.compress);

    // Mini-graphs must actually be found (the point of the test).
    EXPECT_GT(prep.selection.instances.size(), 0u)
        << c.kernel << ": no mini-graphs selected";

    Emulator emu(prep.program, &prep.table);
    bk.setup(emu);
    EmuResult r = emu.run(100000000ull);
    ASSERT_EQ(r.stop, StopReason::Halted)
        << c.kernel << " (rewritten) did not halt";
    EXPECT_TRUE(bk.kernel->validateAt(emu, 0, Scale::Ref))
        << c.kernel << " (rewritten) produced wrong outputs";

    // The rewritten program must do the same architectural work
    // (handles expand to their constituent instructions; pad nops
    // carry no work).
    Emulator ref(*bk.program);
    bk.setup(ref);
    EmuResult rr = ref.run(100000000ull);
    EXPECT_EQ(r.dynWork, rr.dynWork)
        << c.kernel << ": constituent work count changed";
}

std::vector<Combo>
makeCombos()
{
    std::vector<Combo> out;
    for (const Kernel &k : allKernels()) {
        out.push_back({k.name, false, false});
        out.push_back({k.name, true, false});
        out.push_back({k.name, true, true});
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, Equivalence, ::testing::ValuesIn(makeCombos()),
    [](const auto &info) {
        std::string n = info.param.kernel;
        for (char &c : n) {
            if (c == '.')
                c = '_';
        }
        n += info.param.memory ? "_intmem" : "_int";
        if (info.param.compress)
            n += "_compress";
        return n;
    });

} // namespace
} // namespace mg
