/**
 * @file
 * Rewriter unit tests: handle planting, nop padding, compression
 * re-linking, and template rebuild under compression.
 */

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "emu/emulator.hh"
#include "mg/rewriter.hh"

namespace mg {
namespace {

struct World
{
    Program prog;
    std::unique_ptr<Cfg> cfg;
    std::unique_ptr<Liveness> live;
    BlockProfile prof;
    Selection sel;
};

World
prepare(const std::string &src)
{
    World w;
    w.prog = assemble(src);
    w.cfg = std::make_unique<Cfg>(w.prog);
    w.live = std::make_unique<Liveness>(*w.cfg);
    for (const BasicBlock &b : w.cfg->blocks())
        w.prof.record(b.first, 10);
    w.sel = selectMiniGraphs(*w.cfg, *w.live, w.prof, SelectionPolicy{},
                             MgtMachine{});
    return w;
}

const char *loopSrc = R"(
    .text
main:
        li r9, 20
loop:
        addq r1, 1, r2
        addq r2, 3, r3
        stq r3, out
        subq r9, 1, r9
        bgt r9, loop
        halt
        .data
out:    .space 8
)";

TEST(Rewriter, NopPadPreservesLayout)
{
    World w = prepare(loopSrc);
    ASSERT_GE(w.sel.instances.size(), 1u);
    Program rw = rewriteNopPad(w.prog, w.sel);
    EXPECT_EQ(rw.text.size(), w.prog.text.size());
    EXPECT_EQ(rw.symbols, w.prog.symbols);
    int handles = 0, nops = 0;
    for (const Instruction &in : rw.text) {
        if (in.isHandle())
            ++handles;
        if (in.op == Op::NOP)
            ++nops;
    }
    EXPECT_GE(handles, 1);
    EXPECT_GE(nops, 1);
}

TEST(Rewriter, HandleEncodesInterface)
{
    World w = prepare(loopSrc);
    Program rw = rewriteNopPad(w.prog, w.sel);
    for (const SelectedInstance &si : w.sel.instances) {
        const Instruction &h = rw.text[si.cand.anchor];
        ASSERT_TRUE(h.isHandle());
        EXPECT_EQ(h.imm, si.mgid);
        if (!si.cand.inputs.empty()) {
            EXPECT_EQ(h.ra, si.cand.inputs[0]);
        }
        if (si.cand.output != regNone) {
            EXPECT_EQ(h.rc, si.cand.output);
        }
    }
}

TEST(Rewriter, CompressShrinksText)
{
    World w = prepare(loopSrc);
    RewriteResult rr = rewriteCompress(w.prog, w.sel, MgtMachine{});
    EXPECT_LT(rr.program.text.size(), w.prog.text.size());
    // No nops in the compressed image.
    for (const Instruction &in : rr.program.text)
        EXPECT_NE(in.op, Op::NOP);
}

TEST(Rewriter, CompressedProgramRunsCorrectly)
{
    World w = prepare(loopSrc);
    RewriteResult rr = rewriteCompress(w.prog, w.sel, MgtMachine{});

    Emulator ref(w.prog);
    ref.run();
    Emulator cmp(rr.program, &rr.table);
    cmp.run();
    EXPECT_EQ(ref.memory().read(w.prog.symbol("out"), 8),
              cmp.memory().read(rr.program.symbol("out"), 8));
}

TEST(Rewriter, CompressionRelinksBranchTargets)
{
    World w = prepare(loopSrc);
    RewriteResult rr = rewriteCompress(w.prog, w.sel, MgtMachine{});
    for (const Instruction &in : rr.program.text) {
        if (in.cls() == InsnClass::CondBranch) {
            EXPECT_TRUE(rr.program.validPc(static_cast<Addr>(in.imm)));
        }
    }
    // Symbols move consistently.
    EXPECT_LE(rr.program.symbol("main"), w.prog.symbol("main"));
}

} // namespace
} // namespace mg
