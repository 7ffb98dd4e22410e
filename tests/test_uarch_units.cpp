/**
 * @file
 * Unit tests for the back-end building blocks: physical register
 * file, rename map, ROB, issue queue, LSQ, sliding window, ALU
 * pipelines, sequencers, and the FU pool.
 */

#include <gtest/gtest.h>

#include "uarch/alu_pipeline.hh"
#include "uarch/issue_queue.hh"
#include "uarch/fu_pool.hh"
#include "uarch/lsq.hh"
#include "uarch/regfile.hh"
#include "uarch/rename.hh"
#include "uarch/rob.hh"
#include "uarch/sequencer.hh"
#include "uarch/sliding_window.hh"

namespace mg {
namespace {

TEST(RegFile, AllocFreeInvariants)
{
    PhysRegFile rf(164, 64);
    EXPECT_EQ(rf.freeCount(), 100);
    std::vector<PhysReg> got;
    for (int i = 0; i < 100; ++i) {
        PhysReg r = rf.alloc();
        ASSERT_NE(r, physNone);
        got.push_back(r);
    }
    EXPECT_EQ(rf.alloc(), physNone);    // exhausted
    for (PhysReg r : got)
        rf.free(r);
    EXPECT_EQ(rf.freeCount(), 100);
    EXPECT_EQ(rf.peakInFlight(), 100);
}

TEST(RegFile, ReadyTimes)
{
    PhysRegFile rf(68, 64);
    PhysReg r = rf.alloc();
    rf.markPending(r);
    EXPECT_FALSE(rf.readyForIssue(r, 1000));
    rf.setTimes(r, 10, 12);
    EXPECT_FALSE(rf.readyForIssue(r, 9));
    EXPECT_TRUE(rf.readyForIssue(r, 10));
    EXPECT_EQ(rf.valueAt(r), 12u);
    EXPECT_TRUE(rf.readyForIssue(physNone, 0));   // no operand
}

TEST(RenameMapTest, RenameAndRestore)
{
    RenameMap m;
    EXPECT_EQ(m.lookup(5), 5);
    PhysReg prev = m.rename(5, 100);
    EXPECT_EQ(prev, 5);
    EXPECT_EQ(m.lookup(5), 100);
    m.restore(5, prev);
    EXPECT_EQ(m.lookup(5), 5);
    EXPECT_EQ(m.lookup(regZero), physNone);
    EXPECT_EQ(m.lookup(regNone), physNone);
}

TEST(RobTest, FifoAndSquash)
{
    Rob rob(4);
    DynInst a, b, c;
    a.seq = 1;
    b.seq = 2;
    c.seq = 3;
    rob.push(&a);
    rob.push(&b);
    rob.push(&c);
    EXPECT_EQ(rob.size(), 3);
    EXPECT_EQ(rob.head(), &a);
    EXPECT_EQ(rob.at(1), &b);   // age order
    auto gone = rob.squashFrom(2);
    ASSERT_EQ(gone.size(), 2u);
    EXPECT_EQ(gone[0], &c);     // youngest first
    EXPECT_EQ(gone[1], &b);
    EXPECT_EQ(rob.size(), 1);
    rob.popHead();
    EXPECT_TRUE(rob.empty());
}

TEST(IssueQueueTest, CapacityAndRemoval)
{
    PhysRegFile regs(8, 4);
    IssueQueue iq(2, 8);
    DynInst a, b;
    a.seq = 1;
    b.seq = 2;
    iq.insert(&a, regs, nullptr, 0);
    EXPECT_FALSE(iq.full());
    iq.insert(&b, regs, nullptr, 0);
    EXPECT_TRUE(iq.full());
    iq.markIssued(&a);
    EXPECT_EQ(iq.size(), 1);
    iq.squashFrom(2);
    EXPECT_EQ(iq.size(), 0);
}

TEST(IssueQueueTest, WakeupDrivenReadiness)
{
    PhysRegFile regs(8, 4);
    IssueQueue iq(4, 8);

    // Producer allocates p; its consumer waits on the consumer list.
    PhysReg p = regs.alloc();
    ASSERT_NE(p, physNone);
    regs.markPending(p);
    DynInst c;
    c.seq = 1;
    c.srcPhys[0] = p;
    iq.insert(&c, regs, nullptr, 0);
    iq.beginSelect(0);
    EXPECT_EQ(iq.readyCount(), 0);
    EXPECT_TRUE(iq.quietAt(0));

    // Producer issues at cycle 2, ready for consumers at cycle 5.
    regs.setTimes(p, 5, 5);
    iq.wakeReg(p, regs, 2);
    iq.beginSelect(2);
    EXPECT_EQ(iq.readyCount(), 0);     // parked until cycle 5
    EXPECT_TRUE(iq.quietAt(2));
    EXPECT_EQ(iq.nextWakeAt(2), 5u);

    iq.beginSelect(5);
    ASSERT_EQ(iq.readyCount(), 1);
    EXPECT_EQ(iq.readyFirst(), &c);
    EXPECT_FALSE(iq.quietAt(5));

    // A later revision (e.g. a load miss) re-parks it on requeue.
    regs.setTimes(p, 9, 9);
    iq.requeueNotReady(&c, regs, 5);
    iq.beginSelect(6);
    EXPECT_EQ(iq.readyCount(), 0);
    iq.beginSelect(9);
    ASSERT_EQ(iq.readyCount(), 1);
    iq.markIssued(&c);
    EXPECT_EQ(iq.size(), 0);
}

DynInst
memInst(std::uint64_t seq, Addr addr, int bytes, bool store,
        bool done = true)
{
    static const StaticInst loadRec{.cls = InsnClass::Load,
                                    .isLoad = true};
    static const StaticInst storeRec{.cls = InsnClass::Store,
                                     .isStore = true};
    DynInst d;
    d.seq = seq;
    d.si = store ? &storeRec : &loadRec;
    d.memDone = done;
    d.rec.memAddr = addr;
    d.rec.memBytes = bytes;
    // The LSQ scans read the DynInst-resident operand copies the
    // fetch path maintains.
    d.memAddr = addr;
    d.memBytes = bytes;
    return d;
}

TEST(LsqTest, ForwardingPicksYoungestOlderStore)
{
    Lsq lsq(8);
    DynInst s1 = memInst(1, 0x100, 8, true);
    DynInst s2 = memInst(2, 0x100, 8, true);
    DynInst s3 = memInst(3, 0x200, 8, true);
    DynInst ld = memInst(5, 0x100, 8, false);
    lsq.insertStore(&s1);
    lsq.insertStore(&s2);
    lsq.insertStore(&s3);
    lsq.insertLoad(&ld);
    EXPECT_EQ(lsq.forwardingStore(&ld), &s2);
}

TEST(LsqTest, PartialOverlapCountsAsForwardable)
{
    Lsq lsq(8);
    DynInst st = memInst(1, 0x100, 8, true);
    DynInst ld = memInst(2, 0x104, 4, false);
    lsq.insertStore(&st);
    lsq.insertLoad(&ld);
    EXPECT_EQ(lsq.forwardingStore(&ld), &st);
}

TEST(LsqTest, ViolationFindsOldestYoungerLoad)
{
    Lsq lsq(8);
    DynInst st = memInst(3, 0x100, 8, true);
    DynInst l1 = memInst(5, 0x100, 4, false, true);
    DynInst l2 = memInst(7, 0x104, 4, false, true);
    DynInst l3 = memInst(2, 0x100, 4, false, true);   // older: immune
    lsq.insertLoad(&l3);
    lsq.insertLoad(&l1);
    lsq.insertLoad(&l2);
    EXPECT_EQ(lsq.violatingLoad(&st), &l1);
    // Loads that have not executed cannot violate.
    l1.memDone = false;
    l2.memDone = false;
    EXPECT_EQ(lsq.violatingLoad(&st), nullptr);
}

TEST(SlidingWindowTest, ReserveAndConflict)
{
    FuPoolConfig fu;
    fu.intAlus = 1;
    SlidingWindow w(fu, 16);
    std::vector<FuKind> bmp = {FuKind::None, FuKind::IntAlu,
                               FuKind::IntAlu};
    EXPECT_FALSE(w.conflicts(bmp, 100));
    w.reserve(bmp, 100);
    // Same map again: the single ALU at cycles 102-103 is taken.
    EXPECT_TRUE(w.conflicts(bmp, 100));
    // One cycle later the maps interleave at 103: still conflicting.
    EXPECT_TRUE(w.conflicts(bmp, 101));
    // Three cycles later there is no overlap.
    EXPECT_FALSE(w.conflicts(bmp, 103));
}

TEST(SlidingWindowTest, WindowSlidesForward)
{
    FuPoolConfig fu;
    fu.loadPorts = 1;
    SlidingWindow w(fu, 16);
    std::vector<FuKind> bmp = {FuKind::LoadPort};
    w.reserve(bmp, 10);
    EXPECT_TRUE(w.conflicts(bmp, 10));
    // After the reserved cycle passes, the line is clear again.
    EXPECT_FALSE(w.conflicts(bmp, 30));
}

TEST(SlidingWindowTest, UsedAtReportsCurrentCycle)
{
    SlidingWindow w(FuPoolConfig{}, 16);
    std::vector<FuKind> bmp = {FuKind::StorePort};
    w.reserve(bmp, 5);   // reserves cycle 6
    EXPECT_EQ(w.usedAt(FuKind::StorePort, 6), 1);
    EXPECT_EQ(w.usedAt(FuKind::StorePort, 7), 0);
}

TEST(AluPipelineTest, EntryAndOutputConflicts)
{
    // The FU pool probes entryFree/outputFree, then enters through
    // tryIssue.
    AluPipeline ap(4);
    EXPECT_TRUE(ap.entryFree(10) && ap.outputFree(13));
    EXPECT_TRUE(ap.tryIssue(10, 3));
    // Entry busy at 10.
    EXPECT_FALSE(ap.entryFree(10));
    EXPECT_FALSE(ap.tryIssue(10, 1));
    // Output port busy at 13: a singleton entering at 12 with lat 1
    // would write at 13.
    EXPECT_TRUE(ap.entryFree(12));
    EXPECT_FALSE(ap.outputFree(13));
    EXPECT_FALSE(ap.tryIssue(12, 1));
    // lat 2 writes at 14: fine.
    EXPECT_TRUE(ap.outputFree(14));
    EXPECT_TRUE(ap.tryIssue(12, 2));
    EXPECT_EQ(ap.accepted(), 2u);
}

TEST(AluPipelineTest, SingletonsBackToBack)
{
    AluPipeline ap(4);
    for (Cycle c = 0; c < 8; ++c)
        EXPECT_TRUE(ap.tryIssue(c, 1)) << c;
}

TEST(SequencerTest, CountedOccupancy)
{
    // The core probes freeAt, then claims through tryStart.
    SequencerPool seqs(2);
    EXPECT_TRUE(seqs.tryStart(0, 4));
    EXPECT_TRUE(seqs.tryStart(0, 4));
    EXPECT_FALSE(seqs.tryStart(1, 4));    // both walking
    EXPECT_EQ(seqs.freeAt(3), 0);
    EXPECT_EQ(seqs.freeAt(4), 2);
    EXPECT_TRUE(seqs.tryStart(4, 2));
    EXPECT_EQ(seqs.walks(), 3u);
}

/** The issue stage's protocol: probe, then claim. */
bool
issueSingleton(FuPool &fu, FuKind kind)
{
    if (!fu.canIssueSingleton(kind))
        return false;
    fu.claimSingleton(kind);
    return true;
}

TEST(FuPoolTest, CompositionLimits)
{
    FuPoolConfig cfg;   // 4 int, 2 fp, 2 ld, 1 st
    FuPool fu(cfg, 6);
    fu.beginCycle(5);
    EXPECT_TRUE(issueSingleton(fu, FuKind::StorePort));
    EXPECT_FALSE(issueSingleton(fu, FuKind::StorePort));
    EXPECT_TRUE(issueSingleton(fu, FuKind::LoadPort));
    EXPECT_TRUE(issueSingleton(fu, FuKind::LoadPort));
    EXPECT_FALSE(issueSingleton(fu, FuKind::LoadPort));
    EXPECT_TRUE(issueSingleton(fu, FuKind::IntAlu));
    EXPECT_TRUE(issueSingleton(fu, FuKind::IntAlu));
    EXPECT_TRUE(issueSingleton(fu, FuKind::IntAlu));
    // Total issue width (6) now exhausted even though an ALU remains.
    EXPECT_FALSE(issueSingleton(fu, FuKind::IntAlu));
}

TEST(FuPoolTest, IntOpsSpillOntoAluPipes)
{
    FuPoolConfig cfg;
    cfg.intAlus = 2;
    cfg.aluPipes = 2;
    FuPool fu(cfg, 6);
    fu.beginCycle(0);
    // Four integer ops per cycle: 2 plain + 2 pipeline stage-0 slots.
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(issueSingleton(fu, FuKind::IntAlu)) << i;
    EXPECT_FALSE(issueSingleton(fu, FuKind::IntAlu));
}

TEST(FuPoolTest, IssueWidthCapsSingletonsAndHandlesTogether)
{
    // One count of issued slots covers both paths: a 3-wide machine
    // stops at three operations whatever mix of handles and
    // singletons filled them, with units still free.
    FuPoolConfig cfg;
    cfg.intAlus = 2;
    cfg.aluPipes = 2;
    FuPool fu(cfg, 3);
    fu.beginCycle(0);
    ASSERT_TRUE(fu.canIssueAluPipe(3));
    fu.claimAluPipe(3);
    EXPECT_TRUE(issueSingleton(fu, FuKind::LoadPort));
    EXPECT_TRUE(fu.issueSlotFree());
    EXPECT_TRUE(issueSingleton(fu, FuKind::IntAlu));
    EXPECT_FALSE(fu.issueSlotFree());
    EXPECT_FALSE(fu.canIssueAluPipe(1));   // the second pipe is idle
    for (FuKind k : {FuKind::IntAlu, FuKind::FpAlu, FuKind::LoadPort,
                     FuKind::StorePort})
        EXPECT_FALSE(fu.canIssueSingleton(k)) << fuKindName(k);
    // The next cycle starts with every slot free again.
    fu.beginCycle(1);
    EXPECT_TRUE(fu.canIssueAluPipe(1));
    EXPECT_TRUE(issueSingleton(fu, FuKind::StorePort));
}

TEST(FuPoolTest, WritePortBudget)
{
    FuPoolConfig cfg;
    FuPool fu(cfg, 6);
    fu.beginCycle(0);
    for (int i = 0; i < cfg.regWritePorts; ++i)
        EXPECT_TRUE(fu.claimWritePort(9));
    EXPECT_FALSE(fu.writePortFree(9));
    EXPECT_FALSE(fu.claimWritePort(9));
    EXPECT_TRUE(fu.writePortFree(10));
}

TEST(FuPoolTest, ReadPortBudget)
{
    FuPoolConfig cfg;
    FuPool fu(cfg, 6);
    fu.beginCycle(0);
    EXPECT_TRUE(fu.claimReadPorts(3));
    EXPECT_TRUE(fu.claimReadPorts(2));
    EXPECT_FALSE(fu.claimReadPorts(1));
    EXPECT_EQ(fu.readPortsFree(), 0);
}

TEST(FuPoolTest, PreClaimConsumesUnitsNotIssueSlots)
{
    FuPoolConfig cfg;
    FuPool fu(cfg, 6);
    fu.beginCycle(0);
    const int res[4] = {0, 2, 0, 0};   // both load ports fire now
    fu.preClaimUsed(res);
    EXPECT_FALSE(fu.canIssueSingleton(FuKind::LoadPort));
    // Issue width is untouched: integer ops still flow.
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(issueSingleton(fu, FuKind::IntAlu));
}

} // namespace
} // namespace mg
