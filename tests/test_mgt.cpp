/**
 * @file
 * MGT unit tests: template schedules (bank packing, load shadows,
 * collapsing), MGHT header derivation (LAT, FU0, FUBMP), and the
 * paper's Figure 2 worked example.
 */

#include <gtest/gtest.h>

#include "mg/mgt.hh"

namespace mg {
namespace {

TemplateInsn
alu(Op op, OpndRef a, OpndRef b, std::int64_t imm = 0, bool useImm = false)
{
    return {op, a, b, imm, useImm};
}

constexpr OpndRef E0{OpndKind::E0, -1};
constexpr OpndRef E1{OpndKind::E1, -1};
constexpr OpndRef IM{OpndKind::Imm, -1};

OpndRef
M(int i)
{
    return {OpndKind::M, static_cast<std::int8_t>(i)};
}

// Figure 2, MGID 12: addl E0,2 | cmplt M0,E1 | bne M1,0xA.
// Header: LAT 1 (output from the first instruction), FU0 = AP, empty
// FUBMP (the whole graph rides one ALU pipeline).
TEST(Figure2, MiniGraph12)
{
    MgTemplate t;
    t.insns = {alu(Op::ADDL, E0, IM, 2, true),
               alu(Op::CMPLT, M(0), E1),
               alu(Op::BNE, M(1), IM, 0xA, false)};
    t.outIdx = 0;
    t.finalize(MgtMachine{});

    EXPECT_EQ(t.hdr.lat, 1);
    EXPECT_EQ(t.hdr.totalLat, 3);
    EXPECT_EQ(t.hdr.fu0, FuKind::AluPipe);
    EXPECT_EQ(t.hdr.fubmpStr(), "-:-");
    EXPECT_TRUE(t.hdr.endsInBranch);
    EXPECT_EQ(t.startCycle, (std::vector<int>{0, 1, 2}));
}

// Figure 2, MGID 34: ldq 16(E0) | srl M0,14 | and M1,1 with a 2-cycle
// load: bank 1 is the load shadow; LAT = 4 (output from the last
// instruction); FU0 = LD.
TEST(Figure2, MiniGraph34)
{
    MgTemplate t;
    t.insns = {alu(Op::LDQ, E0, IM, 16, false),
               alu(Op::SRL, M(0), IM, 14, true),
               alu(Op::AND, M(1), IM, 1, true)};
    t.outIdx = 2;
    t.finalize(MgtMachine{});

    EXPECT_EQ(t.hdr.lat, 4);
    EXPECT_EQ(t.hdr.totalLat, 4);
    EXPECT_EQ(t.hdr.fu0, FuKind::LoadPort);
    EXPECT_TRUE(t.hdr.hasLoad);
    EXPECT_EQ(t.startCycle, (std::vector<int>{0, 2, 3}));
    // The trailing integer pair runs on an ALU pipeline reserved at
    // cycle 2 (the paper's alternative "-:AP:-" template).
    EXPECT_EQ(t.hdr.fubmpStr(), "-:AP:-");
}

TEST(MgtSchedule, CollapsingPairsAluOps)
{
    MgTemplate t;
    t.insns = {alu(Op::ADDL, E0, IM, 1, true),
               alu(Op::ADDL, M(0), IM, 1, true)};
    t.outIdx = 1;
    MgtMachine m;
    m.collapsing = true;
    t.finalize(m);
    // Two-instruction graphs execute in one cycle (paper Section 6.2).
    EXPECT_EQ(t.hdr.totalLat, 1);
    EXPECT_EQ(t.startCycle, (std::vector<int>{0, 0}));

    MgTemplate t4;
    t4.insns = {alu(Op::ADDL, E0, IM, 1, true),
                alu(Op::ADDL, M(0), IM, 1, true),
                alu(Op::ADDL, M(1), IM, 1, true),
                alu(Op::ADDL, M(2), IM, 1, true)};
    t4.outIdx = 3;
    t4.finalize(m);
    // Three and four instruction graphs execute in two cycles.
    EXPECT_EQ(t4.hdr.totalLat, 2);
}

TEST(MgtSchedule, StoreGraphHasNoOutput)
{
    MgTemplate t;
    t.insns = {alu(Op::ADDL, E0, IM, 4, true),
               {Op::STQ, M(0), E1, 0, false}};
    t.outIdx = -1;
    t.finalize(MgtMachine{});
    EXPECT_TRUE(t.hdr.hasStore);
    EXPECT_EQ(t.hdr.lat, t.hdr.totalLat);
    EXPECT_EQ(t.hdr.fubmpStr(), "ST");
}

TEST(MgtSchedule, OutputBeforeEndGivesShortLat)
{
    MgTemplate t;
    t.insns = {alu(Op::ADDL, E0, IM, 2, true),
               alu(Op::CMPLT, M(0), E1),
               alu(Op::BNE, M(1), IM, 0, false)};
    t.outIdx = 0;
    t.finalize(MgtMachine{});
    // Output emerges after cycle 1 even though the graph runs 3.
    EXPECT_LT(t.hdr.lat, t.hdr.totalLat);
}

TEST(MgTableTest, AddAndLookup)
{
    MgTable table;
    MgTemplate t;
    t.insns = {alu(Op::ADDL, E0, IM, 1, true),
               alu(Op::ADDL, M(0), IM, 1, true)};
    t.outIdx = 1;
    t.finalize(MgtMachine{});
    MgId id = table.add(t);
    EXPECT_TRUE(table.contains(id));
    EXPECT_FALSE(table.contains(id + 1));
    EXPECT_EQ(table.at(id).size(), 2);
    EXPECT_FALSE(table.str().empty());
}

TEST(MgTemplateTest, KeyCoalescesIdenticalDataflow)
{
    MgTemplate a;
    a.insns = {alu(Op::ADDL, E0, IM, 2, true), alu(Op::CMPLT, M(0), E1)};
    a.outIdx = 0;
    MgTemplate b = a;
    EXPECT_EQ(a.key(), b.key());
    b.insns[0].imm = 3;   // different immediate: different template
    EXPECT_NE(a.key(), b.key());
    MgTemplate c = a;
    c.outIdx = 1;
    EXPECT_NE(a.key(), c.key());
}

TEST(MgTemplateTest, MgstRendering)
{
    MgTemplate t;
    t.insns = {alu(Op::LDQ, E0, IM, 16, false),
               alu(Op::SRL, M(0), IM, 14, true)};
    t.outIdx = 1;
    t.finalize(MgtMachine{});
    std::string s = t.mgstStr();
    EXPECT_NE(s.find("ldq 16(E0)"), std::string::npos);
    EXPECT_NE(s.find("srl M0,14"), std::string::npos);
    EXPECT_NE(s.find("--"), std::string::npos);   // load shadow bank
}

} // namespace
} // namespace mg
