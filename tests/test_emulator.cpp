/**
 * @file
 * Emulator unit tests: instruction semantics (golden values per op,
 * and recorded effects of every opcode), control flow, memory access,
 * profiling, and handle execution.
 */

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "emu/emulator.hh"

namespace mg {
namespace {

/** Assemble, run to halt, return the emulator for inspection. */
Emulator
runAsm(const std::string &body, const MgTable *mgt = nullptr)
{
    static std::vector<std::unique_ptr<Program>> keep;
    keep.push_back(std::make_unique<Program>(
        assemble(".text\nmain:\n" + body + "\n halt\n")));
    Emulator emu(*keep.back(), mgt);
    EXPECT_EQ(emu.run().stop, StopReason::Halted);
    return emu;
}

TEST(EmuSemantics, LongwordSignExtension)
{
    Emulator e = runAsm(R"(
        li r1, 0x7fffffff
        addl r1, 1, r2        # wraps to int32 min, sign-extends
        addq r1, 1, r3        # plain 64-bit add
    )");
    EXPECT_EQ(e.reg(2), 0xffffffff80000000ull);
    EXPECT_EQ(e.reg(3), 0x80000000ull);
}

TEST(EmuSemantics, ScaledAdds)
{
    Emulator e = runAsm(R"(
        li r1, 5
        li r2, 100
        s4addl r1, r2, r3
        s8addq r1, r2, r4
    )");
    EXPECT_EQ(e.reg(3), 120u);
    EXPECT_EQ(e.reg(4), 140u);
}

TEST(EmuSemantics, LogicalAndShift)
{
    Emulator e = runAsm(R"(
        li r1, 0xf0f0
        li r2, 0x0ff0
        and r1, r2, r3
        bis r1, r2, r4
        xor r1, r2, r5
        bic r1, r2, r6
        ornot r31, r2, r7
        sll r1, 4, r8
        srl r1, 4, r9
        li r10, -16
        sra r10, 2, r11
    )");
    EXPECT_EQ(e.reg(3), 0x00f0u);   // and
    EXPECT_EQ(e.reg(4), 0xfff0u);   // bis
    EXPECT_EQ(e.reg(5), 0xff00u);   // xor
    EXPECT_EQ(e.reg(6), 0xf000u);   // bic
    EXPECT_EQ(e.reg(7), ~0x0ff0ull);
    EXPECT_EQ(e.reg(8), 0xf0f00u);
    EXPECT_EQ(e.reg(9), 0xf0fu);
    EXPECT_EQ(e.reg(11), static_cast<std::uint64_t>(-4));
}

TEST(EmuSemantics, Compares)
{
    Emulator e = runAsm(R"(
        li r1, -5
        li r2, 3
        cmplt r1, r2, r3
        cmple r2, r2, r4
        cmpult r1, r2, r5     # unsigned: -5 is huge
        cmpeq r2, 3, r6
    )");
    EXPECT_EQ(e.reg(3), 1u);
    EXPECT_EQ(e.reg(4), 1u);
    EXPECT_EQ(e.reg(5), 0u);
    EXPECT_EQ(e.reg(6), 1u);
}

TEST(EmuSemantics, BitCountsAndZapnot)
{
    Emulator e = runAsm(R"(
        li r1, 0xff00ff
        ctpop r1, r2
        cttz r1, r3
        li r4, 0x1122334455667788
        zapnot r4, 15, r5
        sextb r4, r6
        sextw r4, r7
    )");
    EXPECT_EQ(e.reg(2), 16u);
    EXPECT_EQ(e.reg(3), 0u);
    EXPECT_EQ(e.reg(5), 0x55667788u);
    EXPECT_EQ(e.reg(6), 0xffffffffffffff88ull);
    EXPECT_EQ(e.reg(7), 0x7788u);
}

TEST(EmuSemantics, LoadStoreSizes)
{
    static Program p = assemble(R"(
        .text
main:
        li r1, 0x8081828384858687
        stq r1, buf
        ldbu r2, buf
        ldwu r3, buf
        ldl r4, buf
        ldq r5, buf
        halt
        .data
buf:    .space 8
    )");
    Emulator e(p);
    EXPECT_EQ(e.run().stop, StopReason::Halted);
    EXPECT_EQ(e.reg(2), 0x87u);
    EXPECT_EQ(e.reg(3), 0x8687u);
    EXPECT_EQ(e.reg(4), 0xffffffff84858687ull);   // ldl sign-extends
    EXPECT_EQ(e.reg(5), 0x8081828384858687ull);
}

TEST(EmuSemantics, ZeroRegisterIgnoresWrites)
{
    Emulator e = runAsm(R"(
        li r31, 55
        addq r31, 1, r1
    )");
    EXPECT_EQ(e.reg(regZero), 0u);
    EXPECT_EQ(e.reg(1), 1u);
}

TEST(EmuSemantics, UnalignedAccessesRoundTrip)
{
    // Nothing checks alignment: unaligned accesses, in a page and
    // straddling two, read and write exactly the bytes they cover.
    static Program p = assemble(R"(
        .text
main:
        li r1, 0x0102030405060708
        lda r2, buf
        stq r1, 3(r2)          # unaligned, inside the page
        ldq r3, 3(r2)
        ldbu r4, 3(r2)         # lowest byte lands at the address
        li r5, 0x100ffd        # three bytes below a page boundary
        stq r1, 0(r5)          # straddles 0x100000/0x101000 pages
        ldq r6, 0(r5)
        ldl r7, 2(r5)          # 4 bytes: one before, three after
        stw r1, 1(r5)          # in-page again, unaligned
        ldwu r8, 1(r5)
        halt
        .data
buf:    .space 32
    )");
    Emulator e(p);
    EXPECT_EQ(e.run().stop, StopReason::Halted);
    EXPECT_EQ(e.reg(3), 0x0102030405060708ull);
    EXPECT_EQ(e.reg(4), 0x08u);
    EXPECT_EQ(e.reg(6), 0x0102030405060708ull);
    EXPECT_EQ(e.reg(7), 0x03040506u);
    EXPECT_EQ(e.reg(8), 0x0708u);
    EXPECT_EQ(e.memory().read(0x101000, 1), 0x05u);
}

// Every opcode, one step each. The digests below were recorded from
// the emulator before it decoded text slots once (fused opcodes and
// register slots), over every field of every probe's effect, so they
// pin the semantics any dispatch must keep.

constexpr RegId f1 = fpBase + 1;
constexpr RegId f2 = fpBase + 2;
constexpr RegId f3 = fpBase + 3;
constexpr Addr probeTarget = textBase + 8 * insnBytes;
constexpr Addr pageEdge = dataBase + Memory::pageBytes;

/** One instruction, stepped once from slot 0 with r1 = f1 = a and
 *  r2 = f2 = b. */
struct Probe
{
    Instruction in;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/** Everything one step did: the record, the step's result, the work
 *  it counted, the destination register, the quadword at the memory
 *  operand afterwards, and a hash of the whole register file. */
struct Effect
{
    bool more;
    Addr pc;
    Addr nextPc;
    bool taken;
    bool isMem;
    bool memIsStore;
    Addr memAddr;
    int memBytes;
    std::uint64_t memData;
    bool padNop;
    int cls;
    std::uint64_t work;
    std::uint64_t dst;
    std::uint64_t mem;
    std::uint64_t regHash;
};

/** Fold every field of @p e into @p h. */
std::uint64_t
mixEffect(const Effect &e, std::uint64_t h)
{
    const std::uint64_t fields[] = {
        e.more, e.pc, e.nextPc, e.taken, e.isMem, e.memIsStore, e.memAddr,
        static_cast<std::uint64_t>(e.memBytes), e.memData, e.padNop,
        static_cast<std::uint64_t>(e.cls), e.work, e.dst, e.mem,
        e.regHash};
    return fnv1a64(fields, sizeof fields, h);
}

std::string
describe(const Probe &p, const Effect &e)
{
    return strfmt("%-24s a=%016llx b=%016llx -> more=%d pc=%llx next=%llx "
                  "taken=%d mem=%d/%d @%llx x%d data=%016llx pad=%d "
                  "cls=%d work=%llu dst=%016llx q=%016llx regs=%016llx",
                  p.in.disasm().c_str(),
                  static_cast<unsigned long long>(p.a),
                  static_cast<unsigned long long>(p.b), e.more,
                  static_cast<unsigned long long>(e.pc),
                  static_cast<unsigned long long>(e.nextPc), e.taken,
                  e.isMem, e.memIsStore,
                  static_cast<unsigned long long>(e.memAddr), e.memBytes,
                  static_cast<unsigned long long>(e.memData), e.padNop,
                  e.cls, static_cast<unsigned long long>(e.work),
                  static_cast<unsigned long long>(e.dst),
                  static_cast<unsigned long long>(e.mem),
                  static_cast<unsigned long long>(e.regHash));
}

std::uint64_t
bits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

/** Handle bodies covering every template-op kind and operand source. */
MgTable
probeTable()
{
    const OpndRef e0{OpndKind::E0, -1}, e1{OpndKind::E1, -1};
    const OpndRef imm{OpndKind::Imm, -1};
    auto m = [](int i) { return OpndRef{OpndKind::M, std::int8_t(i)}; };
    std::vector<std::pair<std::vector<TemplateInsn>, int>> bodies = {
        {{{Op::ADDL, e0, imm, 2, true}, {Op::CMPLT, m(0), e1, 0, false}},
         0},
        {{{Op::LDQ, e0, {}, 8, false}, {Op::ADDQ, m(0), e1, 0, false},
          {Op::STQ, e0, m(1), 16, false}},
         1},
        {{{Op::ADDQ, e0, imm, 1, true}, {Op::BNE, m(0), {}, 32, false}},
         0},
        {{{Op::SUBQ, e0, e1, 0, false}, {Op::BEQ, m(0), {}, 32, false}},
         -1},
        {{{Op::LDL, e0, {}, 4, false}, {Op::S4ADDQ, m(0), e1, 0, false},
          {Op::XOR, m(1), imm, 0x55, true}},
         2},
        {{{Op::ADDQ, imm, e0, 7, false}, {Op::STB, e0, imm, 3, false}},
         0},
    };
    MgTable table;
    for (auto &[insns, out] : bodies) {
        MgTemplate t;
        t.insns = insns;
        t.outIdx = out;
        t.finalize(MgtMachine{});
        table.add(t);
    }
    return table;
}

/** Every opcode with edge operands, immediate and register forms, and
 *  r31/f31 as source and destination. */
std::vector<Probe>
allProbes(const MgTable &table)
{
    std::vector<Probe> out;
    auto add = [&](Op op, RegId ra, RegId rb, RegId rc, std::int64_t imm,
                   bool useImm, std::uint64_t a, std::uint64_t b) {
        out.push_back({Instruction{op, ra, rb, rc, imm, useImm}, a, b});
    };
    const std::uint64_t intPairs[][2] = {
        {0, 0},
        {~0ull, 1},
        {0x7fffffff, 0x7fffffff},
        {0x8000000000000000ull, ~0ull},
        {0x0123456789abcdefull, 0xfedcba9876543210ull}};
    const double fpPairs[][2] = {
        {1.5, -2.25}, {0.0, -0.0}, {-3.75, 7.0}, {1e15, 1e-300},
        {1.0, 0.0}};
    const std::uint64_t tests[] = {0, 1, ~0ull, 2, 0x8000000000000000ull};
    const std::uint64_t fpTests[] = {bits(0.0), bits(-0.0), bits(1.0), 1,
                                     bits(-2.5)};
    const std::uint64_t data = 0x8182838485868788ull;
    for (int o = 0; o < static_cast<int>(Op::NUM_OPS); ++o) {
        auto op = static_cast<Op>(o);
        switch (opClass(op)) {
          case InsnClass::IntAlu:
          case InsnClass::IntMult:
            for (const auto &p : intPairs)
                add(op, 1, 2, 3, 0, false, p[0], p[1]);
            add(op, 1, regNone, 3, -5, true, 0xdeadbeefcafef00dull, 0);
            add(op, 1, regNone, 3, 0x45, true, 0x00ff00ff00ff00ffull, 0);
            add(op, regZero, 2, 3, 0, false, 0, 0x1234);
            add(op, 1, regZero, 3, 0, false, 0x1234, 0);
            add(op, 1, 2, regZero, 0, false, 5, 6);
            break;
          case InsnClass::FpAlu:
          case InsnClass::FpDiv:
            for (const auto &p : fpPairs)
                add(op, f1, f2, f3, 0, false, bits(p[0]), bits(p[1]));
            add(op, f1, regNone, f3, -5, true, bits(2.5), 0);
            add(op, regFpZero, f2, f3, 0, false, 0, bits(-6.5));
            add(op, f1, regFpZero, f3, 0, false, bits(-6.5), 0);
            add(op, f1, f2, regFpZero, 0, false, bits(1.25), bits(2.0));
            break;
          case InsnClass::Load: {
              RegId d = op == Op::LDT ? f3 : 3;
              add(op, d, 1, regNone, 8, false, dataBase, 0);
              add(op, d, 1, regNone, 2, false, dataBase + 1, 0);
              add(op, d, 1, regNone, -1, false, pageEdge - 2, 0);
              add(op, d, regZero, regNone, dataBase + 16, false, 0, 0);
              add(op, op == Op::LDT ? regFpZero : regZero, 1, regNone, 8,
                  false, dataBase, 0);
              break;
          }
          case InsnClass::Store: {
              RegId s = op == Op::STT ? f2 : 2;
              add(op, s, 1, regNone, 8, false, dataBase, data);
              add(op, s, 1, regNone, 3, false, dataBase, data);
              add(op, s, 1, regNone, -1, false, pageEdge - 2, data);
              add(op, s, regZero, regNone, dataBase + 24, false, 0, data);
              add(op, op == Op::STT ? regFpZero : regZero, 1, regNone, 8,
                  false, dataBase, data);
              break;
          }
          case InsnClass::CondBranch: {
              bool fp = op == Op::FBEQ || op == Op::FBNE;
              for (std::uint64_t v : fp ? fpTests : tests)
                  add(op, fp ? f1 : 1, regNone, regNone,
                      static_cast<std::int64_t>(probeTarget), false, v, 0);
              add(op, fp ? regFpZero : regZero, regNone, regNone,
                  static_cast<std::int64_t>(probeTarget), false, 7, 0);
              break;
          }
          case InsnClass::UncondBranch:
            add(op, regRa, regNone, regNone,
                static_cast<std::int64_t>(probeTarget), false, 0, 0);
            add(op, regZero, regNone, regNone,
                static_cast<std::int64_t>(probeTarget), false, 0, 0);
            break;
          case InsnClass::IndirectJump:
            add(op, regRa, 1, regNone, 0, false, probeTarget, 0);
            add(op, regZero, 1, regNone, 0, false, probeTarget, 0);
            add(op, regRa, regZero, regNone, 0, false, probeTarget, 0);
            add(op, 1, 1, regNone, 0, false, probeTarget, 0);
            break;
          case InsnClass::Handle:
            for (std::size_t t = 0; t < table.size(); ++t) {
                auto id = static_cast<std::int64_t>(t);
                add(op, 1, 2, 3, id, false, dataBase, 5);
                add(op, 1, 2, 3, id, false, dataBase + 8, ~0ull);
                add(op, regZero, 2, 3, id, false, 0, 0x40);
                add(op, 1, 2, regZero, id, false, dataBase, 5);
            }
            break;
          case InsnClass::Nop:
          case InsnClass::Halt:
            add(op, regZero, regZero, regNone, 0, false, 0, 0);
            break;
        }
    }
    return out;
}

Effect
runProbe(const Probe &p, const MgTable &table)
{
    Program prog;
    prog.text.assign(16, Instruction{});   // nops
    prog.text[0] = p.in;
    prog.text[15] = Instruction{Op::HALT};
    for (int i = 0; i < 64; ++i)
        prog.data.push_back(static_cast<std::uint8_t>(0x40 + i));
    Emulator emu(prog, &table);
    for (Addr i = 0; i < 32; ++i)
        emu.memory().writeByte(pageEdge - 16 + i,
                               static_cast<std::uint8_t>(0xa0 + i));
    emu.setReg(1, p.a);
    emu.setReg(f1, p.a);
    emu.setReg(2, p.b);
    emu.setReg(f2, p.b);

    ExecRecord rec;
    Effect e{};
    e.more = emu.step(&rec);
    e.pc = rec.pc;
    e.nextPc = rec.nextPc;
    e.taken = rec.taken;
    e.isMem = rec.isMem;
    e.memIsStore = rec.memIsStore;
    e.memAddr = rec.memAddr;
    e.memBytes = rec.memBytes;
    e.memData = rec.memData;
    e.padNop = rec.padNop;
    e.cls = static_cast<int>(rec.cls);
    e.work = emu.dynWork();
    RegId d = p.in.dst();
    e.dst = d == regNone ? 0 : emu.reg(d);
    e.mem = rec.isMem ? emu.memory().read(rec.memAddr, 8) : 0;
    e.regHash = fnv1a64(nullptr, 0);
    for (RegId r = 0; r < numArchRegs + 4; ++r) {
        std::uint64_t v = emu.reg(r);
        e.regHash = fnv1a64(&v, sizeof v, e.regHash);
    }
    EXPECT_EQ(rec.insn, &prog.text[0]) << p.in.disasm();
    return e;
}

/** Per-opcode digest of allProbes' effects, indexed by Op. */
const std::uint64_t recordedEffects[] = {
    0x721dbf2a9bf59088ull,  // addl
    0x5dfa27773bed9779ull,  // addq
    0x956f9d9866347778ull,  // subl
    0x9c2a91fd59ab6201ull,  // subq
    0x8e6d290c733422cdull,  // mull
    0x9a67d855d5ab52f5ull,  // mulq
    0xe5a242c7f7bf11a1ull,  // s4addl
    0xffaa7710e6f9c544ull,  // s8addl
    0xb5f1dd9097220eafull,  // s4addq
    0xded959f913745044ull,  // s8addq
    0x68a844453f992d5eull,  // and
    0x43ae1d6635f53f24ull,  // bis
    0xf404b050d77bd93bull,  // xor
    0xdc8f94a036376986ull,  // bic
    0x871b367f95b46cf2ull,  // ornot
    0x598b0ebc358de082ull,  // eqv
    0xe7669da04ac9f652ull,  // sll
    0xc790de4cd12766c7ull,  // srl
    0x2c16fe43fa3b7dbcull,  // sra
    0x1b2b77803302e9f0ull,  // cmpeq
    0x37dc53c1c833deadull,  // cmplt
    0xa2541038815c6411ull,  // cmple
    0xecfd26dd097a660aull,  // cmpult
    0x85dcd6d62b956276ull,  // cmpule
    0x5dfa27773bed9779ull,  // lda
    0x483115ac47810ea0ull,  // ldah
    0x6cb16d9b169cff07ull,  // sextb
    0x9d9d87844d07c399ull,  // sextw
    0x42257e33a5527e2dull,  // ctpop
    0x02b95d0a57778173ull,  // ctlz
    0xe09dd64dcd4e5b9cull,  // cttz
    0xfa44842578687f92ull,  // zapnot
    0x4b33bd97b63bacfcull,  // cmoveq
    0x1a448c878952e4f0ull,  // cmovne
    0xa2b952e952ae7c56ull,  // addt
    0x7307959cd0ef3a47ull,  // subt
    0x79acb745d5f80ba7ull,  // mult
    0xd8faaa6fc7d8f90aull,  // divt
    0xdfaac16945ba20e5ull,  // cmpteq
    0x3faee3351f8e825full,  // cmptlt
    0xc4bc45745cf1af7eull,  // cmptle
    0xacf7d65a5ef7f05aull,  // cvtqt
    0xe92b6df73563947full,  // cvttq
    0xb68cafb5034309f1ull,  // cpys
    0x6aa6966336c0899full,  // ldbu
    0xfad034545efcf816ull,  // ldwu
    0xe246d599374b8e6eull,  // ldl
    0x4c10b92dc0693cf7ull,  // ldq
    0x4e2d3a8734c51468ull,  // ldt
    0xe049af25b3a3640full,  // stb
    0xdc3a34e866e213bdull,  // stw
    0xc6cf9eca2a110fbcull,  // stl
    0x9150c10378ebfe60ull,  // stq
    0x9150c10378ebfe60ull,  // stt
    0xbd8d408aff3882bfull,  // beq
    0x41ee87acfc998b2bull,  // bne
    0xd09d68e897a3725bull,  // blt
    0x6881dd4ce660ee0full,  // ble
    0x496fe73e19220d73ull,  // bgt
    0x1aaea7098cf3bc47ull,  // bge
    0x7d855dcef06b8383ull,  // blbc
    0xf28476e388229e6full,  // blbs
    0xf855accf7a3a0805ull,  // fbeq
    0xb1d660123e14df65ull,  // fbne
    0x4521d8082d35d94cull,  // br
    0x4521d8082d35d94cull,  // bsr
    0x60a6881e7cbf98beull,  // jmp
    0x60a6881e7cbf98beull,  // jsr
    0x60a6881e7cbf98beull,  // ret
    0x255e39fe2813f4b3ull,  // mg
    0xd1535dbb927c1567ull,  // nop
    0x5d75546e8c83a8a7ull,  // halt
};

TEST(EmuSemantics, EveryOpcodeMatchesRecordedEffects)
{
    static_assert(std::size(recordedEffects) ==
                  static_cast<std::size_t>(Op::NUM_OPS));
    MgTable table = probeTable();
    std::vector<Probe> probes = allProbes(table);
    std::vector<Effect> effects;
    std::vector<std::uint64_t> digest(std::size(recordedEffects),
                                      fnv1a64(nullptr, 0));
    std::vector<int> count(digest.size(), 0);
    for (const Probe &p : probes) {
        effects.push_back(runProbe(p, table));
        auto op = static_cast<std::size_t>(p.in.op);
        digest[op] = mixEffect(effects.back(), digest[op]);
        ++count[op];
    }
    for (std::size_t op = 0; op < digest.size(); ++op) {
        EXPECT_GT(count[op], 0) << opName(static_cast<Op>(op));
        if (digest[op] == recordedEffects[op])
            continue;
        std::string dump;
        for (std::size_t i = 0; i < probes.size(); ++i) {
            if (static_cast<std::size_t>(probes[i].in.op) == op)
                dump += describe(probes[i], effects[i]) + "\n";
        }
        ADD_FAILURE() << opName(static_cast<Op>(op))
                      << " effects changed:\n" << dump;
    }
}

TEST(EmuSemantics, BadSlotsFaultOnlyWhenExecuted)
{
    // A slot the emulator cannot run decodes to a fault raised only if
    // that slot executes: behind a halt it is harmless.
    auto program = [](Instruction first, Instruction second) {
        Program p;
        p.text = {first, second};
        return p;
    };
    const Instruction halt{Op::HALT};
    const Instruction badReg{Op::ADDQ, 1, 70, 3};
    const Instruction handle{Op::MG, 1, 2, 3, 0};

    Program behind = program(halt, badReg);
    EXPECT_EQ(Emulator(behind).run().stop, StopReason::Halted);
    Program handleBehind = program(halt, handle);
    EXPECT_EQ(Emulator(handleBehind).run().stop, StopReason::Halted);

    Program ahead = program(badReg, halt);
    EXPECT_DEATH(Emulator(ahead).run(), "register id 70 out of range");
    Program noTable = program(handle, halt);
    EXPECT_EXIT(Emulator(noTable).run(), ::testing::ExitedWithCode(1),
                "handles but no MGT");
    MgTable empty;
    EXPECT_DEATH(Emulator(noTable, &empty).run(), "bad MGID 0");
}

TEST(EmuControl, LoopAndConditions)
{
    Emulator e = runAsm(R"(
        li r1, 10
        clr r2
loop:
        addq r2, r1, r2
        subq r1, 1, r1
        bgt r1, loop
    )");
    EXPECT_EQ(e.reg(2), 55u);
}

TEST(EmuControl, CallReturn)
{
    Emulator e = runAsm(R"(
        li r16, 5
        bsr r26, double
        mov r0, r1
        br end
double:
        addq r16, r16, r0
        ret
end:
        nop
    )");
    EXPECT_EQ(e.reg(1), 10u);
}

TEST(EmuControl, IndirectJump)
{
    Emulator e = runAsm(R"(
        lda r1, target
        jmp (r1)
        li r2, 1          # skipped
target:
        li r3, 7
    )");
    EXPECT_EQ(e.reg(2), 0u);
    EXPECT_EQ(e.reg(3), 7u);
}

TEST(EmuProfile, BlockCounts)
{
    Program p = assemble(R"(
        .text
main:
        li r1, 3
loop:
        subq r1, 1, r1
        bgt r1, loop
        halt
    )");
    Emulator emu(p);
    emu.run();
    // Block at 'loop' (index 1) executes 3 times; entry block once.
    EXPECT_EQ(emu.profile().count(0), 1u);
    EXPECT_EQ(emu.profile().count(1), 3u);
}

TEST(EmuHandle, ExecutesTemplateAtomically)
{
    // Template for: addl E0,2 -> M0; cmplt M0,E1 -> M1 (output M0).
    MgTemplate t;
    t.insns.push_back({Op::ADDL, {OpndKind::E0, -1},
                       {OpndKind::Imm, -1}, 2, true});
    t.insns.push_back({Op::CMPLT, {OpndKind::M, 0},
                       {OpndKind::E1, -1}, 0, false});
    t.outIdx = 0;
    t.finalize(MgtMachine{});
    MgTable table;
    MgId id = table.add(t);

    Program p = assemble(strfmt(R"(
        .text
main:
        li r18, 10
        li r5, 100
        mg r18, r5, r18, %d
        halt
    )", id));
    Emulator emu(p, &table);
    emu.run();
    EXPECT_EQ(emu.reg(18), 12u);    // output = addl result
    // Interior value (cmplt result) must not touch any register.
    EXPECT_EQ(emu.reg(7), 0u);
}

TEST(EmuHandle, TerminalBranchTaken)
{
    // addl E0,2; bne M0 with displacement +8 (skip one slot).
    MgTemplate t;
    t.insns.push_back({Op::ADDL, {OpndKind::E0, -1},
                       {OpndKind::Imm, -1}, 2, true});
    t.insns.push_back({Op::BNE, {OpndKind::M, 0},
                       {OpndKind::Imm, -1}, 8, false});
    t.outIdx = 0;
    t.finalize(MgtMachine{});
    MgTable table;
    MgId id = table.add(t);

    Program p = assemble(strfmt(R"(
        .text
main:
        li r1, 1
        mg r1, r31, r1, %d
        li r2, 5          # skipped when branch taken
        li r3, 9
        halt
    )", id));
    Emulator emu(p, &table);
    emu.run();
    EXPECT_EQ(emu.reg(1), 3u);
    EXPECT_EQ(emu.reg(2), 0u);
    EXPECT_EQ(emu.reg(3), 9u);
}

TEST(EmuHandle, WorkCountsConstituents)
{
    MgTemplate t;
    t.insns.push_back({Op::ADDL, {OpndKind::E0, -1},
                       {OpndKind::Imm, -1}, 1, true});
    t.insns.push_back({Op::ADDL, {OpndKind::M, 0},
                       {OpndKind::Imm, -1}, 1, true});
    t.outIdx = 1;
    t.finalize(MgtMachine{});
    MgTable table;
    MgId id = table.add(t);

    Program p = assemble(strfmt(
        ".text\nmain:\n mg r31, r31, r1, %d\n halt\n", id));
    Emulator emu(p, &table);
    EmuResult r = emu.run();
    EXPECT_EQ(r.dynInsns, 2u);   // handle + halt
    EXPECT_EQ(r.dynWork, 3u);    // 2 constituents + halt
}

} // namespace
} // namespace mg
