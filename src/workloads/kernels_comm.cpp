/**
 * @file
 * CommBench-S kernels: network-processor workloads (frame checksums,
 * packet scheduling, fragmentation, route lookup, forward error
 * correction), mirroring the character of the CommBench programs.
 */

#include "workloads/kernel.hh"

#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"

namespace mg {

namespace {

// ---------------------------------------------------------------------
// crc: table-driven CRC32 (table built in-kernel, then a byte loop).
// ---------------------------------------------------------------------

constexpr int crcN = 3600;
constexpr int crcNLong = 110000;    ///< ~1.1M units of work
constexpr int crcNHuge = 910000;    ///< ~10.0M units of work

const char *crcSrc = R"ASM(
    .text
main:
    # build the 256-entry reflected CRC32 table
    clr  r10              # i
    lda  r11, crc_table
tbl:
    mov  r10, r1          # c = i
    li   r12, 8
inner:
    and  r1, 1, r2
    srl  r1, 1, r1
    beq  r2, skip
    ldq  r3, crc_poly
    xor  r1, r3, r1
skip:
    subq r12, 1, r12
    bgt  r12, inner
    s4addq r10, r11, r4
    stl  r1, 0(r4)
    addq r10, 1, r10
    cmplt r10, 256, r2
    bne  r2, tbl
    # process the buffer
    ldq  r10, crc_n
    lda  r13, crc_in
    li   r14, 0xFFFFFFFF  # running crc
bytes:
    ldbu r1, 0(r13)
    xor  r14, r1, r2
    and  r2, 255, r2
    s4addq r2, r11, r3
    ldl  r4, 0(r3)
    zapnot r4, 15, r4
    srl  r14, 8, r5
    xor  r4, r5, r14
    lda  r13, 1(r13)
    subq r10, 1, r10
    bgt  r10, bytes
    stq  r14, crc_out
    halt
    .data
crc_poly:  .quad 0xEDB88320
crc_n:     .quad 0
crc_out:   .quad 0
crc_table: .space 1024
crc_in:    .space 3600
)ASM";

void
crcSetup(Emulator &emu, int inputSet, int n)
{
    Rng rng(0xc2cu + static_cast<unsigned>(inputSet));
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("crc_n"), static_cast<std::uint64_t>(n), 8);
    Addr in = p.symbol("crc_in");
    for (int i = 0; i < n; ++i)
        m.writeByte(in + static_cast<Addr>(i),
                    static_cast<std::uint8_t>(rng.next()));
}

bool
crcValidate(const Emulator &emu, int inputSet, int n)
{
    Rng rng(0xc2cu + static_cast<unsigned>(inputSet));
    std::uint64_t table[256];
    for (std::uint64_t i = 0; i < 256; ++i) {
        std::uint64_t c = i;
        for (int k = 0; k < 8; ++k) {
            std::uint64_t low = c & 1;
            c >>= 1;
            if (low)
                c ^= 0xEDB88320ull;
        }
        table[i] = c;
    }
    std::uint64_t crc = 0xFFFFFFFFull;
    for (int i = 0; i < n; ++i) {
        std::uint8_t b = static_cast<std::uint8_t>(rng.next());
        crc = table[(crc ^ b) & 255] ^ (crc >> 8);
    }
    return emu.memory().read(emu.program().symbol("crc_out"), 8) == crc;
}

/** Long-tier program: the frame buffer grows to crcNLong bytes. */
const char *crcLongSrc = scaledSource(
    crcSrc, {{strfmt("crc_in:    .space %d", crcN),
              strfmt("crc_in:    .space %d", crcNLong)}});

/** Huge-tier program: crcNHuge frame bytes. */
const char *crcHugeSrc = scaledSource(
    crcSrc, {{strfmt("crc_in:    .space %d", crcN),
              strfmt("crc_in:    .space %d", crcNHuge)}});

// ---------------------------------------------------------------------
// drr: deficit round robin packet scheduling over 8 queues.
// ---------------------------------------------------------------------

constexpr int drrQueues = 8;
constexpr int drrPerQueue = 420;
constexpr int drrPerQueueLong = 3000;   ///< ~1.1M units of work
constexpr std::int64_t drrQuantum = 700;

const char *drrSrc = R"ASM(
    .text
    # queue q's packets are the quads at drr_pkts + q*420*8; heads and
    # deficits are per-queue quads. Serve until every queue is empty.
main:
    ldq  r10, drr_total   # packets remaining
    clr  r20              # checksum
    clr  r21              # service order counter
rr:
    clr  r11              # q
queue:
    lda  r1, drr_head
    s8addq r11, r1, r1
    ldq  r2, 0(r1)        # head index
    ldq  r3, drr_perq
    cmplt r2, r3, r4
    beq  r4, nextq        # queue empty
    # deficit += quantum
    lda  r4, drr_def
    s8addq r11, r4, r4
    ldq  r5, 0(r4)
    ldq  r6, drr_quant
    addq r5, r6, r5
serve:
    cmplt r2, r3, r6
    beq  r6, qdone
    # pkt = pkts[q*perq + head]
    ldq  r6, drr_perq
    mulq r11, r6, r6
    addq r6, r2, r6
    lda  r7, drr_pkts
    s8addq r6, r7, r7
    ldq  r8, 0(r7)        # packet length
    cmple r8, r5, r9
    beq  r9, qdone
    subq r5, r8, r5       # deficit -= len
    addq r2, 1, r2        # pop
    subq r10, 1, r10
    addq r21, 1, r21
    mulq r8, r21, r9
    xor  r20, r9, r20     # order-sensitive checksum
    br   serve
qdone:
    stq  r2, 0(r1)
    stq  r5, 0(r4)
nextq:
    addq r11, 1, r11
    cmplt r11, 8, r2
    bne  r2, queue
    bgt  r10, rr
    stq  r20, drr_out
    halt
    .data
drr_total: .quad 0
drr_perq:  .quad 420
drr_quant: .quad 700
drr_out:   .quad 0
drr_head:  .space 64
drr_def:   .space 64
drr_pkts:  .space 26880
)ASM";

void
drrGen(Rng &rng, std::vector<std::int64_t> &pkts, int perQueue)
{
    pkts.resize(static_cast<size_t>(drrQueues) *
                static_cast<size_t>(perQueue));
    for (auto &l : pkts)
        l = static_cast<std::int64_t>(64 + rng.below(1437));
}

void
drrSetup(Emulator &emu, int inputSet, int perQueue)
{
    Rng rng(0xd66u + static_cast<unsigned>(inputSet));
    std::vector<std::int64_t> pkts;
    drrGen(rng, pkts, perQueue);
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("drr_total"),
            static_cast<std::uint64_t>(drrQueues) *
                static_cast<std::uint64_t>(perQueue),
            8);
    Addr base = p.symbol("drr_pkts");
    for (size_t i = 0; i < pkts.size(); ++i)
        m.write(base + static_cast<Addr>(8 * i),
                static_cast<std::uint64_t>(pkts[i]), 8);
}

bool
drrValidate(const Emulator &emu, int inputSet, int perQueue)
{
    Rng rng(0xd66u + static_cast<unsigned>(inputSet));
    std::vector<std::int64_t> pkts;
    drrGen(rng, pkts, perQueue);
    std::int64_t head[drrQueues] = {};
    std::int64_t deficit[drrQueues] = {};
    std::int64_t remaining =
        static_cast<std::int64_t>(drrQueues) * perQueue;
    std::uint64_t sum = 0;
    std::uint64_t order = 0;
    while (remaining > 0) {
        for (int q = 0; q < drrQueues; ++q) {
            if (head[q] >= perQueue)
                continue;
            deficit[q] += drrQuantum;
            while (head[q] < perQueue) {
                std::int64_t len =
                    pkts[static_cast<size_t>(q * perQueue + head[q])];
                if (len > deficit[q])
                    break;
                deficit[q] -= len;
                ++head[q];
                --remaining;
                ++order;
                sum ^= static_cast<std::uint64_t>(len) * order;
            }
        }
    }
    return emu.memory().read(emu.program().symbol("drr_out"), 8) == sum;
}

/** Long-tier program: the per-queue depth (an assembly-data constant
 *  the scheduler loop reads) and the packet array both grow. */
const char *drrLongSrc = scaledSource(
    drrSrc,
    {{strfmt("drr_perq:  .quad %d", drrPerQueue),
      strfmt("drr_perq:  .quad %d", drrPerQueueLong)},
     {strfmt("drr_pkts:  .space %d", 8 * drrQueues * drrPerQueue),
      strfmt("drr_pkts:  .space %d", 8 * drrQueues * drrPerQueueLong)}});

// ---------------------------------------------------------------------
// frag: IP fragmentation — split packets into MTU-sized fragments and
// emit (offset, len, more-flag) headers.
// ---------------------------------------------------------------------

constexpr int fragPkts = 1300;
constexpr int fragPktsLong = 24000;     ///< ~1.1M units of work
constexpr std::int64_t fragMtu = 576;
constexpr std::int64_t fragHdr = 20;

const char *fragSrc = R"ASM(
    .text
main:
    ldq  r10, frag_n
    lda  r11, frag_len
    clr  r20              # checksum
    clr  r21              # fragments emitted
pkt:
    ldq  r1, 0(r11)       # payload length
    clr  r2               # offset
frag:
    subq r1, r2, r3       # remaining
    ldq  r4, frag_cap     # MTU-20 payload per fragment
    cmple r3, r4, r5
    bne  r5, last
    # full fragment: len = cap, more = 1
    mulq r2, 7, r6
    xor  r6, r4, r6
    addq r6, 1, r6
    xor  r20, r6, r20
    addq r21, 1, r21
    addq r2, r4, r2
    br   frag
last:
    mulq r2, 7, r6
    xor  r6, r3, r6
    xor  r20, r6, r20
    addq r21, 1, r21
    lda  r11, 8(r11)
    subq r10, 1, r10
    bgt  r10, pkt
    stq  r20, frag_out
    stq  r21, frag_cnt
    halt
    .data
frag_n:   .quad 0
frag_cap: .quad 556
frag_out: .quad 0
frag_cnt: .quad 0
frag_len: .space 10400
)ASM";

void
fragGen(Rng &rng, std::vector<std::int64_t> &lens, int pkts)
{
    lens.resize(static_cast<size_t>(pkts));
    for (auto &l : lens)
        l = static_cast<std::int64_t>(40 + rng.below(3960));
}

void
fragSetup(Emulator &emu, int inputSet, int pkts)
{
    Rng rng(0xf4a6u + static_cast<unsigned>(inputSet));
    std::vector<std::int64_t> lens;
    fragGen(rng, lens, pkts);
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("frag_n"), static_cast<std::uint64_t>(pkts), 8);
    Addr base = p.symbol("frag_len");
    for (size_t i = 0; i < lens.size(); ++i)
        m.write(base + static_cast<Addr>(8 * i),
                static_cast<std::uint64_t>(lens[i]), 8);
}

bool
fragValidate(const Emulator &emu, int inputSet, int pkts)
{
    Rng rng(0xf4a6u + static_cast<unsigned>(inputSet));
    std::vector<std::int64_t> lens;
    fragGen(rng, lens, pkts);
    const std::int64_t cap = fragMtu - fragHdr;
    std::uint64_t sum = 0;
    std::uint64_t count = 0;
    for (std::int64_t len : lens) {
        std::int64_t off = 0;
        for (;;) {
            std::int64_t rem = len - off;
            if (rem <= cap) {
                sum ^= static_cast<std::uint64_t>(off * 7) ^
                    static_cast<std::uint64_t>(rem);
                ++count;
                break;
            }
            sum ^= (static_cast<std::uint64_t>(off * 7) ^
                    static_cast<std::uint64_t>(cap)) + 1;
            ++count;
            off += cap;
        }
    }
    const Program &p = emu.program();
    return emu.memory().read(p.symbol("frag_out"), 8) == sum &&
        emu.memory().read(p.symbol("frag_cnt"), 8) == count;
}

/** Long-tier program: the packet-length array grows to fragPktsLong
 *  quads. */
const char *fragLongSrc = scaledSource(
    fragSrc, {{strfmt("frag_len: .space %d", 8 * fragPkts),
               strfmt("frag_len: .space %d", 8 * fragPktsLong)}});

// ---------------------------------------------------------------------
// rtr: two-level radix-trie IPv4 route lookup (16-bit root + 8-bit
// leaf tables), the classic router fast path.
// ---------------------------------------------------------------------

constexpr int rtrLookups = 7000;
constexpr int rtrLookupsLong = 70000;   ///< ~1.2M units of work
constexpr int rtrLeaves = 64;

const char *rtrSrc = R"ASM(
    .text
main:
    ldq  r10, rtr_n
    lda  r11, rtr_ips
    clr  r20
lkp:
    ldl  r1, 0(r11)
    zapnot r1, 15, r1
    srl  r1, 16, r2       # root index
    lda  r3, rtr_root
    s4addq r2, r3, r3
    ldl  r4, 0(r3)
    zapnot r4, 15, r4
    ldq  r5, rtr_flag
    and  r4, r5, r6
    beq  r6, hop          # direct next hop
    # leaf lookup: leafId = entry & 0xffff, index = (ip>>8)&255
    ldq  r6, rtr_lmask
    and  r4, r6, r4
    sll  r4, 8, r4
    srl  r1, 8, r6
    and  r6, 255, r6
    addq r4, r6, r4
    lda  r6, rtr_leaf
    s4addq r4, r6, r6
    ldl  r4, 0(r6)
    zapnot r4, 15, r4
hop:
    addq r20, r4, r20
    lda  r11, 4(r11)
    subq r10, 1, r10
    bgt  r10, lkp
    stq  r20, rtr_out
    halt
    .data
rtr_n:     .quad 0
rtr_flag:  .quad 0x80000000
rtr_lmask: .quad 0xFFFF
rtr_out:   .quad 0
rtr_root:  .space 262144
rtr_leaf:  .space 65536
rtr_ips:   .space 28000
)ASM";

void
rtrGen(Rng &rng, std::vector<std::uint32_t> &root,
       std::vector<std::uint32_t> &leaf, std::vector<std::uint32_t> &ips,
       int lookups)
{
    root.resize(65536);
    for (auto &e : root) {
        if (rng.below(100) < 25) {
            e = 0x80000000u |
                static_cast<std::uint32_t>(rng.below(rtrLeaves));
        } else {
            e = static_cast<std::uint32_t>(rng.below(256));
        }
    }
    leaf.resize(static_cast<size_t>(rtrLeaves) * 256);
    for (auto &e : leaf)
        e = static_cast<std::uint32_t>(rng.below(256));
    ips.resize(static_cast<size_t>(lookups));
    for (auto &ip : ips)
        ip = static_cast<std::uint32_t>(rng.next());
}

void
rtrSetup(Emulator &emu, int inputSet, int lookups)
{
    Rng rng(0x2077u + static_cast<unsigned>(inputSet));
    std::vector<std::uint32_t> root, leaf, ips;
    rtrGen(rng, root, leaf, ips, lookups);
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("rtr_n"), static_cast<std::uint64_t>(lookups), 8);
    Addr r = p.symbol("rtr_root");
    for (size_t i = 0; i < root.size(); ++i)
        m.write(r + static_cast<Addr>(4 * i), root[i], 4);
    Addr l = p.symbol("rtr_leaf");
    for (size_t i = 0; i < leaf.size(); ++i)
        m.write(l + static_cast<Addr>(4 * i), leaf[i], 4);
    Addr a = p.symbol("rtr_ips");
    for (size_t i = 0; i < ips.size(); ++i)
        m.write(a + static_cast<Addr>(4 * i), ips[i], 4);
}

bool
rtrValidate(const Emulator &emu, int inputSet, int lookups)
{
    Rng rng(0x2077u + static_cast<unsigned>(inputSet));
    std::vector<std::uint32_t> root, leaf, ips;
    rtrGen(rng, root, leaf, ips, lookups);
    std::uint64_t sum = 0;
    for (std::uint32_t ip : ips) {
        std::uint32_t e = root[ip >> 16];
        if (e & 0x80000000u)
            e = leaf[(e & 0xffffu) * 256 + ((ip >> 8) & 255)];
        sum += e;
    }
    return emu.memory().read(emu.program().symbol("rtr_out"), 8) == sum;
}

/** Long-tier program: the lookup-key stream grows to rtrLookupsLong
 *  4-byte addresses; the trie tables are unchanged. */
const char *rtrLongSrc = scaledSource(
    rtrSrc, {{strfmt("rtr_ips:   .space %d", 4 * rtrLookups),
              strfmt("rtr_ips:   .space %d", 4 * rtrLookupsLong)}});

// ---------------------------------------------------------------------
// reed: Reed-Solomon-style systematic encoder over GF(256) using
// log/antilog tables (tables precomputed by setup).
// ---------------------------------------------------------------------

constexpr int reedBlocks = 40;
constexpr int reedBlocksLong = 145;     ///< ~1.1M units of work
constexpr int reedK = 32;       // data bytes per block
constexpr int reedR = 8;        // parity bytes per block

const char *reedSrc = R"ASM(
    .text
main:
    ldq  r10, reed_nblk
    lda  r11, reed_data
    clr  r20
blk:
    # clear parity[0..7]
    lda  r12, reed_par
    li   r1, 8
clrp:
    stb  r31, 0(r12)
    lda  r12, 1(r12)
    subq r1, 1, r1
    bgt  r1, clrp
    li   r13, 32          # data bytes
byte:
    ldbu r1, 0(r11)
    lda  r2, reed_par
    ldbu r3, 0(r2)
    xor  r1, r3, r1       # feedback
    # shift parity left by one
    clr  r4               # j
shl:
    lda  r5, reed_par
    addq r5, r4, r5
    ldbu r6, 1(r5)
    stb  r6, 0(r5)
    addq r4, 1, r4
    cmplt r4, 7, r6
    bne  r6, shl
    lda  r5, reed_par
    stb  r31, 7(r5)
    beq  r1, nofb
    # parity[j] ^= alog[(log[gen[j]] + log[feedback]) % 255]
    lda  r7, reed_log
    addq r7, r1, r7
    ldbu r14, 0(r7)       # log[feedback]
    clr  r4
fb:
    lda  r5, reed_gen
    addq r5, r4, r5
    ldbu r6, 0(r5)        # gen[j]
    lda  r7, reed_log
    addq r7, r6, r7
    ldbu r6, 0(r7)
    addq r6, r14, r6
    ldq  r7, reed_mod
    cmplt r6, r7, r8
    bne  r8, nomod
    subq r6, r7, r6
nomod:
    lda  r7, reed_alog
    addq r7, r6, r7
    ldbu r6, 0(r7)
    lda  r5, reed_par
    addq r5, r4, r5
    ldbu r8, 0(r5)
    xor  r8, r6, r8
    stb  r8, 0(r5)
    addq r4, 1, r4
    cmplt r4, 8, r6
    bne  r6, fb
nofb:
    lda  r11, 1(r11)
    subq r13, 1, r13
    bgt  r13, byte
    # accumulate parity checksum
    lda  r12, reed_par
    li   r1, 8
acc:
    ldbu r2, 0(r12)
    mulq r20, 31, r20
    addq r20, r2, r20
    lda  r12, 1(r12)
    subq r1, 1, r1
    bgt  r1, acc
    subq r10, 1, r10
    bgt  r10, blk
    stq  r20, reed_out
    halt
    .data
reed_nblk: .quad 0
reed_mod:  .quad 255
reed_out:  .quad 0
reed_par:  .space 16
reed_gen:  .space 16
reed_log:  .space 256
reed_alog: .space 512
reed_data: .space 1280
)ASM";

void
reedTables(std::uint8_t *logt, std::uint8_t *alog, std::uint8_t *gen)
{
    // GF(256) with the 0x11d polynomial.
    std::uint32_t x = 1;
    for (int i = 0; i < 255; ++i) {
        alog[i] = static_cast<std::uint8_t>(x);
        logt[x] = static_cast<std::uint8_t>(i);
        x <<= 1;
        if (x & 0x100)
            x ^= 0x11d;
    }
    for (int i = 255; i < 510; ++i)
        alog[i] = alog[i - 255];
    logt[0] = 0;    // never consulted for zero feedback
    for (int j = 0; j < reedR; ++j)
        gen[j] = static_cast<std::uint8_t>(j * 3 + 7);
}

void
reedGenData(Rng &rng, std::vector<std::uint8_t> &data, int blocks)
{
    data.resize(static_cast<size_t>(blocks) * reedK);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
}

void
reedSetup(Emulator &emu, int inputSet, int blocks)
{
    Rng rng(0x2eedu + static_cast<unsigned>(inputSet));
    std::uint8_t logt[256] = {}, alog[512] = {}, gen[16] = {};
    reedTables(logt, alog, gen);
    std::vector<std::uint8_t> data;
    reedGenData(rng, data, blocks);
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("reed_nblk"), static_cast<std::uint64_t>(blocks), 8);
    m.writeBlock(p.symbol("reed_log"), logt, 256);
    m.writeBlock(p.symbol("reed_alog"), alog, 512);
    m.writeBlock(p.symbol("reed_gen"), gen, 16);
    m.writeBlock(p.symbol("reed_data"), data.data(), data.size());
}

bool
reedValidate(const Emulator &emu, int inputSet, int blocks)
{
    Rng rng(0x2eedu + static_cast<unsigned>(inputSet));
    std::uint8_t logt[256] = {}, alog[512] = {}, gen[16] = {};
    reedTables(logt, alog, gen);
    std::vector<std::uint8_t> data;
    reedGenData(rng, data, blocks);
    std::uint64_t sum = 0;
    for (int b = 0; b < blocks; ++b) {
        std::uint8_t par[reedR] = {};
        for (int i = 0; i < reedK; ++i) {
            std::uint8_t fb =
                data[static_cast<size_t>(b * reedK + i)] ^ par[0];
            for (int j = 0; j < reedR - 1; ++j)
                par[j] = par[j + 1];
            par[reedR - 1] = 0;
            if (fb) {
                for (int j = 0; j < reedR; ++j) {
                    int e = logt[gen[j]] + logt[fb];
                    if (e >= 255)
                        e -= 255;
                    par[j] ^= alog[e];
                }
            }
        }
        for (int j = 0; j < reedR; ++j)
            sum = sum * 31 + par[j];
    }
    return emu.memory().read(emu.program().symbol("reed_out"), 8) == sum;
}

/** Long-tier program: the data segment grows to reedBlocksLong
 *  32-byte blocks. */
const char *reedLongSrc = scaledSource(
    reedSrc, {{strfmt("reed_data: .space %d", reedK * reedBlocks),
               strfmt("reed_data: .space %d", reedK * reedBlocksLong)}});

} // namespace

std::vector<Kernel>
commKernels()
{
    return {
        {"crc", "CommBench-S", "table-driven CRC32 frame checksum",
         crcSetup, crcValidate,
         {{crcSrc, crcN}, {crcLongSrc, crcNLong}, {crcHugeSrc, crcNHuge}}},
        {"drr", "CommBench-S", "deficit round robin packet scheduler",
         drrSetup, drrValidate,
         {{drrSrc, drrPerQueue}, {drrLongSrc, drrPerQueueLong}}},
        {"frag", "CommBench-S", "IP fragmentation header generation",
         fragSetup, fragValidate,
         {{fragSrc, fragPkts}, {fragLongSrc, fragPktsLong}}},
        {"rtr", "CommBench-S", "two-level radix-trie route lookup",
         rtrSetup, rtrValidate,
         {{rtrSrc, rtrLookups}, {rtrLongSrc, rtrLookupsLong}}},
        {"reed", "CommBench-S",
         "Reed-Solomon GF(256) systematic encoder", reedSetup,
         reedValidate, {{reedSrc, reedBlocks}, {reedLongSrc, reedBlocksLong}}},
    };
}

} // namespace mg
