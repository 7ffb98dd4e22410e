/**
 * @file
 * SPECint-S kernels: integer workloads with the small basic blocks
 * and branchy control the paper attributes to SPECint (compression,
 * pointer chasing, dictionary lookup, annealing, multi-precision
 * arithmetic, bitboards).
 */

#include "workloads/kernel.hh"

#include <bit>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"

namespace mg {

namespace {

// ---------------------------------------------------------------------
// gzip: LZ77-style compression with a hash head table — literal/match
// decision per position, short match loops.
// ---------------------------------------------------------------------

constexpr int gzN = 5000;
constexpr int gzNLong = 55000;      ///< ~1.1M units of work
constexpr int gzHashSize = 4096;
constexpr int gzMaxMatch = 18;

std::vector<std::uint8_t>
gzInput(Rng &rng, int n)
{
    // Repetitive text: random phrases repeated so matches exist.
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> phrase;
    while (in.size() < static_cast<size_t>(n)) {
        if (phrase.empty() || rng.below(100) < 40) {
            phrase.clear();
            auto len = 4 + rng.below(12);
            for (std::uint64_t i = 0; i < len; ++i)
                phrase.push_back(
                    static_cast<std::uint8_t>('a' + rng.below(8)));
        }
        for (std::uint8_t c : phrase) {
            if (in.size() < static_cast<size_t>(n))
                in.push_back(c);
        }
    }
    return in;
}

const char *gzSrc = R"ASM(
    .text
    # r10 pos, r11 limit(n-18), r20 checksum, r21 output count
main:
    clr  r10
    ldq  r11, gz_n
    subq r11, 18, r11
    clr  r20
    clr  r21
pos:
    cmplt r10, r11, r1
    beq  r1, done
    # h = (in[p]<<4 ^ in[p+1]<<2 ^ in[p+2]) & 4095
    lda  r2, gz_in
    addq r2, r10, r2
    ldbu r3, 0(r2)
    ldbu r4, 1(r2)
    ldbu r5, 2(r2)
    sll  r3, 4, r3
    sll  r4, 2, r4
    xor  r3, r4, r3
    xor  r3, r5, r3
    ldq  r4, gz_hmask
    and  r3, r4, r3
    # cand = head[h] - 1 ; head[h] = pos + 1
    lda  r4, gz_head
    s8addq r3, r4, r4
    ldq  r5, 0(r4)
    subq r5, 1, r5        # cand
    addq r10, 1, r6
    stq  r6, 0(r4)
    blt  r5, lit
    # candidate must be strictly older
    cmplt r5, r10, r6
    beq  r6, lit
    # match length
    lda  r6, gz_in
    addq r6, r5, r6       # cand ptr
    clr  r7               # len
mlen:
    addq r2, r7, r8
    ldbu r8, 0(r8)
    addq r6, r7, r9
    ldbu r9, 0(r9)
    cmpeq r8, r9, r9
    beq  r9, mdone
    addq r7, 1, r7
    cmplt r7, 18, r8
    bne  r8, mlen
mdone:
    cmplt r7, 3, r8
    bne  r8, lit
    # emit match token (len, dist)
    subq r10, r5, r8      # dist
    mulq r8, 41, r8
    xor  r8, r7, r8
    mulq r20, 2, r9
    addq r9, r8, r20
    addq r21, 1, r21
    addq r10, r7, r10
    br   pos
lit:
    ldbu r3, 0(r2)
    mulq r20, 2, r9
    addq r9, r3, r20
    addq r21, 1, r21
    addq r10, 1, r10
    br   pos
done:
    stq  r20, gz_out
    stq  r21, gz_cnt
    halt
    .data
gz_n:     .quad 0
gz_hmask: .quad 4095
gz_out:   .quad 0
gz_cnt:   .quad 0
gz_head:  .space 32768
gz_in:    .space 5000
)ASM";

void
gzSetup(Emulator &emu, int inputSet, int n)
{
    Rng rng(0x9217u + static_cast<unsigned>(inputSet));
    auto in = gzInput(rng, n);
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("gz_n"), static_cast<std::uint64_t>(n), 8);
    m.writeBlock(p.symbol("gz_in"), in.data(), in.size());
}

bool
gzValidate(const Emulator &emu, int inputSet, int n)
{
    Rng rng(0x9217u + static_cast<unsigned>(inputSet));
    auto in = gzInput(rng, n);
    std::vector<std::int64_t> head(gzHashSize, 0);
    std::uint64_t sum = 0, count = 0;
    std::int64_t pos = 0;
    const std::int64_t limit = n - gzMaxMatch;
    while (pos < limit) {
        std::int64_t h = ((in[static_cast<size_t>(pos)] << 4) ^
                          (in[static_cast<size_t>(pos + 1)] << 2) ^
                          in[static_cast<size_t>(pos + 2)]) &
            (gzHashSize - 1);
        std::int64_t cand = head[static_cast<size_t>(h)] - 1;
        head[static_cast<size_t>(h)] = pos + 1;
        std::int64_t len = 0;
        if (cand >= 0 && cand < pos) {
            while (len < gzMaxMatch &&
                   in[static_cast<size_t>(pos + len)] ==
                       in[static_cast<size_t>(cand + len)])
                ++len;
        }
        if (cand >= 0 && cand < pos && len >= 3) {
            std::uint64_t tok =
                static_cast<std::uint64_t>((pos - cand) * 41) ^
                static_cast<std::uint64_t>(len);
            sum = sum * 2 + tok;
            ++count;
            pos += len;
        } else {
            sum = sum * 2 + in[static_cast<size_t>(pos)];
            ++count;
            ++pos;
        }
    }
    const Program &p = emu.program();
    return emu.memory().read(p.symbol("gz_out"), 8) == sum &&
        emu.memory().read(p.symbol("gz_cnt"), 8) == count;
}

/** Long-tier program: the input text grows to gzNLong bytes. */
const char *gzLongSrc = scaledSource(
    gzSrc, {{strfmt("gz_in:    .space %d", gzN),
             strfmt("gz_in:    .space %d", gzNLong)}});

// ---------------------------------------------------------------------
// mcf: pointer-chasing relaxation over a random-permutation linked
// cycle of 32-byte node records (cache-hostile, like mcf's network
// simplex arcs).
// ---------------------------------------------------------------------

constexpr int mcfNodes = 6000;
constexpr int mcfPasses = 2;
constexpr int mcfPassesLong = 18;   ///< ~1.1M units of work
constexpr int mcfPassesHuge = 167;  ///< ~10.1M units of work

const char *mcfSrc = R"ASM(
    .text
    # node record: next(0), cost(8), pot(16), pad(24)
main:
    ldq  r10, mcf_passes
pass:
    lda  r11, mcf_nodes   # u = node 0
    ldq  r12, mcf_n       # steps per pass
step:
    ldq  r1, 0(r11)       # next ptr
    ldq  r2, 8(r11)       # cost(u)
    ldq  r3, 16(r11)      # pot(u)
    addq r3, r2, r4       # pot(u) + cost(u)
    ldq  r5, 16(r1)       # pot(v)
    cmplt r4, r5, r6
    beq  r6, nomin
    stq  r4, 16(r1)
nomin:
    mov  r1, r11
    subq r12, 1, r12
    bgt  r12, step
    subq r10, 1, r10
    bgt  r10, pass
    # checksum potentials
    lda  r11, mcf_nodes
    ldq  r12, mcf_n
    clr  r20
csum:
    ldq  r1, 16(r11)
    addq r20, r1, r20
    lda  r11, 32(r11)
    subq r12, 1, r12
    bgt  r12, csum
    stq  r20, mcf_out
    halt
    .data
mcf_n:      .quad 0
mcf_passes: .quad 0
mcf_out:    .quad 0
mcf_nodes:  .space 192000
)ASM";

void
mcfPerm(Rng &rng, std::vector<std::int64_t> &perm)
{
    perm.resize(mcfNodes);
    for (int i = 0; i < mcfNodes; ++i)
        perm[static_cast<size_t>(i)] = i;
    for (int i = mcfNodes - 1; i > 0; --i) {
        auto j = rng.below(static_cast<std::uint64_t>(i + 1));
        std::swap(perm[static_cast<size_t>(i)], perm[j]);
    }
}

void
mcfSetup(Emulator &emu, int inputSet, int passes)
{
    Rng rng(0x3cfu + static_cast<unsigned>(inputSet));
    std::vector<std::int64_t> perm;
    mcfPerm(rng, perm);
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("mcf_n"), mcfNodes, 8);
    m.write(p.symbol("mcf_passes"), static_cast<std::uint64_t>(passes),
            8);
    Addr base = p.symbol("mcf_nodes");
    // Permutation cycle: node perm[i] -> perm[i+1].
    for (int i = 0; i < mcfNodes; ++i) {
        std::int64_t u = perm[static_cast<size_t>(i)];
        std::int64_t v = perm[static_cast<size_t>((i + 1) % mcfNodes)];
        Addr ua = base + static_cast<Addr>(32 * u);
        m.write(ua, base + static_cast<Addr>(32 * v), 8);
        m.write(ua + 8, rng.below(1000), 8);
        m.write(ua + 16, 1000000 + rng.below(1000000), 8);
    }
}

bool
mcfValidate(const Emulator &emu, int inputSet, int passes)
{
    Rng rng(0x3cfu + static_cast<unsigned>(inputSet));
    std::vector<std::int64_t> perm;
    mcfPerm(rng, perm);
    std::vector<std::int64_t> next(mcfNodes), cost(mcfNodes),
        pot(mcfNodes);
    for (int i = 0; i < mcfNodes; ++i) {
        std::int64_t u = perm[static_cast<size_t>(i)];
        next[static_cast<size_t>(u)] =
            perm[static_cast<size_t>((i + 1) % mcfNodes)];
        cost[static_cast<size_t>(u)] =
            static_cast<std::int64_t>(rng.below(1000));
        pot[static_cast<size_t>(u)] = static_cast<std::int64_t>(
            1000000 + rng.below(1000000));
    }
    for (int pass = 0; pass < passes; ++pass) {
        std::int64_t u = 0;
        for (int s = 0; s < mcfNodes; ++s) {
            std::int64_t v = next[static_cast<size_t>(u)];
            std::int64_t cand = pot[static_cast<size_t>(u)] +
                cost[static_cast<size_t>(u)];
            if (cand < pot[static_cast<size_t>(v)])
                pot[static_cast<size_t>(v)] = cand;
            u = v;
        }
    }
    std::uint64_t sum = 0;
    for (int i = 0; i < mcfNodes; ++i)
        sum += static_cast<std::uint64_t>(pot[static_cast<size_t>(i)]);
    return emu.memory().read(emu.program().symbol("mcf_out"), 8) == sum;
}

// ---------------------------------------------------------------------
// parser: tokenize a byte stream into words and look each up in an
// open-addressed dictionary hash table (like parser's dict lookups).
// ---------------------------------------------------------------------

constexpr int parTextLen = 5200;
constexpr int parTextLenLong = 72000;   ///< ~1.1M units of work
constexpr int parTableSize = 1024;    // 8-byte keys
constexpr int parDictWords = 220;

std::uint64_t
parHash(std::uint64_t key)
{
    return (key * 0x9E3779B97F4A7C15ull) >> 54;   // top 10 bits
}

void
parGen(Rng &rng, std::vector<std::uint64_t> &table,
       std::vector<std::uint8_t> &text, int textLen)
{
    // Dictionary of packed <=8-char words.
    std::vector<std::uint64_t> words;
    for (int i = 0; i < parDictWords; ++i) {
        auto len = 3 + rng.below(6);
        std::uint64_t key = 0;
        for (std::uint64_t j = 0; j < len; ++j)
            key = (key << 8) |
                static_cast<std::uint64_t>('a' + rng.below(10));
        words.push_back(key);
    }
    table.assign(parTableSize, 0);
    for (std::uint64_t w : words) {
        std::uint64_t h = parHash(w) & (parTableSize - 1);
        while (table[h] != 0 && table[h] != w)
            h = (h + 1) & (parTableSize - 1);
        table[h] = w;
    }
    // Text: words (some from the dictionary) separated by spaces.
    text.clear();
    while (text.size() < static_cast<size_t>(textLen - 10)) {
        if (rng.below(100) < 55) {
            std::uint64_t w = words[rng.below(words.size())];
            std::uint8_t buf[8];
            int n = 0;
            while (w) {
                buf[n++] = static_cast<std::uint8_t>(w & 0xff);
                w >>= 8;
            }
            for (int j = n - 1; j >= 0; --j)
                text.push_back(buf[j]);
        } else {
            auto len = 3 + rng.below(6);
            for (std::uint64_t j = 0; j < len; ++j)
                text.push_back(
                    static_cast<std::uint8_t>('a' + rng.below(10)));
        }
        text.push_back(' ');
    }
    while (text.size() < static_cast<size_t>(textLen))
        text.push_back(' ');
}

const char *parSrc = R"ASM(
    .text
    # r10 pos, r11 n, r20 hits, r21 probes
main:
    clr  r10
    ldq  r11, par_n
    clr  r20
    clr  r21
word:
    cmplt r10, r11, r1
    beq  r1, done
    # skip spaces
    lda  r2, par_text
    addq r2, r10, r2
    ldbu r3, 0(r2)
    cmpeq r3, 32, r4
    beq  r4, begin
    addq r10, 1, r10
    br   word
begin:
    # accumulate key until space or end
    clr  r5               # key
key:
    cmplt r10, r11, r1
    beq  r1, lookup
    lda  r2, par_text
    addq r2, r10, r2
    ldbu r3, 0(r2)
    cmpeq r3, 32, r4
    bne  r4, lookup
    sll  r5, 8, r5
    bis  r5, r3, r5
    addq r10, 1, r10
    br   key
lookup:
    beq  r5, word
    # h = (key * K) >> 54, masked
    ldq  r1, par_mult
    mulq r5, r1, r6
    srl  r6, 54, r6
    ldq  r1, par_mask
    and  r6, r1, r6
probe:
    addq r21, 1, r21
    lda  r2, par_table
    s8addq r6, r2, r2
    ldq  r3, 0(r2)
    beq  r3, word         # empty slot: miss
    cmpeq r3, r5, r4
    beq  r4, next
    addq r20, 1, r20      # hit
    br   word
next:
    addq r6, 1, r6
    ldq  r1, par_mask
    and  r6, r1, r6
    br   probe
done:
    mulq r20, 1000000, r1
    addq r1, r21, r1
    stq  r1, par_out
    halt
    .data
par_n:     .quad 0
par_mult:  .quad 0x9E3779B97F4A7C15
par_mask:  .quad 1023
par_out:   .quad 0
par_table: .space 8192
par_text:  .space 5200
)ASM";

void
parSetup(Emulator &emu, int inputSet, int textLen)
{
    Rng rng(0x9a25u + static_cast<unsigned>(inputSet));
    std::vector<std::uint64_t> table;
    std::vector<std::uint8_t> text;
    parGen(rng, table, text, textLen);
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("par_n"), text.size(), 8);
    Addr t = p.symbol("par_table");
    for (size_t i = 0; i < table.size(); ++i)
        m.write(t + static_cast<Addr>(8 * i), table[i], 8);
    m.writeBlock(p.symbol("par_text"), text.data(), text.size());
}

bool
parValidate(const Emulator &emu, int inputSet, int textLen)
{
    Rng rng(0x9a25u + static_cast<unsigned>(inputSet));
    std::vector<std::uint64_t> table;
    std::vector<std::uint8_t> text;
    parGen(rng, table, text, textLen);
    std::uint64_t hits = 0, probes = 0;
    size_t pos = 0;
    const size_t n = text.size();
    while (pos < n) {
        if (text[pos] == ' ') {
            ++pos;
            continue;
        }
        std::uint64_t key = 0;
        while (pos < n && text[pos] != ' ') {
            key = (key << 8) | text[pos];
            ++pos;
        }
        if (key == 0)
            continue;
        std::uint64_t h = parHash(key) & (parTableSize - 1);
        for (;;) {
            ++probes;
            std::uint64_t e = table[h];
            if (e == 0)
                break;
            if (e == key) {
                ++hits;
                break;
            }
            h = (h + 1) & (parTableSize - 1);
        }
    }
    std::uint64_t expect = hits * 1000000 + probes;
    return emu.memory().read(emu.program().symbol("par_out"), 8) ==
        expect;
}

/** Long-tier program: the token text grows to parTextLenLong bytes. */
const char *parLongSrc = scaledSource(
    parSrc, {{strfmt("par_text:  .space %d", parTextLen),
              strfmt("par_text:  .space %d", parTextLenLong)}});

// ---------------------------------------------------------------------
// twolf: annealing-style placement — swap two cells, recompute the
// half-perimeter cost over the netlist, keep improvements.
// ---------------------------------------------------------------------

constexpr int twCells = 128;
constexpr int twNets = 64;
constexpr int twIters = 160;
constexpr int twItersLong = 600;    ///< ~1.1M units of work

const char *twSrc = R"ASM(
    .text
    # r10 iteration, r16 lcg state, r17 current cost
main:
    ldq  r10, tw_iters
    ldq  r16, tw_seed
    # initial cost
    bsr  r26, cost
    mov  r0, r17
iter:
    # pick i = lcg() % cells, j = lcg() % cells
    ldq  r1, tw_lcga
    mulq r16, r1, r16
    ldq  r1, tw_lcgc
    addq r16, r1, r16
    srl  r16, 33, r2
    ldq  r1, tw_cmask
    and  r2, r1, r18      # i
    mulq r16, r16, r2
    ldq  r1, tw_lcga
    mulq r16, r1, r16
    ldq  r1, tw_lcgc
    addq r16, r1, r16
    srl  r16, 33, r2
    ldq  r1, tw_cmask
    and  r2, r1, r19      # j
    # swap positions of cells i and j (x and y quads)
    lda  r1, tw_x
    s8addq r18, r1, r2
    s8addq r19, r1, r3
    ldq  r4, 0(r2)
    ldq  r5, 0(r3)
    stq  r5, 0(r2)
    stq  r4, 0(r3)
    lda  r1, tw_y
    s8addq r18, r1, r2
    s8addq r19, r1, r3
    ldq  r4, 0(r2)
    ldq  r5, 0(r3)
    stq  r5, 0(r2)
    stq  r4, 0(r3)
    # recompute cost
    bsr  r26, cost
    cmple r0, r17, r1
    beq  r1, revert
    mov  r0, r17
    br   next
revert:
    lda  r1, tw_x
    s8addq r18, r1, r2
    s8addq r19, r1, r3
    ldq  r4, 0(r2)
    ldq  r5, 0(r3)
    stq  r5, 0(r2)
    stq  r4, 0(r3)
    lda  r1, tw_y
    s8addq r18, r1, r2
    s8addq r19, r1, r3
    ldq  r4, 0(r2)
    ldq  r5, 0(r3)
    stq  r5, 0(r2)
    stq  r4, 0(r3)
next:
    subq r10, 1, r10
    bgt  r10, iter
    stq  r17, tw_out
    halt
    # --- cost(): r0 = sum over nets |xa-xb| + |ya-yb| ---
cost:
    clr  r0
    clr  r12              # net index
    ldq  r13, tw_nnets
nloop:
    lda  r1, tw_neta
    s8addq r12, r1, r1
    ldq  r2, 0(r1)        # cell a
    lda  r1, tw_netb
    s8addq r12, r1, r1
    ldq  r3, 0(r1)        # cell b
    lda  r1, tw_x
    s8addq r2, r1, r4
    ldq  r4, 0(r4)
    s8addq r3, r1, r5
    ldq  r5, 0(r5)
    subq r4, r5, r4
    sra  r4, 63, r5       # branch-free abs
    xor  r4, r5, r4
    subq r4, r5, r4
    addq r0, r4, r0
    lda  r1, tw_y
    s8addq r2, r1, r4
    ldq  r4, 0(r4)
    s8addq r3, r1, r5
    ldq  r5, 0(r5)
    subq r4, r5, r4
    sra  r4, 63, r5
    xor  r4, r5, r4
    subq r4, r5, r4
    addq r0, r4, r0
    addq r12, 1, r12
    cmplt r12, r13, r1
    bne  r1, nloop
    ret  (r26)
    .data
tw_iters: .quad 0
tw_nnets: .quad 0
tw_seed:  .quad 0
tw_lcga:  .quad 6364136223846793005
tw_lcgc:  .quad 1442695040888963407
tw_cmask: .quad 127
tw_out:   .quad 0
tw_x:     .space 1024
tw_y:     .space 1024
tw_neta:  .space 512
tw_netb:  .space 512
)ASM";

struct TwState
{
    std::vector<std::int64_t> x, y, na, nb;
    std::uint64_t seed;
};

TwState
twGen(Rng &rng)
{
    TwState s;
    s.x.resize(twCells);
    s.y.resize(twCells);
    for (int i = 0; i < twCells; ++i) {
        s.x[static_cast<size_t>(i)] =
            static_cast<std::int64_t>(rng.below(1000));
        s.y[static_cast<size_t>(i)] =
            static_cast<std::int64_t>(rng.below(1000));
    }
    s.na.resize(twNets);
    s.nb.resize(twNets);
    for (int i = 0; i < twNets; ++i) {
        s.na[static_cast<size_t>(i)] =
            static_cast<std::int64_t>(rng.below(twCells));
        s.nb[static_cast<size_t>(i)] =
            static_cast<std::int64_t>(rng.below(twCells));
    }
    s.seed = rng.next() | 1;
    return s;
}

void
twSetup(Emulator &emu, int inputSet, int iters)
{
    Rng rng(0x2017u + static_cast<unsigned>(inputSet));
    TwState s = twGen(rng);
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("tw_iters"), static_cast<std::uint64_t>(iters), 8);
    m.write(p.symbol("tw_nnets"), twNets, 8);
    m.write(p.symbol("tw_seed"), s.seed, 8);
    for (int i = 0; i < twCells; ++i) {
        m.write(p.symbol("tw_x") + static_cast<Addr>(8 * i),
                static_cast<std::uint64_t>(s.x[static_cast<size_t>(i)]),
                8);
        m.write(p.symbol("tw_y") + static_cast<Addr>(8 * i),
                static_cast<std::uint64_t>(s.y[static_cast<size_t>(i)]),
                8);
    }
    for (int i = 0; i < twNets; ++i) {
        m.write(p.symbol("tw_neta") + static_cast<Addr>(8 * i),
                static_cast<std::uint64_t>(s.na[static_cast<size_t>(i)]),
                8);
        m.write(p.symbol("tw_netb") + static_cast<Addr>(8 * i),
                static_cast<std::uint64_t>(s.nb[static_cast<size_t>(i)]),
                8);
    }
}

bool
twValidate(const Emulator &emu, int inputSet, int iters)
{
    Rng rng(0x2017u + static_cast<unsigned>(inputSet));
    TwState s = twGen(rng);
    auto cost = [&]() {
        std::int64_t c = 0;
        for (int i = 0; i < twNets; ++i) {
            std::int64_t a = s.na[static_cast<size_t>(i)];
            std::int64_t b = s.nb[static_cast<size_t>(i)];
            std::int64_t dx = s.x[static_cast<size_t>(a)] -
                s.x[static_cast<size_t>(b)];
            std::int64_t dy = s.y[static_cast<size_t>(a)] -
                s.y[static_cast<size_t>(b)];
            c += (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy);
        }
        return c;
    };
    std::uint64_t lcg = s.seed;
    auto next = [&]() {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return (lcg >> 33) & (twCells - 1);
    };
    std::int64_t cur = cost();
    for (int it = 0; it < iters; ++it) {
        std::uint64_t i = next();
        std::uint64_t j = next();
        std::swap(s.x[i], s.x[j]);
        std::swap(s.y[i], s.y[j]);
        std::int64_t c = cost();
        if (c <= cur) {
            cur = c;
        } else {
            std::swap(s.x[i], s.x[j]);
            std::swap(s.y[i], s.y[j]);
        }
    }
    return emu.memory().read(emu.program().symbol("tw_out"), 8) ==
        static_cast<std::uint64_t>(cur);
}

// ---------------------------------------------------------------------
// gap: multi-precision (bignum) arithmetic — interleaved big-integer
// additions with explicit carry chains over 64-bit limbs.
// ---------------------------------------------------------------------

constexpr int gapLimbs = 32;
constexpr int gapIters = 260;
constexpr int gapItersLong = 1450;  ///< ~1.1M units of work

const char *gapSrc = R"ASM(
    .text
    # alternate A += B and B += A with carry propagation
main:
    ldq  r10, gap_iters
iter:
    # A += B
    lda  r11, gap_a
    lda  r12, gap_b
    ldq  r13, gap_limbs
    clr  r14              # carry
add1:
    ldq  r1, 0(r11)
    ldq  r2, 0(r12)
    addq r1, r2, r3
    cmpult r3, r1, r4     # carry out of a+b
    addq r3, r14, r5
    cmpult r5, r3, r6     # carry out of +carry
    bis  r4, r6, r14
    stq  r5, 0(r11)
    lda  r11, 8(r11)
    lda  r12, 8(r12)
    subq r13, 1, r13
    bgt  r13, add1
    # B += A
    lda  r11, gap_b
    lda  r12, gap_a
    ldq  r13, gap_limbs
    clr  r14
add2:
    ldq  r1, 0(r11)
    ldq  r2, 0(r12)
    addq r1, r2, r3
    cmpult r3, r1, r4
    addq r3, r14, r5
    cmpult r5, r3, r6
    bis  r4, r6, r14
    stq  r5, 0(r11)
    lda  r11, 8(r11)
    lda  r12, 8(r12)
    subq r13, 1, r13
    bgt  r13, add2
    subq r10, 1, r10
    bgt  r10, iter
    # fold A and B into a checksum
    lda  r11, gap_a
    lda  r12, gap_b
    ldq  r13, gap_limbs
    clr  r20
fold:
    ldq  r1, 0(r11)
    ldq  r2, 0(r12)
    xor  r1, r2, r1
    mulq r20, 31, r20
    addq r20, r1, r20
    lda  r11, 8(r11)
    lda  r12, 8(r12)
    subq r13, 1, r13
    bgt  r13, fold
    stq  r20, gap_out
    halt
    .data
gap_iters: .quad 0
gap_limbs: .quad 0
gap_out:   .quad 0
gap_a:     .space 256
gap_b:     .space 256
)ASM";

void
gapGen(Rng &rng, std::vector<std::uint64_t> &a,
       std::vector<std::uint64_t> &b)
{
    a.resize(gapLimbs);
    b.resize(gapLimbs);
    for (auto &v : a)
        v = rng.next();
    for (auto &v : b)
        v = rng.next();
}

void
gapSetup(Emulator &emu, int inputSet, int iters)
{
    Rng rng(0x9a9u + static_cast<unsigned>(inputSet));
    std::vector<std::uint64_t> a, b;
    gapGen(rng, a, b);
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("gap_iters"), static_cast<std::uint64_t>(iters), 8);
    m.write(p.symbol("gap_limbs"), gapLimbs, 8);
    for (int i = 0; i < gapLimbs; ++i) {
        m.write(p.symbol("gap_a") + static_cast<Addr>(8 * i),
                a[static_cast<size_t>(i)], 8);
        m.write(p.symbol("gap_b") + static_cast<Addr>(8 * i),
                b[static_cast<size_t>(i)], 8);
    }
}

bool
gapValidate(const Emulator &emu, int inputSet, int iters)
{
    Rng rng(0x9a9u + static_cast<unsigned>(inputSet));
    std::vector<std::uint64_t> a, b;
    gapGen(rng, a, b);
    auto addInto = [](std::vector<std::uint64_t> &x,
                      const std::vector<std::uint64_t> &y) {
        std::uint64_t carry = 0;
        for (int i = 0; i < gapLimbs; ++i) {
            std::uint64_t s = x[static_cast<size_t>(i)] +
                y[static_cast<size_t>(i)];
            std::uint64_t c1 = s < x[static_cast<size_t>(i)] ? 1 : 0;
            std::uint64_t s2 = s + carry;
            std::uint64_t c2 = s2 < s ? 1 : 0;
            carry = c1 | c2;
            x[static_cast<size_t>(i)] = s2;
        }
    };
    for (int it = 0; it < iters; ++it) {
        addInto(a, b);
        addInto(b, a);
    }
    std::uint64_t sum = 0;
    for (int i = 0; i < gapLimbs; ++i)
        sum = sum * 31 +
            (a[static_cast<size_t>(i)] ^ b[static_cast<size_t>(i)]);
    return emu.memory().read(emu.program().symbol("gap_out"), 8) == sum;
}

// ---------------------------------------------------------------------
// crafty: bitboard move generation — shift-mask mobility counts with
// popcount over random occupancy boards.
// ---------------------------------------------------------------------

constexpr int cfBoards = 2600;
constexpr int cfBoardsLong = 36500;     ///< ~1.1M units of work

const char *cfSrc = R"ASM(
    .text
main:
    ldq  r10, cf_n
    lda  r11, cf_occ
    lda  r12, cf_own
    clr  r20
board:
    ldq  r1, 0(r11)       # occupancy
    ldq  r2, 0(r12)       # own pieces
    ornot r31, r1, r3     # empty = ~occ
    # north moves
    sll  r2, 8, r4
    and  r4, r3, r4
    ctpop r4, r5
    addq r20, r5, r20
    # south moves
    srl  r2, 8, r4
    and  r4, r3, r4
    ctpop r4, r5
    addq r20, r5, r20
    # east moves (mask off H file wrap)
    sll  r2, 1, r4
    ldq  r6, cf_notA
    and  r4, r6, r4
    and  r4, r3, r4
    ctpop r4, r5
    addq r20, r5, r20
    # west moves (mask off A file wrap)
    srl  r2, 1, r4
    ldq  r6, cf_notH
    and  r4, r6, r4
    and  r4, r3, r4
    ctpop r4, r5
    addq r20, r5, r20
    # bonus for boards with mobile center
    ldq  r6, cf_center
    and  r4, r6, r7
    beq  r7, nocen
    addq r20, 3, r20
nocen:
    lda  r11, 8(r11)
    lda  r12, 8(r12)
    subq r10, 1, r10
    bgt  r10, board
    stq  r20, cf_out
    halt
    .data
cf_n:      .quad 0
cf_notA:   .quad 0xFEFEFEFEFEFEFEFE
cf_notH:   .quad 0x7F7F7F7F7F7F7F7F
cf_center: .quad 0x0000001818000000
cf_out:    .quad 0
cf_occ:    .space 20800
cf_own:    .space 20800
)ASM";

void
cfSetup(Emulator &emu, int inputSet, int boards)
{
    Rng rng(0xc4a4u + static_cast<unsigned>(inputSet));
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("cf_n"), static_cast<std::uint64_t>(boards), 8);
    Addr occ = p.symbol("cf_occ");
    Addr own = p.symbol("cf_own");
    for (int i = 0; i < boards; ++i) {
        std::uint64_t o = rng.next() & rng.next();   // ~25% occupancy
        std::uint64_t w = o & rng.next();
        m.write(occ + static_cast<Addr>(8 * i), o, 8);
        m.write(own + static_cast<Addr>(8 * i), w, 8);
    }
}

bool
cfValidate(const Emulator &emu, int inputSet, int boards)
{
    Rng rng(0xc4a4u + static_cast<unsigned>(inputSet));
    std::uint64_t sum = 0;
    for (int i = 0; i < boards; ++i) {
        std::uint64_t o = rng.next() & rng.next();
        std::uint64_t w = o & rng.next();
        std::uint64_t empty = ~o;
        std::uint64_t north = (w << 8) & empty;
        std::uint64_t south = (w >> 8) & empty;
        std::uint64_t east = (w << 1) & 0xFEFEFEFEFEFEFEFEull & empty;
        std::uint64_t west = (w >> 1) & 0x7F7F7F7F7F7F7F7Full & empty;
        sum += static_cast<std::uint64_t>(std::popcount(north)) +
            static_cast<std::uint64_t>(std::popcount(south)) +
            static_cast<std::uint64_t>(std::popcount(east)) +
            static_cast<std::uint64_t>(std::popcount(west));
        if (west & 0x0000001818000000ull)
            sum += 3;
    }
    return emu.memory().read(emu.program().symbol("cf_out"), 8) == sum;
}

/** Long-tier program: the board arrays grow to cfBoardsLong quads. */
const char *cfLongSrc = scaledSource(
    cfSrc, {{strfmt("cf_occ:    .space %d", 8 * cfBoards),
             strfmt("cf_occ:    .space %d", 8 * cfBoardsLong)},
            {strfmt("cf_own:    .space %d", 8 * cfBoards),
             strfmt("cf_own:    .space %d", 8 * cfBoardsLong)}});

} // namespace

std::vector<Kernel>
specintKernels()
{
    return {
        {"gzip", "SPECint-S", "LZ77-style compression with hash heads",
         gzSetup, gzValidate, {{gzSrc, gzN}, {gzLongSrc, gzNLong}}},
        {"mcf", "SPECint-S",
         "pointer-chasing relaxation over a 192KB node cycle", mcfSetup,
         mcfValidate,
         {{mcfSrc, mcfPasses}, {nullptr, mcfPassesLong},
          {nullptr, mcfPassesHuge}}},
        {"parser", "SPECint-S",
         "tokenizer with open-addressed dictionary lookup", parSetup,
         parValidate, {{parSrc, parTextLen}, {parLongSrc, parTextLenLong}}},
        {"twolf", "SPECint-S",
         "annealing placement with half-perimeter cost", twSetup,
         twValidate, {{twSrc, twIters}, {nullptr, twItersLong}}},
        {"gap", "SPECint-S",
         "multi-precision addition with carry chains", gapSetup,
         gapValidate, {{gapSrc, gapIters}, {nullptr, gapItersLong}}},
        {"crafty", "SPECint-S",
         "bitboard mobility evaluation with popcounts", cfSetup,
         cfValidate, {{cfSrc, cfBoards}, {cfLongSrc, cfBoardsLong}}},
    };
}

} // namespace mg
