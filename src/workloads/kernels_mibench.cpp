/**
 * @file
 * MiBench-S kernels: embedded-style workloads (bit manipulation,
 * hashing rounds, graph search, string search, block ciphers, pixel
 * conversion). Each mirrors the character of the MiBench program it
 * stands in for.
 */

#include "workloads/kernel.hh"

#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"

namespace mg {

namespace {

// ---------------------------------------------------------------------
// bitcount: two counting methods (ctpop + Kernighan loop) over an
// array of random words.
// ---------------------------------------------------------------------

constexpr int bcN = 1400;
constexpr int bcNLong = 6600;       ///< ~1.1M units of work

const char *bcSrc = R"ASM(
    .text
main:
    ldq  r10, bc_n
    lda  r11, bc_in
    clr  r12
loop:
    ldq  r1, 0(r11)
    ctpop r1, r2
    addq r12, r2, r12
kern:
    beq  r1, kdone
    subq r1, 1, r3
    and  r1, r3, r1
    addq r12, 1, r12
    br   kern
kdone:
    lda  r11, 8(r11)
    subq r10, 1, r10
    bgt  r10, loop
    stq  r12, bc_out
    halt
    .data
bc_n:   .quad 0
bc_out: .quad 0
bc_in:  .space 11200
)ASM";

void
bcSetup(Emulator &emu, int inputSet, int n)
{
    Rng rng(0xb17c0u + static_cast<unsigned>(inputSet));
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("bc_n"), static_cast<std::uint64_t>(n), 8);
    Addr in = p.symbol("bc_in");
    for (int i = 0; i < n; ++i)
        m.write(in + static_cast<Addr>(8 * i), rng.next(), 8);
}

bool
bcValidate(const Emulator &emu, int inputSet, int n)
{
    Rng rng(0xb17c0u + static_cast<unsigned>(inputSet));
    std::uint64_t total = 0;
    for (int i = 0; i < n; ++i) {
        std::uint64_t v = rng.next();
        total += 2ull * static_cast<std::uint64_t>(std::popcount(v));
    }
    return emu.memory().read(emu.program().symbol("bc_out"), 8) == total;
}

/** Long-tier program: the word array grows to bcNLong quads. */
const char *bcLongSrc = scaledSource(
    bcSrc, {{strfmt("bc_in:  .space %d", 8 * bcN),
             strfmt("bc_in:  .space %d", 8 * bcNLong)}});

// ---------------------------------------------------------------------
// sha: SHA-1-style compression rounds (message schedule + 80 rounds of
// rotate/xor/add) over a synthetic message.
// ---------------------------------------------------------------------

constexpr int shaBlocks = 36;
constexpr int shaBlocksLong = 340;  ///< ~1.1M units of work
constexpr int shaBlocksHuge = 3050; ///< ~10.1M units of work

const char *shaSrc = R"ASM(
    .text
    # registers: r10 block counter, r11 msg ptr, r16-r20 state a..e
main:
    ldq  r10, sha_nblk
    lda  r11, sha_msg
    li   r16, 0x67452301
    li   r17, 0xEFCDAB89
    li   r18, 0x98BADCFE
    li   r19, 0x10325476
    li   r20, 0xC3D2E1F0
blk:
    # copy 16 words into w[0..15]
    lda  r12, sha_w
    li   r1, 16
cpy:
    ldl  r2, 0(r11)
    stl  r2, 0(r12)
    lda  r11, 4(r11)
    lda  r12, 4(r12)
    subq r1, 1, r1
    bgt  r1, cpy
    # extend w[16..79]: w[i] = rotl1(w[i-3]^w[i-8]^w[i-14]^w[i-16])
    lda  r12, sha_w
    li   r1, 16
ext:
    s4addq r1, r12, r2
    ldl  r3, -12(r2)
    ldl  r4, -32(r2)
    xor  r3, r4, r3
    ldl  r4, -56(r2)
    xor  r3, r4, r3
    ldl  r4, -64(r2)
    xor  r3, r4, r3
    zapnot r3, 15, r3
    sll  r3, 1, r4
    srl  r3, 31, r5
    bis  r4, r5, r3
    stl  r3, 0(r2)
    addq r1, 1, r1
    cmplt r1, 80, r2
    bne  r2, ext
    # 80 rounds: t = rotl5(a) + ch(b,c,d) + e + K + w[i]
    clr  r1
    mov  r16, r2      # a
    mov  r17, r3      # b
    mov  r18, r4      # c
    mov  r19, r5      # d
    mov  r20, r6      # e
rnd:
    zapnot r2, 15, r7
    sll  r7, 5, r8
    srl  r7, 27, r9
    bis  r8, r9, r7       # rotl5(a)
    and  r3, r4, r8
    bic  r5, r3, r9
    bis  r8, r9, r8       # ch(b,c,d)
    addl r7, r8, r7
    addl r7, r6, r7
    ldq  r8, sha_k
    addl r7, r8, r7
    lda  r9, sha_w
    s4addq r1, r9, r9
    ldl  r8, 0(r9)
    addl r7, r8, r7       # t
    mov  r5, r6           # e = d
    mov  r4, r5           # d = c
    zapnot r3, 15, r8
    sll  r8, 30, r9
    srl  r8, 2, r8
    bis  r8, r9, r4
    addl r4, 0, r4        # c = rotl30(b) (sign-normalized)
    mov  r2, r3           # b = a
    mov  r7, r2           # a = t
    addq r1, 1, r1
    cmplt r1, 80, r7
    bne  r7, rnd
    addl r16, r2, r16
    addl r17, r3, r17
    addl r18, r4, r18
    addl r19, r5, r19
    addl r20, r6, r20
    subq r10, 1, r10
    bgt  r10, blk
    # fold state into one checksum
    zapnot r16, 15, r16
    zapnot r17, 15, r17
    zapnot r18, 15, r18
    zapnot r19, 15, r19
    zapnot r20, 15, r20
    xor  r16, r17, r1
    xor  r1, r18, r1
    addq r1, r19, r1
    xor  r1, r20, r1
    stq  r1, sha_out
    halt
    .data
sha_nblk: .quad 0
sha_k:    .quad 0x5A827999
sha_out:  .quad 0
sha_w:    .space 320
sha_msg:  .space 2304
)ASM";

void
shaSetup(Emulator &emu, int inputSet, int blocks)
{
    Rng rng(0x5a1u + static_cast<unsigned>(inputSet));
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("sha_nblk"), static_cast<std::uint64_t>(blocks), 8);
    Addr msg = p.symbol("sha_msg");
    for (int i = 0; i < blocks * 16; ++i)
        m.write(msg + static_cast<Addr>(4 * i), rng.next() & 0xffffffff,
                4);
}

bool
shaValidate(const Emulator &emu, int inputSet, int blocks)
{
    Rng rng(0x5a1u + static_cast<unsigned>(inputSet));
    auto rotl = [](std::uint32_t v, int n) {
        return (v << n) | (v >> (32 - n));
    };
    std::uint32_t h[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                          0x10325476u, 0xC3D2E1F0u};
    for (int b = 0; b < blocks; ++b) {
        std::uint32_t w[80];
        for (int i = 0; i < 16; ++i)
            w[i] = static_cast<std::uint32_t>(rng.next() & 0xffffffff);
        for (int i = 16; i < 80; ++i)
            w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
        std::uint32_t a = h[0], bb = h[1], c = h[2], d = h[3], e = h[4];
        for (int i = 0; i < 80; ++i) {
            std::uint32_t t = rotl(a, 5) + ((bb & c) | (d & ~bb)) + e +
                0x5A827999u + w[i];
            e = d;
            d = c;
            c = rotl(bb, 30);
            bb = a;
            a = t;
        }
        h[0] += a; h[1] += bb; h[2] += c; h[3] += d; h[4] += e;
    }
    std::uint64_t sum =
        ((static_cast<std::uint64_t>(h[0]) ^ h[1] ^ h[2]) + h[3]) ^ h[4];
    return emu.memory().read(emu.program().symbol("sha_out"), 8) == sum;
}

/** Long-tier program: the message grows to shaBlocksLong 64-byte
 *  blocks. */
const char *shaLongSrc = scaledSource(
    shaSrc, {{strfmt("sha_msg:  .space %d", 64 * shaBlocks),
              strfmt("sha_msg:  .space %d", 64 * shaBlocksLong)}});

/** Huge-tier program: shaBlocksHuge 64-byte blocks. */
const char *shaHugeSrc = scaledSource(
    shaSrc, {{strfmt("sha_msg:  .space %d", 64 * shaBlocks),
              strfmt("sha_msg:  .space %d", 64 * shaBlocksHuge)}});

// ---------------------------------------------------------------------
// dijkstra: O(N^2) single-source shortest paths over a dense random
// adjacency matrix.
// ---------------------------------------------------------------------

constexpr int djN = 48;
constexpr int djNLong = 240;        ///< ~1.2M units of work (O(N^2))
constexpr std::int64_t djInf = 1 << 28;

const char *djSrc = R"ASM(
    .text
main:
    # init dist[i] = INF, visited[i] = 0; dist[0] = 0
    lda  r11, dj_dist
    lda  r12, dj_vis
    ldq  r13, dj_inf
    li   r1, 48
ini:
    stq  r13, 0(r11)
    stq  r31, 0(r12)
    lda  r11, 8(r11)
    lda  r12, 8(r12)
    subq r1, 1, r1
    bgt  r1, ini
    lda  r11, dj_dist
    stq  r31, 0(r11)
    li   r10, 48          # outer iterations
outer:
    # find unvisited min
    clr  r14              # best index
    ldq  r15, dj_inf
    addq r15, 1, r15      # best dist = INF+1
    clr  r1               # i
scan:
    lda  r2, dj_vis
    s8addq r1, r2, r2
    ldq  r3, 0(r2)
    bne  r3, snext
    lda  r2, dj_dist
    s8addq r1, r2, r2
    ldq  r3, 0(r2)
    cmplt r3, r15, r4
    beq  r4, snext
    mov  r3, r15
    mov  r1, r14
snext:
    addq r1, 1, r1
    cmplt r1, 48, r2
    bne  r2, scan
    # mark visited
    lda  r2, dj_vis
    s8addq r14, r2, r2
    li   r3, 1
    stq  r3, 0(r2)
    # relax neighbours: adj row base = adj + u*48*4
    li   r2, 192
    mulq r14, r2, r2
    lda  r3, dj_adj
    addq r3, r2, r16      # row ptr
    lda  r17, dj_dist
    s8addq r14, r17, r2
    ldq  r18, 0(r2)       # dist[u]
    clr  r1
rel:
    lda  r2, dj_vis
    s8addq r1, r2, r2
    ldq  r3, 0(r2)
    bne  r3, rnext
    s4addq r1, r16, r2
    ldl  r4, 0(r2)        # w(u,v)
    addq r18, r4, r4
    s8addq r1, r17, r2
    ldq  r5, 0(r2)
    cmplt r4, r5, r6
    beq  r6, rnext
    stq  r4, 0(r2)
rnext:
    addq r1, 1, r1
    cmplt r1, 48, r2
    bne  r2, rel
    subq r10, 1, r10
    bgt  r10, outer
    # checksum distances
    lda  r11, dj_dist
    li   r1, 48
    clr  r12
sum:
    ldq  r2, 0(r11)
    addq r12, r2, r12
    lda  r11, 8(r11)
    subq r1, 1, r1
    bgt  r1, sum
    stq  r12, dj_out
    halt
    .data
dj_inf:  .quad 268435456
dj_out:  .quad 0
dj_dist: .space 384
dj_vis:  .space 384
dj_adj:  .space 9216
)ASM";

void
djFill(Rng &rng, std::vector<std::int32_t> &adj, int n)
{
    adj.resize(static_cast<size_t>(n) * static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            adj[static_cast<size_t>(i * n + j)] =
                (i == j) ? 0
                         : static_cast<std::int32_t>(1 + rng.below(900));
        }
    }
}

void
djSetup(Emulator &emu, int inputSet, int n)
{
    Rng rng(0xd1357u + static_cast<unsigned>(inputSet));
    std::vector<std::int32_t> adj;
    djFill(rng, adj, n);
    Memory &m = emu.memory();
    Addr a = emu.program().symbol("dj_adj");
    for (size_t i = 0; i < adj.size(); ++i)
        m.write(a + static_cast<Addr>(4 * i),
                static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(adj[i])), 4);
}

bool
djValidate(const Emulator &emu, int inputSet, int n)
{
    Rng rng(0xd1357u + static_cast<unsigned>(inputSet));
    std::vector<std::int32_t> adj;
    djFill(rng, adj, n);
    std::vector<std::int64_t> dist(static_cast<size_t>(n), djInf);
    std::vector<bool> vis(static_cast<size_t>(n), false);
    dist[0] = 0;
    for (int it = 0; it < n; ++it) {
        int u = 0;
        std::int64_t best = djInf + 1;
        for (int i = 0; i < n; ++i) {
            if (!vis[static_cast<size_t>(i)] &&
                dist[static_cast<size_t>(i)] < best) {
                best = dist[static_cast<size_t>(i)];
                u = i;
            }
        }
        vis[static_cast<size_t>(u)] = true;
        for (int v = 0; v < n; ++v) {
            if (vis[static_cast<size_t>(v)])
                continue;
            std::int64_t nd = dist[static_cast<size_t>(u)] +
                adj[static_cast<size_t>(u * n + v)];
            if (nd < dist[static_cast<size_t>(v)])
                dist[static_cast<size_t>(v)] = nd;
        }
    }
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i)
        sum += static_cast<std::uint64_t>(dist[static_cast<size_t>(i)]);
    return emu.memory().read(emu.program().symbol("dj_out"), 8) == sum;
}

/** Every N-dependent line of djSrc for @p n nodes: the node count is
 *  a program *text* constant here (loop bounds, the 4*N adjacency-row
 *  stride, and the data arrays). Multi-line patterns keep each line
 *  unambiguous where the bare bound appears in more than one loop. */
std::vector<std::string>
djLines(int n)
{
    return {
        strfmt("ldq  r13, dj_inf\n    li   r1, %d", n),
        strfmt("li   r10, %d", n),
        strfmt("cmplt r1, %d, r2\n    bne  r2, scan", n),
        strfmt("cmplt r1, %d, r2\n    bne  r2, rel", n),
        strfmt("li   r2, %d", 4 * n),
        strfmt("li   r1, %d\n    clr  r12", n),
        strfmt("dj_dist: .space %d", 8 * n),
        strfmt("dj_vis:  .space %d", 8 * n),
        strfmt("dj_adj:  .space %d", 4 * n * n),
    };
}

/** Long-tier program: every djLines() line resized to djNLong nodes. */
const char *djLongSrc = [] {
    std::vector<std::string> ref = djLines(djN), scaled = djLines(djNLong);
    std::vector<std::pair<std::string, std::string>> subs;
    for (std::size_t i = 0; i < ref.size(); ++i)
        subs.emplace_back(ref[i], scaled[i]);
    return scaledSource(djSrc, subs);
}();

// ---------------------------------------------------------------------
// stringsearch: Horspool search of several patterns over a text.
// ---------------------------------------------------------------------

constexpr int ssTextLen = 4096;
constexpr int ssTextLenLong = 29500;    ///< ~1.1M units of work
constexpr int ssPatLen = 6;
constexpr int ssNumPats = 8;

const char *ssSrc = R"ASM(
    .text
main:
    clr  r20              # match count
    clr  r21              # pattern index
pat:
    # build shift table: all = patlen, then per pattern byte
    lda  r11, ss_shift
    li   r1, 256
    li   r2, 6
fill:
    stq  r2, 0(r11)
    lda  r11, 8(r11)
    subq r1, 1, r1
    bgt  r1, fill
    li   r2, 6
    mulq r21, r2, r1
    lda  r12, ss_pats
    addq r12, r1, r12     # pattern base
    clr  r1               # j in 0..patlen-2
bld:
    addq r12, r1, r2
    ldbu r3, 0(r2)
    li   r4, 5
    subq r4, r1, r4       # shift = patlen-1-j
    lda  r5, ss_shift
    s8addq r3, r5, r5
    stq  r4, 0(r5)
    addq r1, 1, r1
    cmplt r1, 5, r2
    bne  r2, bld
    # scan text
    clr  r13              # pos
    ldq  r14, ss_tlen
    subq r14, 6, r14      # last valid start
scan:
    cmple r13, r14, r1
    beq  r1, pdone
    lda  r2, ss_text
    addq r2, r13, r2      # window base
    # compare from last byte backwards
    li   r3, 5            # k
cmp:
    addq r2, r3, r4
    ldbu r5, 0(r4)
    addq r12, r3, r4
    ldbu r6, 0(r4)
    cmpeq r5, r6, r7
    beq  r7, miss
    subq r3, 1, r3
    bge  r3, cmp
    addq r20, 1, r20      # full match
    addq r13, 6, r13
    br   scan
miss:
    # skip by shift[text[pos+patlen-1]]
    ldbu r5, 5(r2)
    lda  r6, ss_shift
    s8addq r5, r6, r6
    ldq  r7, 0(r6)
    addq r13, r7, r13
    br   scan
pdone:
    addq r21, 1, r21
    cmplt r21, 8, r1
    bne  r1, pat
    stq  r20, ss_out
    halt
    .data
ss_tlen:  .quad 0
ss_out:   .quad 0
ss_shift: .space 2048
ss_pats:  .space 64
ss_text:  .space 4096
)ASM";

void
ssGen(Rng &rng, std::vector<std::uint8_t> &text,
      std::vector<std::uint8_t> &pats, int textLen)
{
    text.resize(static_cast<size_t>(textLen));
    for (auto &c : text)
        c = static_cast<std::uint8_t>('a' + rng.below(6));
    pats.resize(ssNumPats * ssPatLen);
    for (int p = 0; p < ssNumPats; ++p) {
        if (p % 2 == 0 && textLen > ssPatLen) {
            // Half the patterns are sampled from the text so matches
            // actually occur.
            auto off = rng.below(
                static_cast<std::uint64_t>(textLen - ssPatLen));
            for (int j = 0; j < ssPatLen; ++j)
                pats[static_cast<size_t>(p * ssPatLen + j)] =
                    text[static_cast<size_t>(off + j)];
        } else {
            for (int j = 0; j < ssPatLen; ++j)
                pats[static_cast<size_t>(p * ssPatLen + j)] =
                    static_cast<std::uint8_t>('a' + rng.below(6));
        }
    }
}

void
ssSetup(Emulator &emu, int inputSet, int textLen)
{
    Rng rng(0x57a7u + static_cast<unsigned>(inputSet));
    std::vector<std::uint8_t> text, pats;
    ssGen(rng, text, pats, textLen);
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("ss_tlen"), static_cast<std::uint64_t>(textLen), 8);
    m.writeBlock(p.symbol("ss_text"), text.data(), text.size());
    m.writeBlock(p.symbol("ss_pats"), pats.data(), pats.size());
}

bool
ssValidate(const Emulator &emu, int inputSet, int textLen)
{
    Rng rng(0x57a7u + static_cast<unsigned>(inputSet));
    std::vector<std::uint8_t> text, pats;
    ssGen(rng, text, pats, textLen);
    std::uint64_t matches = 0;
    for (int p = 0; p < ssNumPats; ++p) {
        const std::uint8_t *pat = &pats[static_cast<size_t>(p * ssPatLen)];
        std::int64_t shift[256];
        for (auto &s : shift)
            s = ssPatLen;
        for (int j = 0; j < ssPatLen - 1; ++j)
            shift[pat[j]] = ssPatLen - 1 - j;
        std::int64_t pos = 0;
        std::int64_t last = textLen - ssPatLen;
        while (pos <= last) {
            int k = ssPatLen - 1;
            while (k >= 0 &&
                   text[static_cast<size_t>(pos + k)] == pat[k])
                --k;
            if (k < 0) {
                ++matches;
                pos += ssPatLen;
            } else {
                pos += shift[text[static_cast<size_t>(pos + ssPatLen -
                                                      1)]];
            }
        }
    }
    return emu.memory().read(emu.program().symbol("ss_out"), 8) ==
        matches;
}

/** Long-tier program: the text grows to ssTextLenLong bytes. */
const char *ssLongSrc = scaledSource(
    ssSrc, {{strfmt("ss_text:  .space %d", ssTextLen),
             strfmt("ss_text:  .space %d", ssTextLenLong)}});

// ---------------------------------------------------------------------
// blowfish: 16-round Feistel block cipher with four S-boxes.
// ---------------------------------------------------------------------

constexpr int bfBlocks = 340;
constexpr int bfBlocksLong = 2400;      ///< ~1.1M units of work

const char *bfSrc = R"ASM(
    .text
main:
    ldq  r10, bf_nblk
    lda  r11, bf_in
    clr  r20              # checksum
blk:
    ldl  r16, 0(r11)      # L
    zapnot r16, 15, r16
    ldl  r17, 4(r11)      # R
    zapnot r17, 15, r17
    li   r12, 16          # rounds
rnd:
    # F(L): s0[b3] + s1[b2] ^ s2[b1] + s3[b0]  (32-bit)
    srl  r16, 24, r1
    and  r1, 255, r1
    lda  r2, bf_s0
    s4addq r1, r2, r2
    ldl  r3, 0(r2)
    srl  r16, 16, r1
    and  r1, 255, r1
    lda  r2, bf_s1
    s4addq r1, r2, r2
    ldl  r4, 0(r2)
    addl r3, r4, r3
    srl  r16, 8, r1
    and  r1, 255, r1
    lda  r2, bf_s2
    s4addq r1, r2, r2
    ldl  r4, 0(r2)
    xor  r3, r4, r3
    and  r16, 255, r1
    lda  r2, bf_s3
    s4addq r1, r2, r2
    ldl  r4, 0(r2)
    addl r3, r4, r3
    zapnot r3, 15, r3     # F as u32
    xor  r17, r3, r17     # R ^= F(L)
    # swap L and R
    mov  r16, r1
    mov  r17, r16
    mov  r1, r17
    subq r12, 1, r12
    bgt  r12, rnd
    stl  r16, 0(r11)
    stl  r17, 4(r11)
    addq r20, r16, r20
    xor  r20, r17, r20
    lda  r11, 8(r11)
    subq r10, 1, r10
    bgt  r10, blk
    stq  r20, bf_out
    halt
    .data
bf_nblk: .quad 0
bf_out:  .quad 0
bf_s0:   .space 1024
bf_s1:   .space 1024
bf_s2:   .space 1024
bf_s3:   .space 1024
bf_in:   .space 2720
)ASM";

void
bfGen(Rng &rng, std::vector<std::uint32_t> &sbox,
      std::vector<std::uint32_t> &blocks, int nblocks)
{
    sbox.resize(4 * 256);
    for (auto &s : sbox)
        s = static_cast<std::uint32_t>(rng.next());
    blocks.resize(static_cast<size_t>(nblocks) * 2);
    for (auto &b : blocks)
        b = static_cast<std::uint32_t>(rng.next());
}

void
bfSetup(Emulator &emu, int inputSet, int nblocks)
{
    Rng rng(0xb10f5u + static_cast<unsigned>(inputSet));
    std::vector<std::uint32_t> sbox, blocks;
    bfGen(rng, sbox, blocks, nblocks);
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("bf_nblk"), static_cast<std::uint64_t>(nblocks), 8);
    for (int t = 0; t < 4; ++t) {
        Addr base = p.symbol(strfmt("bf_s%d", t));
        for (int i = 0; i < 256; ++i)
            m.write(base + static_cast<Addr>(4 * i),
                    sbox[static_cast<size_t>(t * 256 + i)], 4);
    }
    Addr in = p.symbol("bf_in");
    for (size_t i = 0; i < blocks.size(); ++i)
        m.write(in + static_cast<Addr>(4 * i), blocks[i], 4);
}

bool
bfValidate(const Emulator &emu, int inputSet, int nblocks)
{
    Rng rng(0xb10f5u + static_cast<unsigned>(inputSet));
    std::vector<std::uint32_t> sbox, blocks;
    bfGen(rng, sbox, blocks, nblocks);
    std::uint64_t sum = 0;
    for (int b = 0; b < nblocks; ++b) {
        std::uint32_t l = blocks[static_cast<size_t>(2 * b)];
        std::uint32_t r = blocks[static_cast<size_t>(2 * b + 1)];
        for (int i = 0; i < 16; ++i) {
            std::uint32_t f =
                sbox[(l >> 24) & 255] + sbox[256 + ((l >> 16) & 255)];
            f ^= sbox[512 + ((l >> 8) & 255)];
            f += sbox[768 + (l & 255)];
            r ^= f;
            std::uint32_t t = l;
            l = r;
            r = t;
        }
        sum += l;
        sum ^= r;
    }
    return emu.memory().read(emu.program().symbol("bf_out"), 8) == sum;
}

/** Long-tier program: the block stream grows to bfBlocksLong 8-byte
 *  blocks. */
const char *bfLongSrc = scaledSource(
    bfSrc, {{strfmt("bf_in:   .space %d", 8 * bfBlocks),
             strfmt("bf_in:   .space %d", 8 * bfBlocksLong)}});

// ---------------------------------------------------------------------
// rgb2gray: RGBA-to-luma pixel conversion (the "2rgba"-style pixel
// loop: unpack, weighted sum, pack).
// ---------------------------------------------------------------------

constexpr int rgN = 4200;
constexpr int rgNLong = 58000;      ///< ~1.1M units of work

const char *rgSrc = R"ASM(
    .text
main:
    ldq  r10, rg_n
    lda  r11, rg_in
    lda  r12, rg_gray
    clr  r13
px:
    ldl  r1, 0(r11)
    zapnot r1, 15, r1
    and  r1, 255, r2
    srl  r1, 8, r3
    and  r3, 255, r3
    srl  r1, 16, r4
    and  r4, 255, r4
    mull r2, 77, r2
    mull r3, 151, r3
    mull r4, 28, r4
    addl r2, r3, r5
    addl r5, r4, r5
    srl  r5, 8, r5
    stb  r5, 0(r12)
    addq r13, r5, r13
    lda  r11, 4(r11)
    lda  r12, 1(r12)
    subq r10, 1, r10
    bgt  r10, px
    stq  r13, rg_out
    halt
    .data
rg_n:    .quad 0
rg_out:  .quad 0
rg_gray: .space 4200
rg_in:   .space 16800
)ASM";

void
rgSetup(Emulator &emu, int inputSet, int n)
{
    Rng rng(0x26bau + static_cast<unsigned>(inputSet));
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("rg_n"), static_cast<std::uint64_t>(n), 8);
    Addr in = p.symbol("rg_in");
    for (int i = 0; i < n; ++i)
        m.write(in + static_cast<Addr>(4 * i), rng.next() & 0xffffffff,
                4);
}

bool
rgValidate(const Emulator &emu, int inputSet, int n)
{
    Rng rng(0x26bau + static_cast<unsigned>(inputSet));
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
        std::uint32_t px = static_cast<std::uint32_t>(rng.next());
        std::uint32_t r = px & 255;
        std::uint32_t g = (px >> 8) & 255;
        std::uint32_t b = (px >> 16) & 255;
        sum += (r * 77 + g * 151 + b * 28) >> 8;
    }
    return emu.memory().read(emu.program().symbol("rg_out"), 8) == sum;
}

/** Long-tier program: the pixel input and luma output both grow to
 *  rgNLong entries. */
const char *rgLongSrc = scaledSource(
    rgSrc, {{strfmt("rg_gray: .space %d", rgN),
             strfmt("rg_gray: .space %d", rgNLong)},
            {strfmt("rg_in:   .space %d", 4 * rgN),
             strfmt("rg_in:   .space %d", 4 * rgNLong)}});

} // namespace

std::vector<Kernel>
mibenchKernels()
{
    return {
        {"bitcount", "MiBench-S",
         "bit counting via ctpop and Kernighan's loop", bcSetup,
         bcValidate, {{bcSrc, bcN}, {bcLongSrc, bcNLong}}},
        {"sha", "MiBench-S",
         "SHA-1-style message schedule and 80 compression rounds",
         shaSetup, shaValidate,
         {{shaSrc, shaBlocks}, {shaLongSrc, shaBlocksLong},
          {shaHugeSrc, shaBlocksHuge}}},
        {"dijkstra", "MiBench-S",
         "dense single-source shortest paths (O(N^2) scan)", djSetup,
         djValidate, {{djSrc, djN}, {djLongSrc, djNLong}}},
        {"stringsearch", "MiBench-S",
         "Horspool multi-pattern text search", ssSetup, ssValidate,
         {{ssSrc, ssTextLen}, {ssLongSrc, ssTextLenLong}}},
        {"blowfish", "MiBench-S",
         "16-round Feistel cipher with four S-boxes", bfSetup,
         bfValidate, {{bfSrc, bfBlocks}, {bfLongSrc, bfBlocksLong}}},
        {"rgb2gray", "MiBench-S",
         "RGBA-to-luma pixel conversion loop", rgSetup, rgValidate,
         {{rgSrc, rgN}, {rgLongSrc, rgNLong}}},
    };
}

} // namespace mg
