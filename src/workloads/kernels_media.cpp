/**
 * @file
 * MediaBench-S kernels: media-processing workloads (ADPCM speech
 * coding, adaptive prediction, 8x8 block transforms, LPC lattice
 * filtering), mirroring the character of the MediaBench programs.
 */

#include "workloads/kernel.hh"

#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"

namespace mg {

namespace {

// ---------------------------------------------------------------------
// Shared IMA-ADPCM tables (written into memory by the setups).
// ---------------------------------------------------------------------

const std::int64_t imaIndexTable[16] = {
    -1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8,
};

const std::int64_t imaStepTable[89] = {
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34,
    37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143,
    157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494,
    544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552,
    1707, 1878, 2066, 2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428,
    4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487,
    12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086,
    29794, 32767,
};

void
writeImaTables(Memory &m, const Program &p, const char *stepSym,
               const char *idxSym)
{
    Addr st = p.symbol(stepSym);
    for (int i = 0; i < 89; ++i)
        m.write(st + static_cast<Addr>(8 * i),
                static_cast<std::uint64_t>(imaStepTable[i]), 8);
    Addr it = p.symbol(idxSym);
    for (int i = 0; i < 16; ++i)
        m.write(it + static_cast<Addr>(8 * i),
                static_cast<std::uint64_t>(imaIndexTable[i]), 8);
}

std::vector<std::int64_t>
synthWave(Rng &rng, int n)
{
    // Smooth waveform with noise: integrates small random steps so
    // consecutive samples correlate (like speech).
    std::vector<std::int64_t> w(static_cast<size_t>(n));
    std::int64_t v = 0;
    for (auto &s : w) {
        v += rng.range(-900, 900);
        if (v > 30000)
            v = 30000;
        if (v < -30000)
            v = -30000;
        s = v;
    }
    return w;
}

struct ImaCodec
{
    std::int64_t valpred = 0;
    std::int64_t index = 0;

    std::int64_t
    encode(std::int64_t sample)
    {
        std::int64_t step = imaStepTable[index];
        std::int64_t diff = sample - valpred;
        std::int64_t sign = diff < 0 ? 8 : 0;
        if (sign)
            diff = -diff;
        std::int64_t delta = 0;
        std::int64_t vpdiff = step >> 3;
        if (diff >= step) {
            delta = 4;
            diff -= step;
            vpdiff += step;
        }
        step >>= 1;
        if (diff >= step) {
            delta |= 2;
            diff -= step;
            vpdiff += step;
        }
        step >>= 1;
        if (diff >= step) {
            delta |= 1;
            vpdiff += step;
        }
        if (sign)
            valpred -= vpdiff;
        else
            valpred += vpdiff;
        if (valpred > 32767)
            valpred = 32767;
        if (valpred < -32768)
            valpred = -32768;
        delta |= sign;
        index += imaIndexTable[delta];
        if (index < 0)
            index = 0;
        if (index > 88)
            index = 88;
        return delta;
    }

    std::int64_t
    decode(std::int64_t delta)
    {
        std::int64_t step = imaStepTable[index];
        std::int64_t vpdiff = step >> 3;
        if (delta & 4)
            vpdiff += step;
        if (delta & 2)
            vpdiff += step >> 1;
        if (delta & 1)
            vpdiff += step >> 2;
        if (delta & 8)
            valpred -= vpdiff;
        else
            valpred += vpdiff;
        if (valpred > 32767)
            valpred = 32767;
        if (valpred < -32768)
            valpred = -32768;
        index += imaIndexTable[delta];
        if (index < 0)
            index = 0;
        if (index > 88)
            index = 88;
        return valpred;
    }
};

// ---------------------------------------------------------------------
// adpcm.enc: IMA ADPCM encoder.
// ---------------------------------------------------------------------

constexpr int aeN = 2200;
constexpr int aeNLong = 25000;      ///< ~1.1M units of work

const char *aeSrc = R"ASM(
    .text
    # r10 n, r11 in ptr, r12 out ptr, r16 valpred, r17 index
main:
    ldq  r10, ae_n
    lda  r11, ae_in
    lda  r12, ae_code
    clr  r16
    clr  r17
    clr  r20
smp:
    ldq  r1, 0(r11)       # sample
    lda  r2, ae_step
    s8addq r17, r2, r2
    ldq  r3, 0(r2)        # step
    subq r1, r16, r4      # diff
    clr  r5               # sign
    bge  r4, pos
    li   r5, 8
    subq r31, r4, r4
pos:
    clr  r6               # delta
    sra  r3, 3, r7        # vpdiff = step>>3
    cmple r3, r4, r8
    beq  r8, b2
    li   r6, 4
    subq r4, r3, r4
    addq r7, r3, r7
b2:
    sra  r3, 1, r3
    cmple r3, r4, r8
    beq  r8, b1
    bis  r6, 2, r6
    subq r4, r3, r4
    addq r7, r3, r7
b1:
    sra  r3, 1, r3
    cmple r3, r4, r8
    beq  r8, upd
    bis  r6, 1, r6
    addq r7, r3, r7
upd:
    beq  r5, add
    subq r16, r7, r16
    br   clamp
add:
    addq r16, r7, r16
clamp:
    ldq  r8, ae_max
    cmple r16, r8, r9
    bne  r9, clo
    mov  r8, r16
clo:
    ldq  r8, ae_min
    cmple r8, r16, r9
    bne  r9, idx
    mov  r8, r16
idx:
    bis  r6, r5, r6       # delta |= sign
    lda  r2, ae_idx
    s8addq r6, r2, r2
    ldq  r3, 0(r2)
    addq r17, r3, r17
    bge  r17, ihi
    clr  r17
ihi:
    cmple r17, 88, r9
    bne  r9, emit
    li   r17, 88
emit:
    stb  r6, 0(r12)
    mulq r20, 33, r20
    addq r20, r6, r20
    lda  r11, 8(r11)
    lda  r12, 1(r12)
    subq r10, 1, r10
    bgt  r10, smp
    stq  r20, ae_out
    halt
    .data
ae_n:    .quad 0
ae_max:  .quad 32767
ae_min:  .quad -32768
ae_out:  .quad 0
ae_step: .space 712
ae_idx:  .space 128
ae_code: .space 2200
ae_in:   .space 17600
)ASM";

void
aeSetup(Emulator &emu, int inputSet, int n)
{
    Rng rng(0xadceu + static_cast<unsigned>(inputSet));
    auto wave = synthWave(rng, n);
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("ae_n"), static_cast<std::uint64_t>(n), 8);
    writeImaTables(m, p, "ae_step", "ae_idx");
    Addr in = p.symbol("ae_in");
    for (int i = 0; i < n; ++i)
        m.write(in + static_cast<Addr>(8 * i),
                static_cast<std::uint64_t>(wave[static_cast<size_t>(i)]),
                8);
}

bool
aeValidate(const Emulator &emu, int inputSet, int n)
{
    Rng rng(0xadceu + static_cast<unsigned>(inputSet));
    auto wave = synthWave(rng, n);
    ImaCodec c;
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
        std::int64_t d = c.encode(wave[static_cast<size_t>(i)]);
        sum = sum * 33 + static_cast<std::uint64_t>(d);
    }
    return emu.memory().read(emu.program().symbol("ae_out"), 8) == sum;
}

/** Long-tier program: sample input and code output grow to aeNLong. */
const char *aeLongSrc = scaledSource(
    aeSrc, {{strfmt("ae_code: .space %d", aeN),
             strfmt("ae_code: .space %d", aeNLong)},
            {strfmt("ae_in:   .space %d", 8 * aeN),
             strfmt("ae_in:   .space %d", 8 * aeNLong)}});

// ---------------------------------------------------------------------
// adpcm.dec: IMA ADPCM decoder over a pre-encoded stream.
// ---------------------------------------------------------------------

constexpr int adN = 2600;
constexpr int adNLong = 32000;      ///< ~1.1M units of work

const char *adSrc = R"ASM(
    .text
    # r10 n, r11 code ptr, r16 valpred, r17 index
main:
    ldq  r10, ad_n
    lda  r11, ad_code
    clr  r16
    clr  r17
    clr  r20
smp:
    ldbu r1, 0(r11)       # delta
    lda  r2, ad_step
    s8addq r17, r2, r2
    ldq  r3, 0(r2)        # step
    sra  r3, 3, r7        # vpdiff
    and  r1, 4, r4
    beq  r4, d2
    addq r7, r3, r7
d2:
    and  r1, 2, r4
    beq  r4, d1
    sra  r3, 1, r4
    addq r7, r4, r7
d1:
    and  r1, 1, r4
    beq  r4, dsg
    sra  r3, 2, r4
    addq r7, r4, r7
dsg:
    and  r1, 8, r4
    beq  r4, dadd
    subq r16, r7, r16
    br   dcl
dadd:
    addq r16, r7, r16
dcl:
    ldq  r8, ad_max
    cmple r16, r8, r9
    bne  r9, dlo
    mov  r8, r16
dlo:
    ldq  r8, ad_min
    cmple r8, r16, r9
    bne  r9, didx
    mov  r8, r16
didx:
    lda  r2, ad_idx
    s8addq r1, r2, r2
    ldq  r3, 0(r2)
    addq r17, r3, r17
    bge  r17, dhi
    clr  r17
dhi:
    cmple r17, 88, r9
    bne  r9, dout
    li   r17, 88
dout:
    mulq r20, 17, r20
    xor  r20, r16, r20
    lda  r11, 1(r11)
    subq r10, 1, r10
    bgt  r10, smp
    stq  r20, ad_out
    halt
    .data
ad_n:    .quad 0
ad_max:  .quad 32767
ad_min:  .quad -32768
ad_out:  .quad 0
ad_step: .space 712
ad_idx:  .space 128
ad_code: .space 2600
)ASM";

void
adSetup(Emulator &emu, int inputSet, int n)
{
    Rng rng(0xadcdu + static_cast<unsigned>(inputSet));
    auto wave = synthWave(rng, n);
    ImaCodec enc;
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("ad_n"), static_cast<std::uint64_t>(n), 8);
    writeImaTables(m, p, "ad_step", "ad_idx");
    Addr code = p.symbol("ad_code");
    for (int i = 0; i < n; ++i) {
        std::int64_t d = enc.encode(wave[static_cast<size_t>(i)]);
        m.writeByte(code + static_cast<Addr>(i),
                    static_cast<std::uint8_t>(d));
    }
}

bool
adValidate(const Emulator &emu, int inputSet, int n)
{
    Rng rng(0xadcdu + static_cast<unsigned>(inputSet));
    auto wave = synthWave(rng, n);
    ImaCodec enc, dec;
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
        std::int64_t d = enc.encode(wave[static_cast<size_t>(i)]);
        std::int64_t v = dec.decode(d);
        sum = (sum * 17) ^ static_cast<std::uint64_t>(v);
    }
    return emu.memory().read(emu.program().symbol("ad_out"), 8) == sum;
}

/** Long-tier program: the encoded stream grows to adNLong bytes. */
const char *adLongSrc = scaledSource(
    adSrc, {{strfmt("ad_code: .space %d", adN),
             strfmt("ad_code: .space %d", adNLong)}});

// ---------------------------------------------------------------------
// g721.enc: adaptive 2-tap sign-sign LMS predictor with 4-bit error
// quantization (G.721-flavoured ADPCM).
// ---------------------------------------------------------------------

constexpr int g7N = 2400;
constexpr int g7NLong = 36500;      ///< ~1.1M units of work

const char *g7Src = R"ASM(
    .text
    # r16 w1, r17 w2, r18 y1, r19 y2
main:
    ldq  r10, g7_n
    lda  r11, g7_in
    li   r16, 128
    li   r17, 64
    clr  r18
    clr  r19
    clr  r20
smp:
    ldq  r1, 0(r11)       # x
    mulq r16, r18, r2
    mulq r17, r19, r3
    addq r2, r3, r2
    sra  r2, 8, r2        # pred
    subq r1, r2, r3       # err
    sra  r3, 4, r4        # q
    sll  r4, 4, r5
    addq r2, r5, r6       # rec
    # sign-sign updates
    clr  r7
    bge  r3, ep
    li   r7, 1
ep:
    clr  r8
    bge  r18, y1p
    li   r8, 1
y1p:
    xor  r7, r8, r9
    beq  r9, up1
    subq r16, 1, r16
    br   w2u
up1:
    addq r16, 1, r16
w2u:
    clr  r8
    bge  r19, y2p
    li   r8, 1
y2p:
    xor  r7, r8, r9
    beq  r9, up2
    subq r17, 1, r17
    br   sh
up2:
    addq r17, 1, r17
sh:
    mov  r18, r19
    mov  r6, r18
    mulq r20, 13, r20
    xor  r20, r6, r20
    lda  r11, 8(r11)
    subq r10, 1, r10
    bgt  r10, smp
    stq  r20, g7_out
    halt
    .data
g7_n:   .quad 0
g7_out: .quad 0
g7_in:  .space 19200
)ASM";

void
g7Setup(Emulator &emu, int inputSet, int n)
{
    Rng rng(0x721u + static_cast<unsigned>(inputSet));
    auto wave = synthWave(rng, n);
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("g7_n"), static_cast<std::uint64_t>(n), 8);
    Addr in = p.symbol("g7_in");
    for (int i = 0; i < n; ++i)
        m.write(in + static_cast<Addr>(8 * i),
                static_cast<std::uint64_t>(wave[static_cast<size_t>(i)]),
                8);
}

bool
g7Validate(const Emulator &emu, int inputSet, int n)
{
    Rng rng(0x721u + static_cast<unsigned>(inputSet));
    auto wave = synthWave(rng, n);
    std::int64_t w1 = 128, w2 = 64, y1 = 0, y2 = 0;
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
        std::int64_t x = wave[static_cast<size_t>(i)];
        std::int64_t pred = (w1 * y1 + w2 * y2) >> 8;
        std::int64_t err = x - pred;
        std::int64_t q = err >> 4;
        std::int64_t rec = pred + (q << 4);
        bool es = err < 0;
        w1 += (es != (y1 < 0)) ? -1 : 1;
        w2 += (es != (y2 < 0)) ? -1 : 1;
        y2 = y1;
        y1 = rec;
        sum = (sum * 13) ^ static_cast<std::uint64_t>(rec);
    }
    return emu.memory().read(emu.program().symbol("g7_out"), 8) == sum;
}

/** Long-tier program: the sample input grows to g7NLong quads. */
const char *g7LongSrc = scaledSource(
    g7Src, {{strfmt("g7_in:  .space %d", 8 * g7N),
             strfmt("g7_in:  .space %d", 8 * g7NLong)}});

// ---------------------------------------------------------------------
// jpeg.dct: 8x8 forward DCT per block as two fixed-point 8x8 matrix
// multiplies (out = C * blk * C^T, >>8 after each pass).
// ---------------------------------------------------------------------

constexpr int dctBlocks = 10;
constexpr int dctBlocksLong = 70;   ///< ~1.1M units of work
constexpr int dctBlocksHuge = 625;  ///< ~10.1M units of work

std::vector<std::int64_t>
dctCoeffs()
{
    std::vector<std::int64_t> c(64);
    for (int i = 0; i < 8; ++i) {
        for (int j = 0; j < 8; ++j) {
            double s = (i == 0) ? std::sqrt(0.125) : 0.5;
            c[static_cast<size_t>(i * 8 + j)] =
                static_cast<std::int64_t>(std::lround(
                    256.0 * s *
                    std::cos((2 * j + 1) * i * 3.14159265358979 / 16)));
        }
    }
    return c;
}

// Matrix multiply macro text shared by DCT and IDCT sources: A*B with
// >>8, all operands 8x8 arrays of quads.
const char *dctSrc = R"ASM(
    .text
main:
    ldq  r10, dct_nblk
    lda  r11, dct_in
    clr  r20
blk:
    # tmp = C * in  (tmp[i][j] = sum_k C[i][k] * in[k][j] >> 8)
    clr  r12              # i
mm1i:
    clr  r13              # j
mm1j:
    clr  r14              # k
    clr  r15              # acc
mm1k:
    sll  r12, 3, r1
    addq r1, r14, r1
    lda  r2, dct_c
    s8addq r1, r2, r2
    ldq  r3, 0(r2)        # C[i][k]
    sll  r14, 3, r1
    addq r1, r13, r1
    s8addq r1, r11, r2
    ldq  r4, 0(r2)        # in[k][j]
    mulq r3, r4, r3
    addq r15, r3, r15
    addq r14, 1, r14
    cmplt r14, 8, r1
    bne  r1, mm1k
    sra  r15, 8, r15
    sll  r12, 3, r1
    addq r1, r13, r1
    lda  r2, dct_tmp
    s8addq r1, r2, r2
    stq  r15, 0(r2)
    addq r13, 1, r13
    cmplt r13, 8, r1
    bne  r1, mm1j
    addq r12, 1, r12
    cmplt r12, 8, r1
    bne  r1, mm1i
    # out = tmp * C^T  (out[i][j] = sum_k tmp[i][k] * C[j][k] >> 8)
    clr  r12
mm2i:
    clr  r13
mm2j:
    clr  r14
    clr  r15
mm2k:
    sll  r12, 3, r1
    addq r1, r14, r1
    lda  r2, dct_tmp
    s8addq r1, r2, r2
    ldq  r3, 0(r2)
    sll  r13, 3, r1
    addq r1, r14, r1
    lda  r2, dct_c
    s8addq r1, r2, r2
    ldq  r4, 0(r2)        # C[j][k]
    mulq r3, r4, r3
    addq r15, r3, r15
    addq r14, 1, r14
    cmplt r14, 8, r1
    bne  r1, mm2k
    sra  r15, 8, r15
    mulq r20, 7, r20
    xor  r20, r15, r20
    addq r13, 1, r13
    cmplt r13, 8, r1
    bne  r1, mm2j
    addq r12, 1, r12
    cmplt r12, 8, r1
    bne  r1, mm2i
    lda  r11, 512(r11)
    subq r10, 1, r10
    bgt  r10, blk
    stq  r20, dct_out
    halt
    .data
dct_nblk: .quad 0
dct_out:  .quad 0
dct_c:    .space 512
dct_tmp:  .space 512
dct_in:   .space 5120
)ASM";

void
dctSetup(Emulator &emu, int inputSet, int blocks)
{
    Rng rng(0xdc7u + static_cast<unsigned>(inputSet));
    auto c = dctCoeffs();
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("dct_nblk"), static_cast<std::uint64_t>(blocks), 8);
    Addr ca = p.symbol("dct_c");
    for (int i = 0; i < 64; ++i)
        m.write(ca + static_cast<Addr>(8 * i),
                static_cast<std::uint64_t>(c[static_cast<size_t>(i)]), 8);
    Addr in = p.symbol("dct_in");
    for (int i = 0; i < blocks * 64; ++i)
        m.write(in + static_cast<Addr>(8 * i),
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(rng.below(256)) - 128), 8);
}

bool
dctValidate(const Emulator &emu, int inputSet, int blocks)
{
    Rng rng(0xdc7u + static_cast<unsigned>(inputSet));
    auto c = dctCoeffs();
    std::vector<std::int64_t> in(static_cast<size_t>(blocks) * 64);
    for (auto &v : in)
        v = static_cast<std::int64_t>(rng.below(256)) - 128;
    std::uint64_t sum = 0;
    for (int b = 0; b < blocks; ++b) {
        const std::int64_t *blk = &in[static_cast<size_t>(b) * 64];
        std::int64_t tmp[64];
        for (int i = 0; i < 8; ++i) {
            for (int j = 0; j < 8; ++j) {
                std::int64_t acc = 0;
                for (int k = 0; k < 8; ++k)
                    acc += c[static_cast<size_t>(i * 8 + k)] *
                        blk[k * 8 + j];
                tmp[i * 8 + j] = acc >> 8;
            }
        }
        for (int i = 0; i < 8; ++i) {
            for (int j = 0; j < 8; ++j) {
                std::int64_t acc = 0;
                for (int k = 0; k < 8; ++k)
                    acc += tmp[i * 8 + k] *
                        c[static_cast<size_t>(j * 8 + k)];
                std::int64_t v = acc >> 8;
                sum = (sum * 7) ^ static_cast<std::uint64_t>(v);
            }
        }
    }
    return emu.memory().read(emu.program().symbol("dct_out"), 8) == sum;
}

/** Long-tier program: the block loop is unchanged, the input segment
 *  grows to dctBlocksLong 8x8 blocks of quads (512 bytes each). */
const char *dctLongSrc = scaledSource(
    dctSrc, {{strfmt("dct_in:   .space %d", 512 * dctBlocks),
              strfmt("dct_in:   .space %d", 512 * dctBlocksLong)}});

/** Huge-tier program: dctBlocksHuge 8x8 blocks. */
const char *dctHugeSrc = scaledSource(
    dctSrc, {{strfmt("dct_in:   .space %d", 512 * dctBlocks),
              strfmt("dct_in:   .space %d", 512 * dctBlocksHuge)}});

// ---------------------------------------------------------------------
// mpeg2.idct: inverse transform (out = C^T * in * C) with a final
// clamp to 0..255 — the decoder-side block loop.
// ---------------------------------------------------------------------

constexpr int idctBlocks = 10;
constexpr int idctBlocksLong = 70;  ///< ~1.1M units of work

const char *idctSrc = R"ASM(
    .text
main:
    ldq  r10, idct_nblk
    lda  r11, idct_in
    clr  r20
blk:
    clr  r12
m1i:
    clr  r13
m1j:
    clr  r14
    clr  r15
m1k:
    sll  r14, 3, r1
    addq r1, r12, r1
    lda  r2, idct_c
    s8addq r1, r2, r2
    ldq  r3, 0(r2)        # C[k][i] (transposed access)
    sll  r14, 3, r1
    addq r1, r13, r1
    s8addq r1, r11, r2
    ldq  r4, 0(r2)
    mulq r3, r4, r3
    addq r15, r3, r15
    addq r14, 1, r14
    cmplt r14, 8, r1
    bne  r1, m1k
    sra  r15, 8, r15
    sll  r12, 3, r1
    addq r1, r13, r1
    lda  r2, idct_tmp
    s8addq r1, r2, r2
    stq  r15, 0(r2)
    addq r13, 1, r13
    cmplt r13, 8, r1
    bne  r1, m1j
    addq r12, 1, r12
    cmplt r12, 8, r1
    bne  r1, m1i
    clr  r12
m2i:
    clr  r13
m2j:
    clr  r14
    clr  r15
m2k:
    sll  r12, 3, r1
    addq r1, r14, r1
    lda  r2, idct_tmp
    s8addq r1, r2, r2
    ldq  r3, 0(r2)
    sll  r14, 3, r1
    addq r1, r13, r1
    lda  r2, idct_c
    s8addq r1, r2, r2
    ldq  r4, 0(r2)        # C[k][j]
    mulq r3, r4, r3
    addq r15, r3, r15
    addq r14, 1, r14
    cmplt r14, 8, r1
    bne  r1, m2k
    sra  r15, 8, r15
    addq r15, 128, r15    # level shift
    bge  r15, cl0
    clr  r15
cl0:
    cmple r15, 255, r1
    bne  r1, cl1
    li   r15, 255
cl1:
    mulq r20, 11, r20
    addq r20, r15, r20
    addq r13, 1, r13
    cmplt r13, 8, r1
    bne  r1, m2j
    addq r12, 1, r12
    cmplt r12, 8, r1
    bne  r1, m2i
    lda  r11, 512(r11)
    subq r10, 1, r10
    bgt  r10, blk
    stq  r20, idct_out
    halt
    .data
idct_nblk: .quad 0
idct_out:  .quad 0
idct_c:    .space 512
idct_tmp:  .space 512
idct_in:   .space 5120
)ASM";

void
idctSetup(Emulator &emu, int inputSet, int blocks)
{
    Rng rng(0x1dc7u + static_cast<unsigned>(inputSet));
    auto c = dctCoeffs();
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("idct_nblk"), static_cast<std::uint64_t>(blocks), 8);
    Addr ca = p.symbol("idct_c");
    for (int i = 0; i < 64; ++i)
        m.write(ca + static_cast<Addr>(8 * i),
                static_cast<std::uint64_t>(c[static_cast<size_t>(i)]), 8);
    Addr in = p.symbol("idct_in");
    for (int i = 0; i < blocks * 64; ++i)
        m.write(in + static_cast<Addr>(8 * i),
                static_cast<std::uint64_t>(rng.range(-300, 300)), 8);
}

bool
idctValidate(const Emulator &emu, int inputSet, int blocks)
{
    Rng rng(0x1dc7u + static_cast<unsigned>(inputSet));
    auto c = dctCoeffs();
    std::vector<std::int64_t> in(static_cast<size_t>(blocks) * 64);
    for (auto &v : in)
        v = rng.range(-300, 300);
    std::uint64_t sum = 0;
    for (int b = 0; b < blocks; ++b) {
        const std::int64_t *blk = &in[static_cast<size_t>(b) * 64];
        std::int64_t tmp[64];
        for (int i = 0; i < 8; ++i) {
            for (int j = 0; j < 8; ++j) {
                std::int64_t acc = 0;
                for (int k = 0; k < 8; ++k)
                    acc += c[static_cast<size_t>(k * 8 + i)] *
                        blk[k * 8 + j];
                tmp[i * 8 + j] = acc >> 8;
            }
        }
        for (int i = 0; i < 8; ++i) {
            for (int j = 0; j < 8; ++j) {
                std::int64_t acc = 0;
                for (int k = 0; k < 8; ++k)
                    acc += tmp[i * 8 + k] *
                        c[static_cast<size_t>(k * 8 + j)];
                std::int64_t v = (acc >> 8) + 128;
                if (v < 0)
                    v = 0;
                if (v > 255)
                    v = 255;
                sum = sum * 11 + static_cast<std::uint64_t>(v);
            }
        }
    }
    return emu.memory().read(emu.program().symbol("idct_out"), 8) == sum;
}

/** Long-tier program: the input segment grows to idctBlocksLong 8x8
 *  blocks. */
const char *idctLongSrc = scaledSource(
    idctSrc, {{strfmt("idct_in:   .space %d", 512 * idctBlocks),
               strfmt("idct_in:   .space %d", 512 * idctBlocksLong)}});

// ---------------------------------------------------------------------
// gsm.lpc: 8-stage fixed-point LPC analysis filter (serial dependence
// chain per sample, like GSM's short-term filter).
// ---------------------------------------------------------------------

constexpr int lpcN = 1500;
constexpr int lpcNLong = 6500;      ///< ~1.1M units of work
constexpr int lpcStages = 8;

const char *lpcSrc = R"ASM(
    .text
main:
    ldq  r10, lpc_n
    lda  r11, lpc_in
    clr  r20
smp:
    ldq  r16, 0(r11)      # e = x
    clr  r12              # k
stage:
    lda  r1, lpc_a
    s8addq r12, r1, r1
    ldq  r2, 0(r1)        # a[k]
    lda  r3, lpc_d
    s8addq r12, r3, r3
    ldq  r4, 0(r3)        # d[k]
    mulq r2, r4, r5
    sra  r5, 12, r5
    subq r16, r5, r16     # e -= (a[k]*d[k])>>12
    addq r12, 1, r12
    cmplt r12, 8, r5
    bne  r5, stage
    # shift delay line: d[7..1] = d[6..0], d[0] = x
    li   r12, 7
shft:
    subq r12, 1, r13
    lda  r3, lpc_d
    s8addq r13, r3, r3
    ldq  r4, 0(r3)
    lda  r5, lpc_d
    s8addq r12, r5, r5
    stq  r4, 0(r5)
    mov  r13, r12
    bgt  r12, shft
    ldq  r1, 0(r11)
    lda  r3, lpc_d
    stq  r1, 0(r3)
    mulq r20, 19, r20
    xor  r20, r16, r20
    lda  r11, 8(r11)
    subq r10, 1, r10
    bgt  r10, smp
    stq  r20, lpc_out
    halt
    .data
lpc_n:   .quad 0
lpc_out: .quad 0
lpc_a:   .space 64
lpc_d:   .space 64
lpc_in:  .space 12000
)ASM";

void
lpcSetup(Emulator &emu, int inputSet, int n)
{
    Rng rng(0x95bu + static_cast<unsigned>(inputSet));
    auto wave = synthWave(rng, n);
    Memory &m = emu.memory();
    const Program &p = emu.program();
    m.write(p.symbol("lpc_n"), static_cast<std::uint64_t>(n), 8);
    Addr a = p.symbol("lpc_a");
    for (int k = 0; k < lpcStages; ++k)
        m.write(a + static_cast<Addr>(8 * k),
                static_cast<std::uint64_t>(rng.range(-2048, 2048)), 8);
    Addr in = p.symbol("lpc_in");
    for (int i = 0; i < n; ++i)
        m.write(in + static_cast<Addr>(8 * i),
                static_cast<std::uint64_t>(wave[static_cast<size_t>(i)]),
                8);
}

bool
lpcValidate(const Emulator &emu, int inputSet, int n)
{
    Rng rng(0x95bu + static_cast<unsigned>(inputSet));
    auto wave = synthWave(rng, n);
    std::int64_t a[lpcStages];
    for (auto &v : a)
        v = rng.range(-2048, 2048);
    std::int64_t d[lpcStages] = {};
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
        std::int64_t x = wave[static_cast<size_t>(i)];
        std::int64_t e = x;
        for (int k = 0; k < lpcStages; ++k)
            e -= (a[k] * d[k]) >> 12;
        for (int k = lpcStages - 1; k > 0; --k)
            d[k] = d[k - 1];
        d[0] = x;
        sum = (sum * 19) ^ static_cast<std::uint64_t>(e);
    }
    return emu.memory().read(emu.program().symbol("lpc_out"), 8) == sum;
}

/** Long-tier program: the input segment grows to lpcNLong samples. */
const char *lpcLongSrc = scaledSource(
    lpcSrc, {{strfmt("lpc_in:  .space %d", 8 * lpcN),
              strfmt("lpc_in:  .space %d", 8 * lpcNLong)}});

} // namespace

std::vector<Kernel>
mediaKernels()
{
    return {
        {"adpcm.enc", "MediaBench-S", "IMA ADPCM speech encoder",
         aeSetup, aeValidate, {{aeSrc, aeN}, {aeLongSrc, aeNLong}}},
        {"adpcm.dec", "MediaBench-S", "IMA ADPCM speech decoder",
         adSetup, adValidate, {{adSrc, adN}, {adLongSrc, adNLong}}},
        {"g721.enc", "MediaBench-S",
         "adaptive sign-sign LMS predictive coder", g7Setup, g7Validate,
         {{g7Src, g7N}, {g7LongSrc, g7NLong}}},
        {"jpeg.dct", "MediaBench-S",
         "8x8 fixed-point forward DCT block transform", dctSetup,
         dctValidate,
         {{dctSrc, dctBlocks}, {dctLongSrc, dctBlocksLong},
          {dctHugeSrc, dctBlocksHuge}}},
        {"mpeg2.idct", "MediaBench-S",
         "8x8 fixed-point inverse DCT with clamping", idctSetup,
         idctValidate,
         {{idctSrc, idctBlocks}, {idctLongSrc, idctBlocksLong}}},
        {"gsm.lpc", "MediaBench-S",
         "8-stage fixed-point LPC analysis filter", lpcSetup,
         lpcValidate, {{lpcSrc, lpcN}, {lpcLongSrc, lpcNLong}}},
    };
}

} // namespace mg
