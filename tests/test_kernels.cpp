/**
 * @file
 * Golden tests for every workload kernel: the emulated assembly must
 * reproduce the C++ reference checksum on the primary and alternate
 * input sets, each kernel must have a sane dynamic length, and every
 * assembled program and planted input of every supported scale is
 * pinned by hash.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <vector>

#include "common/logging.hh"
#include "common/serial.hh"
#include "engine/fingerprint.hh"
#include "workloads/suites.hh"

namespace mg {
namespace {

class KernelGolden : public ::testing::TestWithParam<const char *>
{
};

TEST_P(KernelGolden, ValidatesOnPrimaryInput)
{
    BoundKernel bk = bindKernel(findKernel(GetParam()));
    Emulator emu(*bk.program);
    bk.setup(emu);
    EmuResult r = emu.run(100000000ull);
    ASSERT_EQ(r.stop, StopReason::Halted)
        << bk.kernel->name << " did not halt";
    EXPECT_TRUE(bk.kernel->validateAt(emu, 0, Scale::Ref))
        << bk.kernel->name << " checksum mismatch";
    // Kernels are sized for cycle-level simulation: long enough to be
    // meaningful, short enough to sweep configurations.
    EXPECT_GT(r.dynWork, 20000u) << bk.kernel->name << " too short";
    EXPECT_LT(r.dynWork, 2000000u) << bk.kernel->name << " too long";
}

TEST_P(KernelGolden, ValidatesOnAlternateInput)
{
    BoundKernel bk = bindKernel(findKernel(GetParam()));
    Emulator emu(*bk.program);
    bk.kernel->setupAt(emu, 1, Scale::Ref);
    EmuResult r = emu.run(100000000ull);
    ASSERT_EQ(r.stop, StopReason::Halted);
    EXPECT_TRUE(bk.kernel->validateAt(emu, 1, Scale::Ref))
        << bk.kernel->name << " checksum mismatch on input set 1";
}

/** Derived from the registry so a newly registered kernel is checked
 *  here automatically (FourSuitesRegistered pins the count). */
std::vector<const char *>
kernelNames()
{
    std::vector<const char *> names;
    for (const Kernel &k : allKernels())
        names.push_back(k.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelGolden,
                         ::testing::ValuesIn(kernelNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n) {
                                 if (c == '.')
                                     c = '_';
                             }
                             return n;
                         });

TEST(KernelRegistry, FourSuitesRegistered)
{
    EXPECT_EQ(suiteNames().size(), 4u);
    for (const std::string &s : suiteNames())
        EXPECT_GE(suiteKernels(s).size(), 5u) << s;
    EXPECT_EQ(allKernels().size(), 23u);
}

TEST(KernelRegistry, AllProgramsAssemble)
{
    for (const Kernel &k : allKernels()) {
        const Program &p = kernelProgram(k);
        EXPECT_GT(p.text.size(), 10u) << k.name;
        EXPECT_TRUE(p.symbols.count("main")) << k.name;
    }
}

TEST(KernelRegistry, UnknownKernelFatalEnumeratesTheRegistry)
{
    // The fatal path must list every valid name so a typo is a
    // one-round-trip fix (and --list-kernels has a discovery path).
    EXPECT_EXIT(findKernel("no-such-kernel"),
                ::testing::ExitedWithCode(1),
                "known kernels:(.|\n)*SPECint-S:(.|\n)*gzip");
}

TEST(KernelRegistry, ListingNamesEveryKernelAndItsScales)
{
    std::string listing = kernelListing();
    for (const Kernel &k : allKernels())
        EXPECT_NE(listing.find(k.name), std::string::npos) << k.name;
    // Every kernel advertises exactly the scales it supports: the
    // whole corpus is long-capable, the per-suite representatives add
    // the huge tier, and the listing row reflects each case (this is
    // what `--list-kernels` prints and the CI smoke test greps).
    EXPECT_NE(listing.find("ref,long,huge"), std::string::npos);
    for (const Kernel &k : allKernels()) {
        EXPECT_TRUE(k.supports(Scale::Long)) << k.name;
        std::size_t row = listing.find(k.name);
        ASSERT_NE(row, std::string::npos) << k.name;
        std::size_t eol = listing.find('\n', row);
        std::string line = listing.substr(row, eol - row);
        EXPECT_NE(line.find(k.supports(Scale::Huge) ? "ref,long,huge"
                                                    : "ref,long"),
                  std::string::npos)
            << line;
    }
    EXPECT_TRUE(findKernel("mcf").supports(Scale::Huge));
    EXPECT_FALSE(findKernel("gzip").supports(Scale::Huge));
}

/** One pinned (kernel, scale, input set): the assembled binary and the
 *  data segment as setup leaves it. */
struct InputGolden
{
    const char *kernel;
    Scale scale;
    int inputSet;
    const char *binary;         ///< binaryFingerprint(program, nullptr)
    std::uint64_t data;         ///< FNV-1a of the planted data segment
};

const InputGolden inputGoldens[] = {
    {"gzip", Scale::Ref, 0, "67937954e4c4ec90",
     0x03e55f64097e4144ull},
    {"gzip", Scale::Ref, 1, "67937954e4c4ec90",
     0x50c2e3d44fe96cb5ull},
    {"gzip", Scale::Long, 0, "67937954e4c4ec90",
     0x9fec52a4f4bc9ccfull},
    {"gzip", Scale::Long, 1, "67937954e4c4ec90",
     0x423c71430430acc5ull},
    {"mcf", Scale::Ref, 0, "c0c2f06e7db6e832",
     0xe630f0c32535cda9ull},
    {"mcf", Scale::Ref, 1, "c0c2f06e7db6e832",
     0xd3c5729092c9e48dull},
    {"mcf", Scale::Long, 0, "c0c2f06e7db6e832",
     0x5636764be3a24799ull},
    {"mcf", Scale::Long, 1, "c0c2f06e7db6e832",
     0x508963757270b3fdull},
    {"mcf", Scale::Huge, 0, "c0c2f06e7db6e832",
     0x44f95e41457dfa88ull},
    {"mcf", Scale::Huge, 1, "c0c2f06e7db6e832",
     0xeed941880db05dc0ull},
    {"parser", Scale::Ref, 0, "544a763327b0b44e",
     0x41f87f045387c288ull},
    {"parser", Scale::Ref, 1, "544a763327b0b44e",
     0x2a62791cfd3addccull},
    {"parser", Scale::Long, 0, "544a763327b0b44e",
     0xde7024acb8c8efd1ull},
    {"parser", Scale::Long, 1, "544a763327b0b44e",
     0x5280d1bce881792cull},
    {"twolf", Scale::Ref, 0, "43584b4cd8f1e70e",
     0xbbe3edadacf65c01ull},
    {"twolf", Scale::Ref, 1, "43584b4cd8f1e70e",
     0x987391e90b2495b6ull},
    {"twolf", Scale::Long, 0, "43584b4cd8f1e70e",
     0xcb4d6baee9894cf3ull},
    {"twolf", Scale::Long, 1, "43584b4cd8f1e70e",
     0x833667f714b7b7f0ull},
    {"gap", Scale::Ref, 0, "9341fe0a4938b6be",
     0x5b4f4b701f215854ull},
    {"gap", Scale::Ref, 1, "9341fe0a4938b6be",
     0xdbc72b135ba907dcull},
    {"gap", Scale::Long, 0, "9341fe0a4938b6be",
     0x813d3be2fceea22aull},
    {"gap", Scale::Long, 1, "9341fe0a4938b6be",
     0xf78a69d8d2722452ull},
    {"crafty", Scale::Ref, 0, "a6722880da07d627",
     0x7cb45a475ac386e8ull},
    {"crafty", Scale::Ref, 1, "a6722880da07d627",
     0xee5b03ccac5d58cdull},
    {"crafty", Scale::Long, 0, "c898d516230fe02e",
     0x62fc1159d269da7dull},
    {"crafty", Scale::Long, 1, "c898d516230fe02e",
     0x7bbefbaa512136dbull},
    {"adpcm.enc", Scale::Ref, 0, "09f907d12871ee6b",
     0x5f12f403066c46dbull},
    {"adpcm.enc", Scale::Ref, 1, "09f907d12871ee6b",
     0x1a6b79416363874dull},
    {"adpcm.enc", Scale::Long, 0, "0ccb243985d230fe",
     0xc7ea58798d834663ull},
    {"adpcm.enc", Scale::Long, 1, "0ccb243985d230fe",
     0xcaeb475c49d3025aull},
    {"adpcm.dec", Scale::Ref, 0, "77b6d5cb325bdfdb",
     0x549bc18472354f73ull},
    {"adpcm.dec", Scale::Ref, 1, "77b6d5cb325bdfdb",
     0xf55d5cfd3a69a2d8ull},
    {"adpcm.dec", Scale::Long, 0, "77b6d5cb325bdfdb",
     0x3cc29ca2706094adull},
    {"adpcm.dec", Scale::Long, 1, "77b6d5cb325bdfdb",
     0x350ac1f7d62a2a1full},
    {"g721.enc", Scale::Ref, 0, "78efa4d6704b45cc",
     0xd6a89fb507dd1e62ull},
    {"g721.enc", Scale::Ref, 1, "78efa4d6704b45cc",
     0x5f0fd8e0105ece69ull},
    {"g721.enc", Scale::Long, 0, "78efa4d6704b45cc",
     0x34b9010ce40c1925ull},
    {"g721.enc", Scale::Long, 1, "78efa4d6704b45cc",
     0x6cf058b14290333aull},
    {"jpeg.dct", Scale::Ref, 0, "83d65b0fc619a943",
     0xefb79d6522a43ec3ull},
    {"jpeg.dct", Scale::Ref, 1, "83d65b0fc619a943",
     0xd8a22f32acd74a37ull},
    {"jpeg.dct", Scale::Long, 0, "83d65b0fc619a943",
     0x797c05b6ff47d41eull},
    {"jpeg.dct", Scale::Long, 1, "83d65b0fc619a943",
     0x0bddaf46f05fd8deull},
    {"jpeg.dct", Scale::Huge, 0, "83d65b0fc619a943",
     0xf449cd190e6ca277ull},
    {"jpeg.dct", Scale::Huge, 1, "83d65b0fc619a943",
     0xae1b7740ef836626ull},
    {"mpeg2.idct", Scale::Ref, 0, "aada4f2568136a1c",
     0xd9b23b153ecca3fbull},
    {"mpeg2.idct", Scale::Ref, 1, "aada4f2568136a1c",
     0x0d72b67f3ec645a1ull},
    {"mpeg2.idct", Scale::Long, 0, "aada4f2568136a1c",
     0xbcf2ca235342e0acull},
    {"mpeg2.idct", Scale::Long, 1, "aada4f2568136a1c",
     0x82ed77d92f689c2eull},
    {"gsm.lpc", Scale::Ref, 0, "c921d9ae2b49fd7d",
     0x1456c8bbbf9989f7ull},
    {"gsm.lpc", Scale::Ref, 1, "c921d9ae2b49fd7d",
     0x207b32c4eb6d2ba7ull},
    {"gsm.lpc", Scale::Long, 0, "c921d9ae2b49fd7d",
     0x105a00e0e481b4b5ull},
    {"gsm.lpc", Scale::Long, 1, "c921d9ae2b49fd7d",
     0xe34605e3a0ab0129ull},
    {"crc", Scale::Ref, 0, "b6641ba6514b7bbe",
     0x0f888b04c7b715c5ull},
    {"crc", Scale::Ref, 1, "b6641ba6514b7bbe",
     0xee2f5c3a62c2b160ull},
    {"crc", Scale::Long, 0, "b6641ba6514b7bbe",
     0xcbbc8ac95022251bull},
    {"crc", Scale::Long, 1, "b6641ba6514b7bbe",
     0x4fda6084b48e55a7ull},
    {"crc", Scale::Huge, 0, "b6641ba6514b7bbe",
     0xb5f5c2da0b5b8ac2ull},
    {"crc", Scale::Huge, 1, "b6641ba6514b7bbe",
     0x62d5e99285ff5367ull},
    {"drr", Scale::Ref, 0, "b76b47c4a1e760c7",
     0x961ad4b9537f1948ull},
    {"drr", Scale::Ref, 1, "b76b47c4a1e760c7",
     0x301c553ededfe275ull},
    {"drr", Scale::Long, 0, "b76b47c4a1e760c7",
     0xf9728a44fb46dd89ull},
    {"drr", Scale::Long, 1, "b76b47c4a1e760c7",
     0x6b1354610c793721ull},
    {"frag", Scale::Ref, 0, "05944356d174e131",
     0x33cdbd84409d7c26ull},
    {"frag", Scale::Ref, 1, "05944356d174e131",
     0xbbf612acabb4447aull},
    {"frag", Scale::Long, 0, "05944356d174e131",
     0x5c052b2c6c235f3dull},
    {"frag", Scale::Long, 1, "05944356d174e131",
     0x08d5fe3d035b20cfull},
    {"rtr", Scale::Ref, 0, "9e88206ff11657e8",
     0x17eaff1c21813125ull},
    {"rtr", Scale::Ref, 1, "9e88206ff11657e8",
     0xcad58d4425f7ae60ull},
    {"rtr", Scale::Long, 0, "9e88206ff11657e8",
     0x7d7602a06d6a7ae3ull},
    {"rtr", Scale::Long, 1, "9e88206ff11657e8",
     0xe06323239772c5a4ull},
    {"reed", Scale::Ref, 0, "8b97564c920b32f6",
     0x0643d2d19bf215e2ull},
    {"reed", Scale::Ref, 1, "8b97564c920b32f6",
     0xd6eb97d91c75c2caull},
    {"reed", Scale::Long, 0, "8b97564c920b32f6",
     0x31fffff2a5e13e1full},
    {"reed", Scale::Long, 1, "8b97564c920b32f6",
     0x02fc88401c3d1d8cull},
    {"bitcount", Scale::Ref, 0, "33623bd349994e71",
     0x31fa9e35db1c6461ull},
    {"bitcount", Scale::Ref, 1, "33623bd349994e71",
     0x58d2a7ea66fbd884ull},
    {"bitcount", Scale::Long, 0, "33623bd349994e71",
     0x46d998a71156ce67ull},
    {"bitcount", Scale::Long, 1, "33623bd349994e71",
     0x61d79223133d7018ull},
    {"sha", Scale::Ref, 0, "cb7a52c10ce6db63",
     0x316a2ed16bf48324ull},
    {"sha", Scale::Ref, 1, "cb7a52c10ce6db63",
     0x77604fa9a1a3c6e8ull},
    {"sha", Scale::Long, 0, "cb7a52c10ce6db63",
     0xc43c1e2abdd9c253ull},
    {"sha", Scale::Long, 1, "cb7a52c10ce6db63",
     0x6e9bb3b7eb5354f4ull},
    {"sha", Scale::Huge, 0, "cb7a52c10ce6db63",
     0xea27b45e3f2bcaa5ull},
    {"sha", Scale::Huge, 1, "cb7a52c10ce6db63",
     0x4d85553d138470f2ull},
    {"dijkstra", Scale::Ref, 0, "8372b61678ee1e36",
     0x493f07be3b99e47dull},
    {"dijkstra", Scale::Ref, 1, "8372b61678ee1e36",
     0x67a94e0dfee01b57ull},
    {"dijkstra", Scale::Long, 0, "b7e9e39522e0430d",
     0x0fd12adf01cb34f4ull},
    {"dijkstra", Scale::Long, 1, "b7e9e39522e0430d",
     0xfefa3cbab686a3cdull},
    {"stringsearch", Scale::Ref, 0, "a2745c709cb61508",
     0xf3377ee1a613e331ull},
    {"stringsearch", Scale::Ref, 1, "a2745c709cb61508",
     0xbcc7b6350d4a5307ull},
    {"stringsearch", Scale::Long, 0, "a2745c709cb61508",
     0x7b1ced4116989797ull},
    {"stringsearch", Scale::Long, 1, "a2745c709cb61508",
     0x9df6981f2e2ddba6ull},
    {"blowfish", Scale::Ref, 0, "d1da0dce2fa5a4c2",
     0x2686d7a69d2bd5e1ull},
    {"blowfish", Scale::Ref, 1, "d1da0dce2fa5a4c2",
     0xb2df579c9e2f8ffbull},
    {"blowfish", Scale::Long, 0, "d1da0dce2fa5a4c2",
     0xa02b27873b35b2ccull},
    {"blowfish", Scale::Long, 1, "d1da0dce2fa5a4c2",
     0xe470640708e0d5aaull},
    {"rgb2gray", Scale::Ref, 0, "0d07391cef477a9b",
     0x54ca7e91a156dd7dull},
    {"rgb2gray", Scale::Ref, 1, "0d07391cef477a9b",
     0xc79bc9286f803ee9ull},
    {"rgb2gray", Scale::Long, 0, "17b2d85d9877cf99",
     0xa78f34261ec0aec3ull},
    {"rgb2gray", Scale::Long, 1, "17b2d85d9877cf99",
     0xff5d56d22d222655ull},
};

TEST(KernelInputs, ProgramsAndPlantedInputsMatchGoldens)
{
    // The checksum tests above would still pass if a setup and its
    // validator drifted together, or if a scaled program's buffers
    // changed size; these pins hold every assembled program and every
    // planted input byte-for-byte.
    std::string actual;     // the table as it stands, printed on failure
    std::size_t cases = 0;
    for (const Kernel &k : allKernels()) {
        for (Scale s : allScales) {
            if (!k.supports(s))
                continue;
            const Program &p = kernelProgram(k, s);
            for (int set : {0, 1}) {
                ++cases;
                Emulator emu(p);
                k.setupAt(emu, set, s);
                std::vector<std::uint8_t> seg =
                    emu.memory().readBlock(dataBase, p.data.size());
                std::string bin = binaryFingerprint(p, nullptr);
                std::uint64_t data = fnv1a64(seg.data(), seg.size());
                const char *tier = s == Scale::Ref    ? "Ref"
                                   : s == Scale::Long ? "Long"
                                                      : "Huge";
                actual += strfmt("    {\"%s\", Scale::%s, %d, \"%s\",\n"
                                 "     0x%016llxull},\n",
                                 k.name, tier, set, bin.c_str(),
                                 static_cast<unsigned long long>(data));
                const InputGolden *g = nullptr;
                for (const InputGolden &row : inputGoldens) {
                    if (k.name == std::string(row.kernel) &&
                        row.scale == s && row.inputSet == set)
                        g = &row;
                }
                if (!g) {
                    ADD_FAILURE() << "no golden row for " << k.name << "@"
                                  << scaleName(s) << "#" << set;
                    continue;
                }
                EXPECT_EQ(bin, g->binary)
                    << k.name << "@" << scaleName(s) << "#" << set;
                EXPECT_EQ(data, g->data)
                    << k.name << "@" << scaleName(s) << "#" << set;
            }
        }
    }
    // 23 ref + 23 long + 4 huge programs, two input sets each.
    EXPECT_EQ(cases, 100u);
    EXPECT_EQ(std::size(inputGoldens), cases);
    if (HasFailure())
        std::printf("actual goldens:\n%s", actual.c_str());
}

TEST(KernelRegistry, ScaledSourceFailsLoudlyOnAMissingPattern)
{
    // An unmatched substitution must never silently ship the
    // ref-sized buffer: deriving a scaled variant from a pattern that
    // does not occur in the source is fatal.
    EXPECT_EXIT(scaledSource("sym: .space 100",
                             {{"other: .space 4", "other: .space 8"}}),
                ::testing::ExitedWithCode(1), "not found");
}

TEST(KernelRegistry, ScaledSourceFailsLoudlyOnAnAmbiguousPattern)
{
    // A pattern matching more than once could resize the wrong
    // buffer; the derivation demands exactly one occurrence.
    EXPECT_EXIT(scaledSource("a: .space 8\nb: .space 8\n",
                             {{".space 8", ".space 16"}}),
                ::testing::ExitedWithCode(1), "ambiguous");
}

TEST(KernelRegistry, ScaledSourceSubstitutesExactlyOnce)
{
    const char *out = scaledSource("x: .space 8\ny: .space 32\n",
                                   {{"y: .space 32", "y: .space 64"}});
    EXPECT_STREQ(out, "x: .space 8\ny: .space 64\n");
}

} // namespace
} // namespace mg
