/**
 * @file
 * Fundamental scalar types shared by every minigraph module.
 */

#ifndef MG_COMMON_TYPES_HH
#define MG_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace mg {

/** Byte address in the simulated machine's address space. */
using Addr = std::uint64_t;

/** Simulation time in core clock cycles. */
using Cycle = std::uint64_t;

/** Architectural register identifier (int regs 0-31, fp regs 32-63). */
using RegId = std::int16_t;

/** Physical register identifier in the renamed register file. */
using PhysReg = std::int16_t;

/** Index of a static instruction inside a Program's text section. */
using InsnIdx = std::uint32_t;

/** Mini-graph template identifier: the handle's immediate field. */
using MgId = std::int32_t;

/** Number of architectural integer registers. */
constexpr int numIntRegs = 32;

/** Number of architectural floating-point registers. */
constexpr int numFpRegs = 32;

/** Total architectural registers (int + fp). */
constexpr int numArchRegs = numIntRegs + numFpRegs;

/** The integer register hard-wired to zero (Alpha r31). */
constexpr RegId regZero = 31;

/** First floating-point register (f0 maps to RegId 32). */
constexpr RegId fpBase = 32;

/** The fp register hard-wired to zero (Alpha f31). */
constexpr RegId regFpZero = fpBase + 31;

/** Sentinel for "no register operand". */
constexpr RegId regNone = -1;

/** Sentinel for "no physical register". */
constexpr PhysReg physNone = -1;

/** Sentinel for "no mini-graph". */
constexpr MgId mgNone = -1;

/** Stack pointer register (Alpha r30). */
constexpr RegId regSp = 30;

/** Conventional link register (Alpha r26). */
constexpr RegId regRa = 26;

/** Size in bytes of one encoded instruction slot. */
constexpr Addr insnBytes = 4;

/** Base address of the text section. */
constexpr Addr textBase = 0x10000;

/** Base address of the data section. */
constexpr Addr dataBase = 0x100000;

/** Initial stack pointer (grows down). */
constexpr Addr stackTop = 0x7ff000;

/** @return true iff @p r names a floating-point register. */
inline bool
isFpReg(RegId r)
{
    return r >= fpBase && r < fpBase + numFpRegs;
}

/** @return true iff @p r is architecturally hard-wired to zero. */
inline bool
isZeroReg(RegId r)
{
    return r == regZero || r == regFpZero;
}

} // namespace mg

#endif // MG_COMMON_TYPES_HH
