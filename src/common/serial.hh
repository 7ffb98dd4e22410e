/**
 * @file
 * Minimal binary serialization for the checkpoint store and the sweep
 * journal: fixed-width little-endian primitives appended to a byte
 * vector, and a bounds-checked reader with an error latch. Both copy
 * whole words, never single bytes in a loop. Readers never throw and
 * never read past the end: the first malformed field
 * trips ok() and every subsequent read returns zero, so callers can
 * parse a whole record into temporaries and check ok() once before
 * committing any state (the validate-before-mutate contract every
 * deserializer in this codebase follows).
 */

#ifndef MG_COMMON_SERIAL_HH
#define MG_COMMON_SERIAL_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace mg {

// The writer and reader copy whole words in host byte order; the wire
// format is little-endian, so they are only correct on such hosts.
static_assert(std::endian::native == std::endian::little,
              "serial.hh copies host words as little-endian bytes");

/** FNV-1a 64-bit over a byte range (journal record checksums, store
 *  file names, fingerprints). */
inline std::uint64_t
fnv1a64(const void *data, std::size_t len,
        std::uint64_t h = 0xcbf29ce484222325ull)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Append-only little-endian encoder. */
class SerialWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf.push_back(v);
    }

    void u32(std::uint32_t v) { std::memcpy(grow(4), &v, 4); }
    void u64(std::uint64_t v) { std::memcpy(grow(8), &v, 8); }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, 8);
        u64(bits);
    }

    void
    bytes(const void *data, std::size_t len)
    {
        if (len)
            std::memcpy(grow(len), data, len);
    }

    /** Length-prefixed string. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    const std::vector<std::uint8_t> &data() const { return buf; }
    std::vector<std::uint8_t> take() { return std::move(buf); }
    std::size_t size() const { return buf.size(); }

  private:
    /** Extend the buffer by @p n bytes; @return the first new byte. */
    std::uint8_t *
    grow(std::size_t n)
    {
        std::size_t at = buf.size();
        buf.resize(at + n);
        return buf.data() + at;
    }

    std::vector<std::uint8_t> buf;
};

/** Bounds-checked little-endian decoder with an error latch. */
class SerialReader
{
  public:
    SerialReader(const std::uint8_t *data, std::size_t len)
        : p(data), len_(len)
    {
    }
    explicit SerialReader(const std::vector<std::uint8_t> &v)
        : SerialReader(v.data(), v.size())
    {
    }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return p[pos_++];
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        bytes(&v, 4);
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        bytes(&v, 8);
        return v;
    }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, 8);
        return v;
    }

    bool
    bytes(void *out, std::size_t n)
    {
        if (!need(n))
            return false;
        if (n)
            std::memcpy(out, p + pos_, n);
        pos_ += n;
        return true;
    }

    std::string
    str()
    {
        std::uint64_t n = u64();
        if (!need(n))
            return {};
        std::string s(reinterpret_cast<const char *>(p + pos_),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    std::size_t remaining() const { return len_ - pos_; }
    std::size_t pos() const { return pos_; }
    bool ok() const { return ok_; }
    void fail() { ok_ = false; }

  private:
    bool
    need(std::size_t n)
    {
        if (!ok_ || n > len_ - pos_) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const std::uint8_t *p;
    std::size_t len_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace mg

#endif // MG_COMMON_SERIAL_HH
