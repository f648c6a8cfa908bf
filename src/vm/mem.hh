/**
 * @file
 * Sparse byte-addressable memory backing functional execution.
 */

#ifndef RACEVAL_VM_MEM_HH
#define RACEVAL_VM_MEM_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace raceval::vm
{

/**
 * Paged sparse memory. Untouched locations read as zero, like an
 * anonymous mmap; the page granularity is also what the hardware model's
 * first-touch effect keys on.
 *
 * An access inside one page costs one page lookup and a memcpy; a
 * one-entry cache of the last page used makes the lookup a compare for
 * the usual run of accesses to the same page. Only accesses that
 * straddle a page boundary go byte by byte. Pages are indexed by an
 * open-addressing table (linear probing, Fibonacci hashing), so a
 * lookup past the cache is a multiply and, mostly, one probe.
 */
class SparseMemory
{
  public:
    static constexpr uint64_t pageBytes = 4096;

    SparseMemory() { clear(); }

    /** Read size bytes (1/2/4/8) little-endian, zero-extended. */
    uint64_t
    read(uint64_t addr, unsigned size) const
    {
        uint64_t offset = addr % pageBytes;
        if (addr / pageBytes == cachedNum && offset + size <= pageBytes) {
            uint64_t value = 0;
            copyBytes(&value, cachedPage + offset, size);
            return value;
        }
        return readSlow(addr, size);
    }

    /** Write the low size bytes of value little-endian. */
    void
    write(uint64_t addr, unsigned size, uint64_t value)
    {
        uint64_t offset = addr % pageBytes;
        if (addr / pageBytes == cachedNum && offset + size <= pageBytes)
            copyBytes(cachedPage + offset, &value, size);
        else
            writeSlow(addr, size, value);
    }

    /** Read an IEEE double (8 bytes). */
    double readDouble(uint64_t addr) const;

    /** Write an IEEE double. */
    void writeDouble(uint64_t addr, double value);

    /** Read an IEEE float (4 bytes), widened to double. */
    double readFloat(uint64_t addr) const;

    /** Write a double narrowed to IEEE float. */
    void writeFloat(uint64_t addr, double value);

    /** Bulk copy-in used to load program data segments. */
    void load(uint64_t base, const uint8_t *bytes, size_t len);

    /** Drop all pages (used by reset between runs). */
    void clear();

    /** @return number of allocated pages. */
    size_t pageCount() const { return used; }

  private:
    using Page = std::array<uint8_t, pageBytes>;

    // The in-page fast path copies values as host bytes.
    static_assert(std::endian::native == std::endian::little);

    /** memcpy with the access sizes spelled out, so each is a move. */
    static void
    copyBytes(void *dst, const void *src, unsigned size)
    {
        switch (size) {
          case 1: std::memcpy(dst, src, 1); break;
          case 2: std::memcpy(dst, src, 2); break;
          case 4: std::memcpy(dst, src, 4); break;
          case 8: std::memcpy(dst, src, 8); break;
          default: std::memcpy(dst, src, size); break;
        }
    }

    /** read()/write() past the page cache: page lookup, or byte by
     *  byte across a page boundary. */
    uint64_t readSlow(uint64_t addr, unsigned size) const;
    void writeSlow(uint64_t addr, unsigned size, uint64_t value);

    /** @return the page holding page number @p num, or nullptr. */
    const uint8_t *findPage(uint64_t num) const;
    /** @return the page holding page number @p num, zero-allocated on
     *  first use. */
    uint8_t *touchPage(uint64_t num);

    /** No page number (an address shifted right by 12) reaches it. */
    static constexpr uint64_t freeNum = ~0ull;
    /** A page-table slot; num == freeNum marks it empty. */
    struct Slot
    {
        uint64_t num = freeNum;
        std::unique_ptr<Page> page;
    };

    /** @return the slot of @p num, or the free slot ending its chain. */
    size_t slotOf(uint64_t num) const;

    /** Power-of-two open-addressing table, at most half full. */
    std::vector<Slot> slots;
    unsigned slotShift = 0; //!< 64 - log2(slots.size())
    size_t used = 0;
    /** One-entry cache over pages: the last page found or allocated. */
    mutable uint64_t cachedNum = freeNum;
    mutable uint8_t *cachedPage = nullptr;
};

} // namespace raceval::vm

#endif // RACEVAL_VM_MEM_HH
