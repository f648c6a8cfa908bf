#include "vm/mem.hh"

#include <bit>
#include <cstring>

namespace raceval::vm
{

namespace
{

constexpr size_t minSlots = 64;

} // namespace

size_t
SparseMemory::slotOf(uint64_t num) const
{
    size_t mask = slots.size() - 1;
    size_t i = static_cast<size_t>((num * 0x9e3779b97f4a7c15ull)
                                   >> slotShift);
    while (slots[i].num != num && slots[i].num != freeNum)
        i = (i + 1) & mask;
    return i;
}

const uint8_t *
SparseMemory::findPage(uint64_t num) const
{
    if (num == cachedNum)
        return cachedPage;
    const Slot &slot = slots[slotOf(num)];
    if (slot.num == freeNum)
        return nullptr;
    cachedNum = num;
    cachedPage = slot.page->data();
    return cachedPage;
}

uint8_t *
SparseMemory::touchPage(uint64_t num)
{
    if (num == cachedNum)
        return cachedPage;
    size_t i = slotOf(num);
    if (slots[i].num == freeNum) {
        if (2 * (used + 1) > slots.size()) {
            // Grow: rehash every page into a table twice the size.
            std::vector<Slot> old(slots.size() * 2);
            old.swap(slots);
            --slotShift;
            for (Slot &slot : old) {
                if (slot.num != freeNum)
                    slots[slotOf(slot.num)] = std::move(slot);
            }
            i = slotOf(num);
        }
        slots[i].num = num;
        slots[i].page = std::make_unique<Page>(); // value-init: all zero
        ++used;
    }
    cachedNum = num;
    cachedPage = slots[i].page->data();
    return cachedPage;
}

uint64_t
SparseMemory::readSlow(uint64_t addr, unsigned size) const
{
    uint64_t offset = addr % pageBytes;
    if (offset + size <= pageBytes) {
        const uint8_t *page = findPage(addr / pageBytes);
        uint64_t value = 0;
        if (page)
            copyBytes(&value, page + offset, size);
        return value;
    }
    uint64_t value = 0;
    for (unsigned i = 0; i < size; ++i) {
        const uint8_t *page = findPage((addr + i) / pageBytes);
        if (page)
            value |= static_cast<uint64_t>(page[(addr + i) % pageBytes])
                << (8 * i);
    }
    return value;
}

void
SparseMemory::writeSlow(uint64_t addr, unsigned size, uint64_t value)
{
    uint64_t offset = addr % pageBytes;
    if (offset + size <= pageBytes) {
        copyBytes(touchPage(addr / pageBytes) + offset, &value, size);
        return;
    }
    for (unsigned i = 0; i < size; ++i)
        touchPage((addr + i) / pageBytes)[(addr + i) % pageBytes] =
            static_cast<uint8_t>(value >> (8 * i));
}

double
SparseMemory::readDouble(uint64_t addr) const
{
    uint64_t bits = read(addr, 8);
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

void
SparseMemory::writeDouble(uint64_t addr, double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    write(addr, 8, bits);
}

double
SparseMemory::readFloat(uint64_t addr) const
{
    uint32_t bits = static_cast<uint32_t>(read(addr, 4));
    float value;
    std::memcpy(&value, &bits, sizeof(value));
    return static_cast<double>(value);
}

void
SparseMemory::writeFloat(uint64_t addr, double value)
{
    float narrow = static_cast<float>(value);
    uint32_t bits;
    std::memcpy(&bits, &narrow, sizeof(bits));
    write(addr, 4, bits);
}

void
SparseMemory::load(uint64_t base, const uint8_t *bytes, size_t len)
{
    while (len > 0) {
        uint64_t offset = base % pageBytes;
        size_t chunk = pageBytes - offset < len
            ? static_cast<size_t>(pageBytes - offset) : len;
        std::memcpy(touchPage(base / pageBytes) + offset, bytes, chunk);
        base += chunk;
        bytes += chunk;
        len -= chunk;
    }
}

void
SparseMemory::clear()
{
    slots.clear();
    slots.resize(minSlots);
    slotShift = 64 - std::countr_zero(minSlots);
    used = 0;
    cachedNum = freeNum;
    cachedPage = nullptr;
}

} // namespace raceval::vm
