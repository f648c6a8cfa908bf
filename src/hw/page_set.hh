/**
 * @file
 * Page-number set shared by the detailed machines' first-touch,
 * zero-page and stored-page bookkeeping.
 */

#ifndef RACEVAL_HW_PAGE_SET_HH
#define RACEVAL_HW_PAGE_SET_HH

#include <cstdint>
#include <unordered_set>

namespace raceval::hw
{

/** Page size the first-touch and zero-page effects key on. */
constexpr uint64_t pageShift = 12;

/**
 * A set of page numbers that remembers the last member it saw, so the
 * usual run of accesses to one page costs a compare instead of a hash
 * lookup. Pages are only ever added, so the memo never goes stale.
 */
class PageSet
{
  public:
    /** @return true when @p page was not in the set before. */
    bool
    insert(uint64_t page)
    {
        if (page == last)
            return false;
        last = page;
        return pages.insert(page).second;
    }

    /** @return true when @p page is in the set. */
    bool
    contains(uint64_t page)
    {
        if (page == last)
            return true;
        if (!pages.count(page))
            return false;
        last = page;
        return true;
    }

  private:
    std::unordered_set<uint64_t> pages;
    /** No page number (an address shifted right by 12) reaches it. */
    uint64_t last = ~0ull;
};

} // namespace raceval::hw

#endif // RACEVAL_HW_PAGE_SET_HH
