#include "mem/image.hh"

#include <algorithm>

#include "support/logging.hh"

namespace apir {

uint64_t
MemoryImage::alloc(uint64_t words)
{
    uint64_t base = brk_;
    uint64_t bytes = words * kWordBytes;
    // Round the next break up to a line boundary so distinct arrays
    // never share a cache line.
    brk_ = (brk_ + bytes + kLineBytes - 1) / kLineBytes * kLineBytes;
    return base;
}

Word
MemoryImage::readWord(uint64_t addr) const
{
    APIR_ASSERT(addr % kWordBytes == 0, "unaligned read at ", addr);
    uint64_t word_idx = addr / kWordBytes;
    auto it = pages_.find(word_idx / kPageWords);
    if (it == pages_.end())
        return 0;
    return it->second[word_idx % kPageWords];
}

void
MemoryImage::writeWord(uint64_t addr, Word value)
{
    APIR_ASSERT(addr % kWordBytes == 0, "unaligned write at ", addr);
    uint64_t word_idx = addr / kWordBytes;
    auto &page = pages_[word_idx / kPageWords];
    if (page.empty())
        page.assign(kPageWords, 0);
    page[word_idx % kPageWords] = value;
}

} // namespace apir
