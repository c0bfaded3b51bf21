/**
 * @file
 * The functional backing store of a simulation: a flat 64-bit word
 * addressed memory that applications map their arrays into. Timing is
 * modeled separately (cache + QPI); this class only answers "what
 * value lives at this address".
 *
 * All application arrays use one 8-byte word per element, so a 64-byte
 * cache line holds 8 elements.
 */

#ifndef APIR_MEM_IMAGE_HH
#define APIR_MEM_IMAGE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/task.hh"

namespace apir {

/** Bytes per element of every mapped array. */
inline constexpr uint64_t kWordBytes = 8;
/** Cache line size, matching the HARP FPGA cache. */
inline constexpr uint64_t kLineBytes = 64;

/** Functional memory: sparse paged word store plus an allocator. */
class MemoryImage
{
  public:
    /** Reserve a line-aligned region of `words` words. Returns base. */
    uint64_t alloc(uint64_t words);

    /** Copy a host array in; returns its base byte address. */
    template <typename T>
    uint64_t
    mapArray(const std::vector<T> &host)
    {
        uint64_t base = alloc(host.size());
        for (size_t i = 0; i < host.size(); ++i)
            writeWord(base + i * kWordBytes,
                      static_cast<Word>(host[i]));
        return base;
    }

    /** Read the mapped region back into a host array of length n. */
    template <typename T>
    std::vector<T>
    readArray(uint64_t base, uint64_t n) const
    {
        std::vector<T> out(n);
        for (uint64_t i = 0; i < n; ++i)
            out[i] = static_cast<T>(readWord(base + i * kWordBytes));
        return out;
    }

    /** Read the word at a word-aligned byte address. */
    Word readWord(uint64_t addr) const;

    /** Write the word at a word-aligned byte address. */
    void writeWord(uint64_t addr, Word value);

    /** Highest allocated byte address (exclusive). */
    uint64_t brk() const { return brk_; }

    /**
     * Checkpoint field list: the allocator brk and every mapped page
     * (ar.seq visits the hash map in page order).
     */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        ar(brk_);
        ar.seq(pages_, [&ar](auto &page) {
            ar(page.first, page.second);
            ar.check(page.second.size() == kPageWords, "has a ",
                     page.second.size(), "-word memory page, pages hold ",
                     kPageWords, " words");
        });
    }

  private:
    static constexpr uint64_t kPageWords = 4096;

    uint64_t brk_ = kLineBytes; // keep address 0 unmapped
    std::unordered_map<uint64_t, std::vector<Word>> pages_;
};

} // namespace apir

#endif // APIR_MEM_IMAGE_HH
