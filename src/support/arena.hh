/**
 * @file
 * Per-accelerator bump/free-list arena for the simulator's per-event
 * node traffic (docs/tick-performance.md). The hot path allocates and
 * frees one tree node per token life event — live-key tracking, retry
 * multisets, rendezvous waiter sets, priority-queue storage — and the
 * general-purpose heap charges full malloc bookkeeping plus cache
 * scatter for each. The arena instead carves nodes out of large
 * chunks (bump allocation) and recycles frees through per-size free
 * lists, so steady-state simulation performs no heap traffic at all
 * and nodes of one container stay tightly packed.
 *
 * Not thread-safe by design: an arena belongs to one simulated
 * accelerator, and one accelerator is always advanced by one thread
 * (the sweep runner parallelizes across accelerators, never within
 * one).
 */

#ifndef APIR_SUPPORT_ARENA_HH
#define APIR_SUPPORT_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace apir {

/** Chunked bump allocator with per-size free lists. */
class PoolArena
{
  public:
    PoolArena() = default;
    PoolArena(const PoolArena &) = delete;
    PoolArena &operator=(const PoolArena &) = delete;

    void *
    allocate(size_t bytes, size_t alignment)
    {
        bytes = roundUp(bytes, alignment);
        ++allocs_;
        allocBytes_ += bytes;
        FreeList &fl = freeListFor(bytes);
        if (fl.head) {
            FreeNode *n = fl.head;
            fl.head = n->next;
            return n;
        }
        return bump(bytes, alignment);
    }

    void
    deallocate(void *p, size_t bytes, size_t alignment)
    {
        if (!p)
            return;
        bytes = roundUp(bytes, alignment);
        FreeList &fl = freeListFor(bytes);
        FreeNode *n = static_cast<FreeNode *>(p);
        n->next = fl.head;
        fl.head = n;
    }

    /** Nodes handed out over the arena's lifetime (reuse included). */
    uint64_t allocations() const { return allocs_; }
    /** Bytes those allocations amount to (reuse included). */
    uint64_t allocatedBytes() const { return allocBytes_; }

  private:
    struct FreeNode
    {
        FreeNode *next;
    };

    struct FreeList
    {
        size_t size = 0;
        FreeNode *head = nullptr;
    };

    static size_t
    roundUp(size_t bytes, size_t alignment)
    {
        size_t a = alignment < alignof(FreeNode) ? alignof(FreeNode)
                                                 : alignment;
        size_t b = bytes < sizeof(FreeNode) ? sizeof(FreeNode) : bytes;
        return (b + a - 1) / a * a;
    }

    FreeList &
    freeListFor(size_t bytes)
    {
        // Containers allocate a handful of distinct node sizes, so a
        // linear scan over this tiny vector beats any map.
        for (FreeList &fl : freeLists_)
            if (fl.size == bytes)
                return fl;
        freeLists_.push_back(FreeList{bytes, nullptr});
        return freeLists_.back();
    }

    void *
    bump(size_t bytes, size_t alignment)
    {
        uintptr_t p = (cur_ + alignment - 1) / alignment * alignment;
        if (p + bytes > end_) {
            size_t chunk = kChunkBytes;
            if (chunk < bytes + alignment)
                chunk = bytes + alignment;
            chunks_.emplace_back(new std::byte[chunk]);
            cur_ = reinterpret_cast<uintptr_t>(chunks_.back().get());
            end_ = cur_ + chunk;
            p = (cur_ + alignment - 1) / alignment * alignment;
        }
        cur_ = p + bytes;
        return reinterpret_cast<void *>(p);
    }

    static constexpr size_t kChunkBytes = 1u << 16;

    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    uintptr_t cur_ = 0;
    uintptr_t end_ = 0;
    std::vector<FreeList> freeLists_;
    uint64_t allocs_ = 0;
    uint64_t allocBytes_ = 0;
};

/**
 * STL allocator adapter over a PoolArena. The arena must outlive
 * every container using it. Containers holding this allocator compare
 * equal only when they share the arena, and the allocator propagates
 * on move/copy/swap so spliced containers stay consistent.
 */
template <typename T>
class ArenaAllocator
{
  public:
    using value_type = T;
    using propagate_on_container_copy_assignment = std::true_type;
    using propagate_on_container_move_assignment = std::true_type;
    using propagate_on_container_swap = std::true_type;

    explicit ArenaAllocator(PoolArena &arena) : arena_(&arena) {}

    template <typename U>
    ArenaAllocator(const ArenaAllocator<U> &o) : arena_(o.arena()) {}

    T *
    allocate(size_t n)
    {
        if (n == 1)
            return static_cast<T *>(
                arena_->allocate(sizeof(T), alignof(T)));
        // Bulk allocations (vectors) are not pooled — the arena's
        // free lists are sized for nodes. Fall through to the heap.
        return static_cast<T *>(
            ::operator new(n * sizeof(T), std::align_val_t(alignof(T))));
    }

    void
    deallocate(T *p, size_t n)
    {
        if (n == 1) {
            arena_->deallocate(p, sizeof(T), alignof(T));
            return;
        }
        ::operator delete(p, std::align_val_t(alignof(T)));
    }

    PoolArena *arena() const { return arena_; }

    template <typename U>
    bool
    operator==(const ArenaAllocator<U> &o) const
    {
        return arena_ == o.arena();
    }

    template <typename U>
    bool
    operator!=(const ArenaAllocator<U> &o) const
    {
        return arena_ != o.arena();
    }

  private:
    PoolArena *arena_;
};

/**
 * An arena binding for a component: use the shared per-accelerator
 * arena when one is supplied, or fall back to a private arena so the
 * component stays constructible standalone (unit tests). Declare it
 * before any container member that allocates from it.
 */
class ArenaRef
{
  public:
    explicit ArenaRef(PoolArena *shared)
    {
        if (shared) {
            arena_ = shared;
        } else {
            owned_ = std::make_unique<PoolArena>();
            arena_ = owned_.get();
        }
    }

    PoolArena &get() const { return *arena_; }

    template <typename T>
    ArenaAllocator<T>
    allocator() const
    {
        return ArenaAllocator<T>(*arena_);
    }

  private:
    std::unique_ptr<PoolArena> owned_;
    PoolArena *arena_ = nullptr;
};

} // namespace apir

#endif // APIR_SUPPORT_ARENA_HH
