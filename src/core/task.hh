/**
 * @file
 * The task half of the paper's abstraction (Section 4.1): tasks are
 * the loop iterations of an irregular application, gathered into
 * for-all / for-each task sets and well-ordered by an M-tuple index
 * assigned with the inheritance scheme of the paper's Figure 5.
 */

#ifndef APIR_CORE_TASK_HH
#define APIR_CORE_TASK_HH

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <vector>

namespace apir {

/** A machine word of task payload. */
using Word = uint64_t;

/** Maximum loop-nesting depth an index tuple can express. */
inline constexpr int kMaxIndexDepth = 4;

/** Maximum payload words carried by a task or event. */
inline constexpr int kMaxPayloadWords = 8;

/**
 * Lexicographic M-tuple well-order over tasks (Def. 4.2/4.3 and
 * Fig. 5). Component i is the index of the loop at nesting position i;
 * for-all loops always contribute 0 so that their iterations compare
 * equal.
 */
struct TaskIndex
{
    std::array<uint32_t, kMaxIndexDepth> c{};

    /**
     * Lexicographic over c[0..3], computed as two packed 64-bit words
     * (c[0]:c[1], then c[2]:c[3]): every key set, heap-queue map and
     * owner test compares indices, so two compares beat four.
     */
    std::strong_ordering
    operator<=>(const TaskIndex &o) const
    {
        if (auto hi = word(0) <=> o.word(0); hi != 0)
            return hi;
        return word(2) <=> o.word(2);
    }
    bool operator==(const TaskIndex &) const = default;

    std::string toString() const;

  private:
    static_assert(kMaxIndexDepth == 4, "operator<=> packs two words");
    uint64_t word(int i) const { return uint64_t(c[i]) << 32 | c[i + 1]; }
};

/** Loop-construct taxonomy (Section 4.1). */
enum class TaskSetKind {
    ForAll,  //!< iterations unordered; all indexed 0 at their depth
    ForEach, //!< iterations ordered by activation; counter-indexed
};

/** Identifier types. */
using TaskSetId = uint16_t;
using RuleId = uint16_t;
using OpId = uint16_t;

inline constexpr RuleId kNoRule = 0xffff;

/** Static declaration of one task set. */
struct TaskSetDecl
{
    std::string name;
    TaskSetKind kind = TaskSetKind::ForEach;
    uint8_t depth = 0;        //!< nesting position of this loop
    uint8_t payloadWords = 1; //!< payload width in words
    /**
     * Pop tasks in order-key order instead of FIFO (a hardware heap
     * bank instead of a FIFO bank). Used by ordered-commit designs
     * like SPEC-MST, whose software equivalents rely on priority
     * queues (Section 5.2's comparison to [33]).
     */
    bool priority = false;
};

/** A task instance: which set, its well-order index, and payload. */
struct SwTask
{
    TaskSetId set = 0;
    TaskIndex index;
    std::array<Word, kMaxPayloadWords> data{};
    /**
     * How many times this logical task has been squashed and
     * re-activated through a retry Enqueue (0 for first activations).
     * Drives the liveness subsystem's exponential fallback backoff.
     */
    uint32_t retries = 0;

    /** Checkpoint field list (the struct has padding). */
    template <typename Ar>
    void serialize(Ar &ar) { ar(set, index, data, retries); }
};

/**
 * Compute the index of a task of set `decl` activated by a task whose
 * index is `parent` (Fig. 5's scheme): inherit components shallower
 * than the set's depth, place the counter (for-each) or 0 (for-all) at
 * the set's depth, zero the rest. `counter` is incremented for
 * for-each sets.
 */
TaskIndex childIndex(const TaskSetDecl &decl, const TaskIndex &parent,
                     uint32_t &counter);

} // namespace apir

#endif // APIR_CORE_TASK_HH
