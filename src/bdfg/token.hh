/**
 * @file
 * The data token that flows through synthesized task pipelines. Each
 * token is one task in flight: its payload words, its well-order
 * index, the boolean predicate produced at a rendezvous (used by
 * Switch actors to steer between commit and squash paths), and the
 * rule-engine lane the task holds, if any.
 */

#ifndef APIR_BDFG_TOKEN_HH
#define APIR_BDFG_TOKEN_HH

#include <array>
#include <cstdint>

#include "core/task.hh"

namespace apir {

/** Sentinel for "this token holds no rule lane". */
inline constexpr uint32_t kNoLane = 0xffffffffu;

/** A task token in a BDFG pipeline. */
struct Token
{
    std::array<Word, kMaxPayloadWords> words{};
    TaskIndex index;
    bool pred = true;       //!< rendezvous verdict (Switch steering)
    uint32_t lane = kNoLane; //!< rule-engine lane held by this task
    uint16_t laneRule = 0;   //!< which rule engine the lane is in
    uint64_t okey = 0;       //!< custom order key (0 if index-ordered)
    uint64_t serial = 0;     //!< unique id, for debugging/stats
    uint32_t retries = 0;    //!< squash-retry count (see SwTask)

    /** Checkpoint field list (the struct has padding). */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        ar(words, index, pred, lane, laneRule, okey, serial, retries);
    }
};

} // namespace apir

#endif // APIR_BDFG_TOKEN_HH
