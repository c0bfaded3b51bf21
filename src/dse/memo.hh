/**
 * @file
 * A thread-safe memoization store with hit/miss accounting — the DSE
 * explorer's visited-point map (never re-simulate a knob tuple),
 * generalized so the apird server can reuse it for its two production
 * caches: the content-addressed workload cache (road nets, meshes and
 * matrices are pure functions of seed + scale, so generate once and
 * share) and the memoized result store (a canonicalized knob tuple
 * maps to one stats payload, forever).
 *
 * getOrCompute() additionally collapses concurrent computations of
 * the same key: the first caller computes while later callers block
 * on a shared future, so a thundering herd of identical requests
 * costs one simulation, not N. A computation that throws is erased
 * so the key can be retried (in-flight waiters observe the failure).
 *
 * Every entry is such a shared future, ready or in flight, and the
 * future-returning primitives hand it out without waiting on it:
 * find() lets a caller that must not compute (apird's connection
 * threads) take a stored or in-flight value, and shareOrCompute()
 * lets a caller that may compute (apird's workers) do so only when
 * no one else has, without blocking on anyone else's computation.
 */

#ifndef APIR_DSE_MEMO_HH
#define APIR_DSE_MEMO_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

namespace apir {

/** Keyed, thread-safe, compute-once value store. */
template <typename Key, typename Value>
class MemoStore
{
  public:
    /**
     * The key's future, ready or still being computed by another
     * caller, counting a hit; nullopt, counting nothing, when the key
     * is absent (the caller that goes on to compute it counts the
     * miss). Never waits.
     */
    std::optional<std::shared_future<Value>>
    find(const Key &key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        if (it == map_.end())
            return std::nullopt;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
    }

    /**
     * Look the key up, counting a hit or a miss. Blocks if another
     * thread is still computing the value (and rethrows its failure).
     */
    std::optional<Value>
    tryGet(const Key &key)
    {
        auto fut = find(key);
        if (!fut) {
            misses_.fetch_add(1, std::memory_order_relaxed);
            return std::nullopt;
        }
        return fut->get();
    }

    /** Insert a ready value (first insertion wins). Not counted. */
    void
    put(const Key &key, Value value)
    {
        std::promise<Value> prom;
        prom.set_value(std::move(value));
        std::lock_guard<std::mutex> lock(mutex_);
        map_.emplace(key, prom.get_future().share());
    }

    /**
     * The key's future. If the key is absent (a miss), first compute
     * it with `fn` on this thread; if it is present (a hit), return
     * its future at once, ready or not, so the caller never waits on
     * another caller's computation. If `fn` throws, the key is erased
     * (a later request recomputes) and the future, like every
     * waiter's, holds the exception.
     */
    template <typename Fn>
    std::shared_future<Value>
    shareOrCompute(const Key &key, Fn &&fn)
    {
        std::promise<Value> prom;
        std::shared_future<Value> fut;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = map_.find(key);
            if (it != map_.end()) {
                hits_.fetch_add(1, std::memory_order_relaxed);
                return it->second;
            }
            misses_.fetch_add(1, std::memory_order_relaxed);
            fut = prom.get_future().share();
            map_.emplace(key, fut);
        }
        try {
            prom.set_value(fn());
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                map_.erase(key);
            }
            prom.set_exception(std::current_exception());
        }
        return fut;
    }

    /**
     * Return the memoized value, computing it with `fn` on first
     * request. Concurrent calls for the same key run `fn` exactly
     * once; the others wait and share the result. If `fn` throws, the
     * key is erased (a later request recomputes) and every waiter
     * sees the exception.
     */
    template <typename Fn>
    Value
    getOrCompute(const Key &key, Fn &&fn)
    {
        return shareOrCompute(key, std::forward<Fn>(fn)).get();
    }

    uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
    uint64_t misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return map_.size();
    }

  private:
    mutable std::mutex mutex_;
    std::map<Key, std::shared_future<Value>> map_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
};

} // namespace apir

#endif // APIR_DSE_MEMO_HH
