/**
 * @file
 * Versioned, length-prefixed binary checkpoint format
 * (docs/checkpointing.md). A checkpoint is the magic "APIRCKPT", a
 * format version word, and a sequence of named sections, each
 * `u32 nameLen | name | u64 payloadLen | payload`. Sections are
 * written and read in a fixed order; every mismatch — wrong magic,
 * version skew, unexpected section name, truncated payload, trailing
 * bytes — is a located fatal naming the file and the offending
 * section, so a stale or corrupt checkpoint can never silently
 * produce a plausible-but-wrong simulation.
 *
 * Only dynamic state is serialized. Anything rebuilt deterministically
 * from (app, scale, seed, config) — specs, lambdas, workload graphs,
 * bucket geometry — is reconstructed by re-running the build path and
 * then overlaying the serialized state on top (gem5-style restore).
 */

#ifndef APIR_CHECKPOINT_CKPT_HH
#define APIR_CHECKPOINT_CKPT_HH

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/logging.hh"

namespace apir {
namespace ckpt {

/** Current checkpoint format version. Bump on any layout change. */
inline constexpr uint32_t kVersion = 2;

namespace detail {

/** A map element with a mutable key, so a restore can fill it in. */
template <typename T> struct Mutable { using type = T; };
template <typename K, typename V>
struct Mutable<std::pair<const K, V>> { using type = std::pair<K, V>; };

/** Types that spell their own field list in `serialize(Ar &)`. */
template <typename T, typename Ar>
concept Serializable = requires(T &t, Ar &ar) { t.serialize(ar); };

/**
 * Values whose bytes are exactly their fields: no padding, which would
 * copy whatever the process left in memory into the file. Doubles
 * qualify too (their object representation is not unique only
 * because of -0.0 and NaN payloads, which bits round-trip).
 */
template <typename T>
inline constexpr bool kBitCopyable =
    std::has_unique_object_representations_v<T> ||
    std::is_floating_point_v<T>;

/**
 * Padding-free structs without their own field list are bit-copied; a
 * struct with padding and no serialize() matches no field() overload.
 */
template <typename T, typename Ar>
concept PodStruct = std::is_class_v<T> && kBitCopyable<T> &&
                    !Serializable<T, Ar>;

} // namespace detail

/*
 * Writer and Reader are the two archives a component's
 * `template <class Ar> void serialize(Ar &ar)` runs against (the gem5
 * and cereal idiom): the field list is written once and each call
 * below means "save" on a Writer and "restore" on a Reader.
 *
 *   ar(a, b, c)           one call per field; the C++ type picks the
 *                         wire encoding: uint8_t/uint16_t/uint32_t/
 *                         uint64_t/double/bool (one byte, 0 or 1),
 *                         std::string, a vector, pair, optional, a
 *                         type with its own serialize(), or a struct
 *                         without padding. Other integer types, and
 *                         structs with padding but no serialize(), do
 *                         not compile: padding bytes are whatever the
 *                         process left in memory.
 *   ar.expect(v, what)    a structural fact of the built machine:
 *                         written on save, compared on restore.
 *   ar.fixed(vec, what)   a vector whose length the machine fixes:
 *                         bytes as ar(vec), restored in place.
 *   ar.seq(c, fn)         length-prefixed container, `fn(element)`
 *                         per element (default: ar(element)); hash
 *                         maps go in key order.
 *   ar.check(ok, msg...)  restore-time validation of a saved value.
 *   Ar::kRestoring        for the few post-restore fix-ups.
 */

/** Serializes state into an in-memory buffer, then writes the file. */
class Writer
{
  public:
    static constexpr bool kRestoring = false;

    /** Open a named section; sections must not nest. */
    void begin(const std::string &name);
    /** Close the current section, patching its length prefix. */
    void end();

    void u8(uint8_t v) { raw(&v, 1); }
    void u32(uint32_t v) { raw(&v, sizeof(v)); }
    void u64(uint64_t v) { raw(&v, sizeof(v)); }
    void f64(double v) { raw(&v, sizeof(v)); }
    void b(bool v) { u8(v ? 1 : 0); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        raw(s.data(), s.size());
    }

    /** Bit-copy a trivially copyable value. */
    template <typename T>
    void
    pod(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "pod() requires a trivially copyable type");
        raw(&v, sizeof(T));
    }

    /** Length-prefixed vector of trivially copyable elements. */
    template <typename T>
    void
    vecPod(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "vecPod() requires a trivially copyable type");
        u64(v.size());
        raw(v.data(), v.size() * sizeof(T));
    }

    template <typename... Ts>
    void operator()(const Ts &...vs) { (field(vs), ...); }
    template <std::unsigned_integral T>
    void expect(const T &v, std::string_view) { field(v); }
    template <typename T>
    void fixed(const std::vector<T> &v, std::string_view) { field(v); }
    template <typename... Ms>
    void check(bool, const Ms &...) {}

    template <typename C>
    void seq(const C &c) { seq(c, [this](const auto &e) { field(e); }); }
    template <typename C, typename Fn>
    void
    seq(const C &c, Fn &&fn)
    {
        u64(c.size());
        if constexpr (requires { typename C::hasher; }) {
            std::vector<const typename C::value_type *> byKey;
            byKey.reserve(c.size());
            for (const auto &e : c)
                byKey.push_back(&e);
            std::sort(byKey.begin(), byKey.end(),
                      [](auto *x, auto *y) { return x->first < y->first; });
            for (const auto *e : byKey)
                fn(*e);
        } else {
            for (const auto &e : c)
                fn(e);
        }
    }

    /** Write magic + version + all sections to `path` (fatal on I/O). */
    void finish(const std::string &path) const;

  private:
    void raw(const void *p, size_t n);

    void field(uint8_t v) { u8(v); }
    void field(uint16_t v) { pod(v); }
    void field(uint32_t v) { u32(v); }
    void field(uint64_t v) { u64(v); }
    void field(double v) { f64(v); }
    void field(bool v) { b(v); }
    void field(const std::string &s) { str(s); }

    // One count word either way: bit-copied elements, or each
    // element's own field list.
    template <typename T>
    void
    field(const std::vector<T> &v)
    {
        if constexpr (detail::kBitCopyable<T>)
            vecPod(v);
        else
            seq(v);
    }
    template <typename A, typename B>
    void field(const std::pair<A, B> &p) { field(p.first); field(p.second); }

    template <typename T>
    void
    field(const std::optional<T> &o)
    {
        b(o.has_value());
        if (o)
            field(*o);
    }

    // Saving only reads the fields serialize() names.
    template <typename T>
        requires detail::Serializable<T, Writer>
    void field(const T &v) { const_cast<T &>(v).serialize(*this); }
    template <typename T>
        requires detail::PodStruct<T, Writer>
    void field(const T &v) { pod(v); }

    std::vector<uint8_t> buf_;
    size_t lenPatchAt_ = ~size_t(0); //!< offset of open section's length
    std::string openSection_;
};

/** Loads a checkpoint file and replays its sections in order. */
class Reader
{
  public:
    static constexpr bool kRestoring = true;

    /** Load + validate magic and version (located fatals). */
    explicit Reader(const std::string &path);

    /**
     * Enter the next section, which must be named `name` — reading
     * sections out of the order they were written is a fatal, as is
     * hitting end-of-file.
     */
    void begin(const std::string &name);
    /** Leave the section; leftover unread payload bytes are a fatal. */
    void end();

    uint8_t u8() { uint8_t v; raw(&v, 1); return v; }
    uint32_t u32() { uint32_t v; raw(&v, sizeof(v)); return v; }
    uint64_t u64() { uint64_t v; raw(&v, sizeof(v)); return v; }
    double f64() { double v; raw(&v, sizeof(v)); return v; }
    /** One byte, 0 or 1; any other value is a located fatal. */
    bool b();

    std::string
    str()
    {
        uint64_t n = u64();
        checkAvail(n, 1, "string payload");
        std::string s(reinterpret_cast<const char *>(buf_.data() + pos_),
                      static_cast<size_t>(n));
        pos_ += static_cast<size_t>(n);
        return s;
    }

    template <typename T>
    T
    pod()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "pod() requires a trivially copyable type");
        T v;
        raw(&v, sizeof(T));
        return v;
    }

    template <typename T>
    std::vector<T>
    vecPod()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "vecPod() requires a trivially copyable type");
        uint64_t n = u64();
        // Checked as a count: `n * sizeof(T)` can wrap for a corrupt n.
        checkAvail(n, sizeof(T), "vector payload");
        std::vector<T> v(static_cast<size_t>(n));
        raw(v.data(), v.size() * sizeof(T));
        return v;
    }

    template <typename... Ts>
    void operator()(Ts &...vs) { (field(vs), ...); }

    template <std::unsigned_integral T>
    void
    expect(const T &built, std::string_view what)
    {
        T saved{};
        field(saved);
        if (saved != built)
            mismatch(what, saved, built);
    }

    template <typename T>
    void
    fixed(std::vector<T> &v, std::string_view what)
    {
        expect(v.size(), what);
        if constexpr (detail::kBitCopyable<T>)
            raw(v.data(), v.size() * sizeof(T));
        else
            for (T &e : v)
                field(e);
    }

    template <typename C>
    void seq(C &c) { seq(c, [this](auto &e) { field(e); }); }
    template <typename C, typename Fn>
    void
    seq(C &c, Fn &&fn)
    {
        uint64_t n = u64();
        // Every element takes at least one byte: bound the loop by
        // the payload left before trusting a corrupt count.
        checkAvail(n, 1, "sequence");
        c.clear();
        for (uint64_t i = 0; i < n; ++i) {
            if constexpr (requires { c.emplace_back(); }) {
                fn(c.emplace_back());
            } else {
                typename detail::Mutable<typename C::value_type>::type e{};
                fn(e);
                c.emplace_hint(c.end(), std::move(e));
            }
        }
    }

    template <typename... Ms>
    void
    check(bool ok, const Ms &...msg)
    {
        if (!ok)
            fatal("checkpoint: '", path_, "' ", msg...);
    }

    /** True once every section has been fully consumed. */
    bool atEnd() const { return pos_ == buf_.size(); }
    const std::string &path() const { return path_; }

  private:
    void raw(void *p, size_t n);
    /** Fatal unless `count` elements of `size` bytes remain. */
    void checkAvail(uint64_t count, size_t size, const char *what) const;
    [[noreturn]] void mismatch(std::string_view what, uint64_t saved,
                               uint64_t built) const;

    void field(uint8_t &v) { v = u8(); }
    void field(uint16_t &v) { v = pod<uint16_t>(); }
    void field(uint32_t &v) { v = u32(); }
    void field(uint64_t &v) { v = u64(); }
    void field(double &v) { v = f64(); }
    void field(bool &v) { v = b(); }
    void field(std::string &s) { s = str(); }

    template <typename T>
    void
    field(std::vector<T> &v)
    {
        if constexpr (detail::kBitCopyable<T>)
            v = vecPod<T>();
        else
            seq(v);
    }
    template <typename A, typename B>
    void field(std::pair<A, B> &p) { field(p.first); field(p.second); }

    template <typename T>
    void
    field(std::optional<T> &o)
    {
        o.reset();
        if (b())
            field(o.emplace());
    }

    template <typename T>
        requires detail::Serializable<T, Reader>
    void field(T &v) { v.serialize(*this); }
    template <typename T>
        requires detail::PodStruct<T, Reader>
    void field(T &v) { v = pod<T>(); }

    std::string path_;
    std::vector<uint8_t> buf_;
    size_t pos_ = 0;
    size_t sectionEnd_ = 0;
    std::string openSection_;
    bool inSection_ = false;
};

} // namespace ckpt
} // namespace apir

#endif // APIR_CHECKPOINT_CKPT_HH
