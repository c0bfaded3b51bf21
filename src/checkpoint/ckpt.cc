#include "checkpoint/ckpt.hh"

#include <cstdio>

#include "support/logging.hh"

namespace apir {
namespace ckpt {

static constexpr char kMagic[8] = {'A', 'P', 'I', 'R',
                                   'C', 'K', 'P', 'T'};

void
Writer::raw(const void *p, size_t n)
{
    const auto *b = static_cast<const uint8_t *>(p);
    buf_.insert(buf_.end(), b, b + n);
}

void
Writer::begin(const std::string &name)
{
    APIR_ASSERT(openSection_.empty(),
                "checkpoint sections must not nest");
    openSection_ = name;
    u32(static_cast<uint32_t>(name.size()));
    raw(name.data(), name.size());
    lenPatchAt_ = buf_.size();
    u64(0); // payload length, patched by end()
}

void
Writer::end()
{
    APIR_ASSERT(!openSection_.empty(), "end() without begin()");
    uint64_t len = buf_.size() - (lenPatchAt_ + sizeof(uint64_t));
    std::memcpy(&buf_[lenPatchAt_], &len, sizeof(len));
    openSection_.clear();
}

void
Writer::finish(const std::string &path) const
{
    APIR_ASSERT(openSection_.empty(),
                "finish() with an open checkpoint section");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("checkpoint: cannot open '", path, "' for writing");
    bool ok = std::fwrite(kMagic, 1, sizeof(kMagic), f) ==
              sizeof(kMagic);
    uint32_t version = kVersion;
    ok = ok && std::fwrite(&version, 1, sizeof(version), f) ==
               sizeof(version);
    ok = ok && (buf_.empty() ||
                std::fwrite(buf_.data(), 1, buf_.size(), f) ==
                    buf_.size());
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        fatal("checkpoint: short write to '", path, "'");
}

Reader::Reader(const std::string &path) : path_(path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("checkpoint: cannot open '", path, "'");
    std::fseek(f, 0, SEEK_END);
    long sz = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    if (sz < 0) {
        std::fclose(f);
        fatal("checkpoint: cannot stat '", path, "'");
    }
    buf_.resize(static_cast<size_t>(sz));
    bool ok = buf_.empty() ||
              std::fread(buf_.data(), 1, buf_.size(), f) == buf_.size();
    std::fclose(f);
    if (!ok)
        fatal("checkpoint: short read from '", path, "'");

    if (buf_.size() < sizeof(kMagic) + sizeof(uint32_t) ||
        std::memcmp(buf_.data(), kMagic, sizeof(kMagic)) != 0) {
        fatal("checkpoint: '", path, "' is not an APIR checkpoint "
              "(bad magic)");
    }
    pos_ = sizeof(kMagic);
    uint32_t version;
    std::memcpy(&version, &buf_[pos_], sizeof(version));
    pos_ += sizeof(version);
    if (version != kVersion) {
        fatal("checkpoint: '", path, "' has format version ", version,
              ", this build reads version ", kVersion,
              " — regenerate the checkpoint");
    }
}

void
Reader::checkAvail(uint64_t count, size_t size, const char *what) const
{
    size_t limit = inSection_ ? sectionEnd_ : buf_.size();
    if (count > (limit - pos_) / size) {
        fatal("checkpoint: '", path_, "' truncated reading ", what,
              inSection_ ? " in section '" : "",
              inSection_ ? openSection_.c_str() : "",
              inSection_ ? "'" : "");
    }
}

void
Reader::mismatch(std::string_view what, uint64_t saved,
                 uint64_t built) const
{
    fatal("checkpoint: '", path_, "' has ", saved, " ", what,
          ", this machine has ", built,
          " — restore requires the same structural config");
}

void
Reader::raw(void *p, size_t n)
{
    checkAvail(n, 1, "value");
    if (n)
        std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
}

bool
Reader::b()
{
    uint8_t v = u8();
    if (v > 1) {
        fatal("checkpoint: '", path_, "' has bool byte ",
              static_cast<unsigned>(v), " at offset ", pos_ - 1,
              inSection_ ? " in section '" : "",
              inSection_ ? openSection_.c_str() : "",
              inSection_ ? "'" : "", " — a bool is 0 or 1");
    }
    return v == 1;
}

void
Reader::begin(const std::string &name)
{
    APIR_ASSERT(!inSection_, "checkpoint sections must not nest");
    if (pos_ == buf_.size()) {
        fatal("checkpoint: '", path_, "' ended before section '", name,
              "' — truncated or version-skewed file");
    }
    if (buf_.size() - pos_ < sizeof(uint32_t))
        fatal("checkpoint: '", path_, "' truncated in section header");
    uint32_t nameLen;
    std::memcpy(&nameLen, &buf_[pos_], sizeof(nameLen));
    pos_ += sizeof(nameLen);
    if (nameLen > buf_.size() - pos_)
        fatal("checkpoint: '", path_, "' truncated in section name");
    std::string got(reinterpret_cast<const char *>(&buf_[pos_]),
                    nameLen);
    pos_ += nameLen;
    if (got != name) {
        fatal("checkpoint: '", path_, "' has section '", got,
              "' where '", name, "' was expected — file written by an "
              "incompatible build");
    }
    if (buf_.size() - pos_ < sizeof(uint64_t))
        fatal("checkpoint: '", path_, "' truncated in section length");
    uint64_t payloadLen;
    std::memcpy(&payloadLen, &buf_[pos_], sizeof(payloadLen));
    pos_ += sizeof(payloadLen);
    if (payloadLen > buf_.size() - pos_) {
        fatal("checkpoint: '", path_, "' section '", name,
              "' claims ", payloadLen, " payload bytes but only ",
              buf_.size() - pos_, " remain — truncated file");
    }
    sectionEnd_ = pos_ + static_cast<size_t>(payloadLen);
    openSection_ = name;
    inSection_ = true;
}

void
Reader::end()
{
    APIR_ASSERT(inSection_, "end() without begin()");
    if (pos_ != sectionEnd_) {
        fatal("checkpoint: '", path_, "' section '", openSection_,
              "' has ", sectionEnd_ - pos_, " unread payload bytes — "
              "file written by an incompatible build");
    }
    inSection_ = false;
    openSection_.clear();
}

} // namespace ckpt
} // namespace apir
