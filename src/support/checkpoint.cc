/**
 * @file
 * Implementation of the versioned checkpoint format.
 */

#include "support/checkpoint.hh"

#include <cstdio>

#include "support/crc32.hh"

namespace robox::support
{

const char *
toString(CheckpointStatus status)
{
    switch (status) {
      case CheckpointStatus::Ok: return "ok";
      case CheckpointStatus::Truncated: return "truncated";
      case CheckpointStatus::BadMagic: return "bad-magic";
      case CheckpointStatus::BadVersion: return "bad-version";
      case CheckpointStatus::BadChecksum: return "bad-checksum";
      case CheckpointStatus::BadLayout: return "bad-layout";
    }
    return "unknown";
}

namespace
{

constexpr std::size_t kHeaderBytes = 20;

void
putU32(std::string &out, std::uint32_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    out.push_back(static_cast<char>((v >> 24) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    putU32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
    putU32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t
getU32(const char *p)
{
    auto b = [&](int i) {
        return static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]));
    };
    return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

std::uint64_t
getU64(const char *p)
{
    return static_cast<std::uint64_t>(getU32(p)) |
           (static_cast<std::uint64_t>(getU32(p + 4)) << 32);
}

} // namespace

bool
CheckpointWriter::u32(std::uint32_t v)
{
    putU32(payload_, v);
    return true;
}

bool
CheckpointWriter::u64(std::uint64_t v)
{
    putU64(payload_, v);
    return true;
}

bool
CheckpointWriter::str(const std::string &s)
{
    u64(s.size());
    payload_.append(s);
    return true;
}

std::string
CheckpointWriter::finish() const
{
    std::string blob;
    blob.reserve(kHeaderBytes + payload_.size());
    putU32(blob, kCheckpointMagic);
    putU32(blob, kCheckpointVersion);
    putU64(blob, payload_.size());
    putU32(blob, crc32(reinterpret_cast<const std::uint8_t *>(
                           payload_.data()),
                       payload_.size()));
    blob.append(payload_);
    return blob;
}

CheckpointReader::CheckpointReader(const std::string &blob)
{
    if (blob.size() < kHeaderBytes) {
        status_ = CheckpointStatus::Truncated;
        return;
    }
    if (getU32(blob.data()) != kCheckpointMagic) {
        status_ = CheckpointStatus::BadMagic;
        return;
    }
    if (getU32(blob.data() + 4) != kCheckpointVersion) {
        status_ = CheckpointStatus::BadVersion;
        return;
    }
    std::uint64_t length = getU64(blob.data() + 8);
    if (blob.size() - kHeaderBytes < length) {
        status_ = CheckpointStatus::Truncated;
        return;
    }
    std::uint32_t want = getU32(blob.data() + 16);
    std::uint32_t got =
        crc32(reinterpret_cast<const std::uint8_t *>(blob.data()) +
                  kHeaderBytes,
              static_cast<std::size_t>(length));
    if (want != got) {
        status_ = CheckpointStatus::BadChecksum;
        return;
    }
    payload_.assign(blob, kHeaderBytes, static_cast<std::size_t>(length));
    status_ = CheckpointStatus::Ok;
}

bool
CheckpointReader::take(void *out, std::size_t n)
{
    if (status_ != CheckpointStatus::Ok ||
        payload_.size() - pos_ < n) {
        failed_ = true;
        return false;
    }
    std::memcpy(out, payload_.data() + pos_, n);
    pos_ += n;
    return true;
}

bool
CheckpointReader::u8(std::uint8_t &out)
{
    return take(&out, 1);
}

bool
CheckpointReader::u32(std::uint32_t &out)
{
    char buf[4];
    if (!take(buf, sizeof buf))
        return false;
    out = getU32(buf);
    return true;
}

bool
CheckpointReader::u64(std::uint64_t &out)
{
    char buf[8];
    if (!take(buf, sizeof buf))
        return false;
    out = getU64(buf);
    return true;
}

bool
CheckpointReader::i32(std::int32_t &out)
{
    std::uint32_t v;
    if (!u32(v))
        return false;
    out = static_cast<std::int32_t>(v);
    return true;
}

bool
CheckpointReader::i64(std::int64_t &out)
{
    std::uint64_t v;
    if (!u64(v))
        return false;
    out = static_cast<std::int64_t>(v);
    return true;
}

bool
CheckpointReader::boolean(bool &out)
{
    std::uint8_t v;
    if (!u8(v))
        return false;
    out = v != 0;
    return true;
}

bool
CheckpointReader::f64(double &out)
{
    std::uint64_t bits;
    if (!u64(bits))
        return false;
    std::memcpy(&out, &bits, sizeof bits);
    return true;
}

bool
CheckpointReader::f64Array(double *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        if (!f64(p[i]))
            return false;
    return true;
}

bool
CheckpointReader::count(std::uint64_t &n)
{
    return u64(n) && require(n <= payload_.size() - pos_);
}

bool
CheckpointReader::str(std::string &out)
{
    std::uint64_t n;
    if (!count(n))
        return false;
    out.assign(payload_, pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return true;
}

bool
writeFileAtomic(const std::string &path, const std::string &data)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    bool ok = data.empty() ||
              std::fwrite(data.data(), 1, data.size(), f) == data.size();
    ok = (std::fclose(f) == 0) && ok;
    if (!ok) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
readFile(const std::string &path, std::string *out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out->clear();
    char buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out->append(buf, n);
    bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

} // namespace robox::support
