/**
 * @file
 * Versioned, CRC-32-protected binary checkpoint format.
 *
 * The crash-safe serving layer serializes resumable controller state
 * (warm starts, admission-ladder history, link protocol state, the
 * flight recorder) into a single self-validating blob with the same
 * header discipline as the accelerator program image (compiler/binary):
 *
 *   bytes 0..3   magic "RBCP" (little-endian 0x50434252)
 *   bytes 4..7   format version (u32)
 *   bytes 8..15  payload length in bytes (u64)
 *   bytes 16..19 CRC-32 (IEEE 802.3) of the payload
 *   bytes 20..   payload
 *
 * The payload is a flat little-endian stream written by
 * CheckpointWriter and consumed in the same order by CheckpointReader.
 * Doubles are stored *bitwise* (the u64 object representation), never
 * through text formatting, so a restore reproduces the exact floating
 * point state and a resumed run continues bitwise-identically to an
 * uninterrupted one.
 *
 * Failure handling is status-returning, never fatal: a truncated,
 * corrupt, or version-skewed blob yields a CheckpointStatus the caller
 * maps to a clean cold start (plus a flight-recorder postmortem).
 * writeFileAtomic() gives checkpoint files the torn-write guarantee —
 * the bytes land in a temporary sibling that is renamed over the
 * destination, so a crash mid-write always leaves either the old valid
 * checkpoint or the new one, never a hybrid.
 */

#ifndef ROBOX_SUPPORT_CHECKPOINT_HH
#define ROBOX_SUPPORT_CHECKPOINT_HH

#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace robox::support
{

/** Outcome of validating or consuming a checkpoint blob. */
enum class CheckpointStatus
{
    Ok = 0,      //!< Header valid, payload intact.
    Truncated,   //!< Blob shorter than the header + declared payload.
    BadMagic,    //!< Leading bytes are not "RBCP".
    BadVersion,  //!< Format version this build does not understand.
    BadChecksum, //!< Payload CRC-32 mismatch (torn or corrupt write).
    BadLayout,   //!< Payload shape disagrees with the consumer.
};

/** Human-readable status name (stable, greppable). */
const char *toString(CheckpointStatus status);

/** Current checkpoint format version. */
inline constexpr std::uint32_t kCheckpointVersion = 1;

/** Checkpoint magic, "RBCP" little-endian. */
inline constexpr std::uint32_t kCheckpointMagic = 0x50434252u;

/*
 * Field vocabulary. A checkpointed type lists its fields once, in a
 * template body
 *
 *     template <class Self, class Ar> static bool visit(Self &, Ar &);
 *
 * that CheckpointWriter (Self const) and CheckpointReader (Self
 * mutable) both run: every call below has the same name and meaning on
 * both archives, so one body writes and reads the same layout. Calls
 * return false (the reader also latches failed()) on a short payload
 * or a layout mismatch; the writer never fails. Logic that genuinely
 * differs between the two sides branches on Ar::kReading with
 * `if constexpr`.
 *
 *   u8 .. f64, str     scalars, little-endian, doubles bitwise
 *   enum8/enum32(e, m) an enum at a fixed width; the reader refuses
 *                      values above m
 *   expect(v)          write v (unsigned as u64, double, bool); the
 *                      reader requires the stored value to equal v, a
 *                      shape the receiving object already fixes
 *   require(c)         reader-side check on fields already read
 *   length(c)          a u64 element count; the reader resizes c, and
 *                      refuses a count above the payload bytes left
 *   vector(v)          length-prefixed doubles (Vector-like)
 *   vectorExact(v)     same layout; the reader keeps v's size
 *   vectorList(vs)     length-prefixed list of vector()s
 *   doubles(v)         v.size() doubles with no prefix
 *   object(x, ...)     a nested type through its own checkpoint() /
 *                      restore() (and that restore's failure policy)
 *
 * The visit bodies are the byte layout: adding, removing, reordering
 * or resizing a field in one must bump kCheckpointVersion.
 */

/** Append-only little-endian payload builder; finish() prepends the
 *  validated header. */
class CheckpointWriter
{
  public:
    static constexpr bool kReading = false;

    bool u8(std::uint8_t v)
    {
        payload_.push_back(static_cast<char>(v));
        return true;
    }
    bool u32(std::uint32_t v);
    bool u64(std::uint64_t v);
    bool i32(std::int32_t v) { return u32(static_cast<std::uint32_t>(v)); }
    bool i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
    bool boolean(bool v) { return u8(v ? 1 : 0); }

    /** Store a double bitwise (object representation, not text). */
    bool f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        return u64(bits);
    }

    /** Store n doubles bitwise, back to back. */
    bool f64Array(const double *p, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            f64(p[i]);
        return true;
    }

    /** Store a length-prefixed string. */
    bool str(const std::string &s);

    template <class E> bool enum8(E v, E)
    {
        return u8(static_cast<std::uint8_t>(v));
    }
    template <class E> bool enum32(E v, E)
    {
        return u32(static_cast<std::uint32_t>(v));
    }
    bool expect(std::unsigned_integral auto v) { return u64(v); }
    bool expect(double v) { return f64(v); }
    bool expect(bool v) { return boolean(v); }
    bool require(bool) { return true; }
    template <class C> bool length(const C &c) { return u64(c.size()); }
    template <class V> bool vector(const V &v)
    {
        return length(v) && f64Array(v.data(), v.size());
    }
    template <class V> bool vectorExact(const V &v) { return vector(v); }
    template <class V> bool vectorList(const std::vector<V> &vs)
    {
        length(vs);
        for (const V &v : vs)
            vector(v);
        return true;
    }
    bool doubles(const std::vector<double> &v)
    {
        return f64Array(v.data(), v.size());
    }
    template <class T, class... Extra>
    bool object(const T &x, const Extra &...)
    {
        x.checkpoint(*this);
        return true;
    }

    std::size_t payloadSize() const { return payload_.size(); }

    /** Render header + payload as the final blob. */
    std::string finish() const;

  private:
    std::string payload_;
};

/**
 * Header-validating payload consumer. Construction checks the magic,
 * version, declared length, and CRC; status() reports the verdict.
 * Reads return false once the payload is exhausted or a field
 * disagrees with the layout (and latch failed()), so a structurally
 * bad payload surfaces as BadLayout in the consumer rather than as
 * undefined behavior or an allocation sized by hostile bytes.
 */
class CheckpointReader
{
  public:
    static constexpr bool kReading = true;

    explicit CheckpointReader(const std::string &blob);

    /** Header validation verdict; reads only succeed when Ok. */
    CheckpointStatus status() const { return status_; }

    bool u8(std::uint8_t &out);
    bool u32(std::uint32_t &out);
    bool u64(std::uint64_t &out);
    bool i32(std::int32_t &out);
    bool i64(std::int64_t &out);
    bool boolean(bool &out);
    bool f64(double &out);
    bool f64Array(double *p, std::size_t n);
    bool str(std::string &out);

    template <class E> bool enum8(E &v, E max)
    {
        std::uint8_t raw = 0;
        if (!u8(raw) || !require(raw <= static_cast<std::uint8_t>(max)))
            return false;
        v = static_cast<E>(raw);
        return true;
    }
    template <class E> bool enum32(E &v, E max)
    {
        std::uint32_t raw = 0;
        if (!u32(raw) || !require(raw <= static_cast<std::uint32_t>(max)))
            return false;
        v = static_cast<E>(raw);
        return true;
    }
    bool expect(std::unsigned_integral auto want)
    {
        std::uint64_t v = 0;
        return u64(v) && require(v == want);
    }
    bool expect(double want)
    {
        double v = 0.0;
        return f64(v) && require(v == want);
    }
    bool expect(bool want)
    {
        bool v = false;
        return boolean(v) && require(v == want);
    }
    bool require(bool ok)
    {
        failed_ = failed_ || !ok;
        return ok;
    }

    template <class C> bool length(C &c)
    {
        std::uint64_t n = 0;
        if (!count(n))
            return false;
        if (c.size() != n)
            c.resize(static_cast<std::size_t>(n));
        return true;
    }
    template <class V> bool vector(V &v)
    {
        return length(v) && f64Array(v.data(), v.size());
    }
    template <class V> bool vectorExact(V &v)
    {
        std::uint64_t n = 0;
        return u64(n) && require(n == v.size()) &&
               f64Array(v.data(), v.size());
    }
    template <class V> bool vectorList(std::vector<V> &vs)
    {
        if (!length(vs))
            return false;
        for (V &v : vs)
            if (!vector(v))
                return false;
        return true;
    }
    bool doubles(std::vector<double> &v)
    {
        return f64Array(v.data(), v.size());
    }
    template <class T, class... Extra>
    bool object(T &x, const Extra &...extra)
    {
        return x.restore(*this, extra...);
    }

    /** True once any read ran past the payload end or disagreed with
     *  the layout. */
    bool failed() const { return failed_; }

    /** Payload bytes consumed so far (mirrors
     *  CheckpointWriter::payloadSize() at the same stream point). */
    std::size_t consumed() const { return pos_; }

    /** True when every payload byte has been consumed. */
    bool atEnd() const { return pos_ == payload_.size(); }

  private:
    bool take(void *out, std::size_t n);

    /** Read a u64 element count, refusing one larger than the payload
     *  bytes left (every element takes at least one byte). */
    bool count(std::uint64_t &n);

    std::string payload_;
    std::size_t pos_ = 0;
    CheckpointStatus status_ = CheckpointStatus::Truncated;
    bool failed_ = false;
};

/**
 * Write a blob to path via a temporary sibling + rename, so a crash
 * mid-write never leaves a torn file at path. Returns false (with the
 * temporary cleaned up) on any I/O failure; never throws.
 */
bool writeFileAtomic(const std::string &path, const std::string &data);

/**
 * Read an entire file into *out. Returns false when the file does not
 * exist or cannot be read; never throws.
 */
bool readFile(const std::string &path, std::string *out);

} // namespace robox::support

#endif // ROBOX_SUPPORT_CHECKPOINT_HH
