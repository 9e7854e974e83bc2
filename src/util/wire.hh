/**
 * @file
 * The one byte codec of the on-disk payloads (checkpoint units, serve
 * sessions and manifests, persisted acoustic scores, DSA1 artifact
 * frames): trivially copyable values in host byte order, raw arrays,
 * and strings prefixed with a u64 length.
 *
 * Reader is bounds-checked: a read that needs more bytes than remain
 * fails (returns false) instead of touching memory past the end, and
 * a length prefix larger than what remains is refused before anything
 * is allocated for it. A payload parses all-or-nothing when its
 * caller checks every read and finishes with done().
 */

#ifndef DARKSIDE_UTIL_WIRE_HH
#define DARKSIDE_UTIL_WIRE_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace darkside::wire {

/** Appends encoded values to a byte string. */
class Writer
{
  public:
    explicit Writer(std::string &out) : out_(out) {}

    template <typename T>
    Writer &
    pod(const T &v)
    {
        return pods(&v, 1);
    }

    /** `n` values back to back, without a count. */
    template <typename T>
    Writer &
    pods(const T *data, std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        out_.append(reinterpret_cast<const char *>(data), n * sizeof(T));
        return *this;
    }

    /** Raw bytes, without a length. */
    Writer &
    bytes(const std::string &s)
    {
        out_.append(s);
        return *this;
    }

    /** u64 length, then the bytes. */
    Writer &
    string(const std::string &s)
    {
        return pod<std::uint64_t>(s.size()).bytes(s);
    }

    /** u64 count, then the elements. */
    template <typename T>
    Writer &
    vector(const std::vector<T> &v)
    {
        return pod<std::uint64_t>(v.size()).pods(v.data(), v.size());
    }

  private:
    std::string &out_;
};

/** Decodes values from a byte string, front to back. */
class Reader
{
  public:
    explicit Reader(const std::string &in) : in_(in) {}

    template <typename T>
    bool
    pod(T &v)
    {
        return pods(&v, 1);
    }

    /** `n` values written by Writer::pods. */
    template <typename T>
    bool
    pods(T *data, std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (n > remaining() / sizeof(T))
            return false;
        std::memcpy(data, in_.data() + offset_, n * sizeof(T));
        offset_ += n * sizeof(T);
        return true;
    }

    /** `n` raw bytes. */
    bool
    bytes(std::string &s, std::size_t n)
    {
        if (n > remaining())
            return false;
        s.assign(in_, offset_, n);
        offset_ += n;
        return true;
    }

    /** A string written by Writer::string. */
    bool
    string(std::string &s)
    {
        std::uint64_t len = 0;
        return pod(len) && len <= remaining() &&
            bytes(s, static_cast<std::size_t>(len));
    }

    /** A vector written by Writer::vector. */
    template <typename T>
    bool
    vector(std::vector<T> &v)
    {
        std::uint64_t count = 0;
        if (!pod(count) || count > remaining() / sizeof(T))
            return false;
        v.resize(static_cast<std::size_t>(count));
        return pods(v.data(), v.size());
    }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return in_.size() - offset_; }

    /** True once every byte has been consumed. */
    bool done() const { return offset_ == in_.size(); }

  private:
    const std::string &in_;
    std::size_t offset_ = 0;
};

} // namespace darkside::wire

#endif // DARKSIDE_UTIL_WIRE_HH
