/**
 * @file
 * A read-only view of a contiguous run of elements (the project
 * builds as C++17, which has no std::span). The flat communication
 * and replication layers keep every per-entry list of one pass in a
 * single shared buffer and hand the lists out as spans, so reading
 * one never allocates.
 */

#ifndef CVLIW_SUPPORT_SPAN_HH
#define CVLIW_SUPPORT_SPAN_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace cvliw
{

/**
 * Borrowed [first, last) range. Valid until the owning buffer is
 * modified; copy it out with toVector() to keep it longer.
 */
template <typename T>
class Span
{
  public:
    Span() = default;
    Span(const T *first, const T *last) : first_(first), last_(last) {}

    const T *begin() const { return first_; }
    const T *end() const { return last_; }
    std::size_t size() const
    {
        return static_cast<std::size_t>(last_ - first_);
    }
    bool empty() const { return first_ == last_; }
    const T &operator[](std::size_t i) const { return first_[i]; }

    /** Owned copy of the viewed elements. */
    std::vector<T> toVector() const { return {first_, last_}; }

    bool operator==(const Span &o) const
    {
        return std::equal(first_, last_, o.first_, o.last_);
    }
    bool operator!=(const Span &o) const { return !(*this == o); }

  private:
    const T *first_ = nullptr;
    const T *last_ = nullptr;
};

} // namespace cvliw

#endif // CVLIW_SUPPORT_SPAN_HH
