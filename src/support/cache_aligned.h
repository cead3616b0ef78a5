/**
 * @file
 * CacheAligned: one object per host cache line.
 *
 * Pool tasks that each own one element of a vector write it on every
 * access (a reuse collector, an MRU tracker, a BBV scratch map). Plain
 * elements sit side by side, so two executors writing neighbouring
 * elements keep stealing the same host cache line from each other
 * (false sharing) and run slower than one executor alone. Wrapping the
 * element type starts every element on its own line and pads it to a
 * whole number of lines.
 *
 * The line size is a plain 64: g++ warns about
 * std::hardware_destructive_interference_size in headers, since its
 * value may differ between translation units.
 */

#ifndef BP_SUPPORT_CACHE_ALIGNED_H
#define BP_SUPPORT_CACHE_ALIGNED_H

#include <cstddef>

namespace bp {

/** Host cache line size the layout of per-task state assumes. */
constexpr size_t kCacheLineBytes = 64;

/** @p T alone on its cache lines; the object is `value`. */
template <typename T>
struct alignas(kCacheLineBytes) CacheAligned
{
    T value;
};

} // namespace bp

#endif // BP_SUPPORT_CACHE_ALIGNED_H
