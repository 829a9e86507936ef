/**
 * @file
 * Stateless hashing for deterministic, seeded randomness.
 *
 * The chaos engine, canary selection, fault injection and the crash
 * harness all derive every random decision as a pure function of a
 * seed and the decision's identity (channel, batch, robot, cycle...),
 * so campaigns replay bitwise at any thread count. They share these
 * two primitives; changing either changes every seeded golden.
 */

#ifndef ROBOX_SUPPORT_HASH_HH
#define ROBOX_SUPPORT_HASH_HH

#include <cstdint>

namespace robox::support
{

/** splitmix64 finalizer: a fast, well-mixed 64-bit permutation. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Top 53 bits -> uniform double in [0, 1); exact and portable. */
constexpr double
uniform(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace robox::support

#endif // ROBOX_SUPPORT_HASH_HH
