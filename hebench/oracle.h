/**
 * @file
 * The benchmark's output oracle: plaintext arithmetic mod t computed
 * with schoolbook loops that share no code with hentt (no NTT, no RNS,
 * no SIMD tables). Expected results are computed at set-up, outside
 * every timer.
 */

#ifndef HEBENCH_ORACLE_H
#define HEBENCH_ORACLE_H

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace hebench {

using Poly = std::vector<std::uint64_t>;

/** Negacyclic product a*b in Z_t[X]/(X^N + 1), coefficients in [0, t). */
inline Poly
NegacyclicMul(const Poly &a, const Poly &b, std::uint64_t t)
{
    const std::size_t n = a.size();
    if (b.size() != n || t >= (1ull << 20)) {
        // t < 2^20 keeps every partial sum below 2^40 * N < 2^64.
        throw std::invalid_argument("oracle: shape or modulus out of range");
    }
    Poly out(n);
    for (std::size_t k = 0; k < n; ++k) {
        // X^k collects a_i b_{k-i} (i <= k) and -a_i b_{k+N-i} (i > k).
        std::uint64_t pos = 0;
        std::uint64_t neg = 0;
        for (std::size_t i = 0; i <= k; ++i) {
            pos += a[i] * b[k - i];
        }
        for (std::size_t i = k + 1; i < n; ++i) {
            neg += a[i] * b[k + n - i];
        }
        out[k] = (pos % t + t - neg % t) % t;
    }
    return out;
}

inline Poly
AddMod(const Poly &a, const Poly &b, std::uint64_t t)
{
    Poly out(a.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        out[k] = (a[k] + b[k]) % t;
    }
    return out;
}

}  // namespace hebench

#endif  // HEBENCH_ORACLE_H
