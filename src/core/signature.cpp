#include "src/core/signature.h"

#include <algorithm>
#include <cmath>

#include "src/support/logging.h"
#include "src/support/rng.h"

namespace bp {

const char *
signatureKindName(SignatureKind kind)
{
    switch (kind) {
      case SignatureKind::Bbv: return "bbv";
      case SignatureKind::Ldv: return "reuse_dist";
      case SignatureKind::Combined: return "combine";
    }
    return "?";
}

namespace {

// Feature id layout (64 bits):
//   bit 63     unused
//   bit 62     metric space (0 = BBV, 1 = LDV)
//   bits 61-32 thread slot (30 bits)
//   bits 31-0  per-metric key (basic block id / LDV bucket index)
// The fields must stay inside their widths or ids from different
// (space, thread) combinations would collide and merge unrelated
// feature mass, so featureId() checks both bounds.
constexpr uint64_t kLdvSpace = 1ull << 62;
constexpr unsigned kThreadBits = 30;
constexpr unsigned kKeyBits = 32;

inline uint64_t
featureId(bool ldv, unsigned thread, uint64_t key)
{
    BP_ASSERT(thread < (1u << kThreadBits),
              "thread slot exceeds the feature id's 30-bit field");
    BP_ASSERT(key < (1ull << kKeyBits),
              "feature key exceeds the feature id's 32-bit field");
    return (ldv ? kLdvSpace : 0) |
        (static_cast<uint64_t>(thread) << kKeyBits) | key;
}

/** Append one metric's features (un-normalized) for all threads. */
void
collectBbv(const RegionProfile &profile, bool concat,
           std::vector<std::pair<uint64_t, double>> &out)
{
    for (unsigned t = 0; t < profile.threads.size(); ++t) {
        const unsigned slot = concat ? t : 0;
        for (const auto &[bb, count] : profile.threads[t].bbv) {
            out.emplace_back(featureId(false, slot, bb),
                             static_cast<double>(count));
        }
    }
}

void
collectLdv(const RegionProfile &profile, bool concat, double inv_v,
           std::vector<std::pair<uint64_t, double>> &out)
{
    for (unsigned t = 0; t < profile.threads.size(); ++t) {
        const unsigned slot = concat ? t : 0;
        const auto &ldv = profile.threads[t].ldv;
        for (unsigned b = 0; b < kLdvBuckets; ++b) {
            const uint64_t count = ldv[b];
            if (count == 0)
                continue;
            double value = static_cast<double>(count);
            if (inv_v > 0.0)
                value *= std::exp2(static_cast<double>(b) * inv_v);
            out.emplace_back(featureId(true, slot, b), value);
        }
    }
}

/** Merge duplicate ids (summed threads) and L1-normalize in place. */
void
mergeAndNormalize(std::vector<std::pair<uint64_t, double>> &features)
{
    std::sort(features.begin(), features.end());
    size_t write = 0;
    double total = 0.0;
    for (size_t read = 0; read < features.size(); ++read) {
        if (write > 0 && features[write - 1].first == features[read].first) {
            features[write - 1].second += features[read].second;
        } else {
            features[write++] = features[read];
        }
        total += features[read].second;
    }
    features.resize(write);
    if (total > 0.0) {
        for (auto &[id, value] : features)
            value /= total;
    }
}

} // namespace

SparseSignature
buildSignature(const RegionProfile &profile, const SignatureConfig &config)
{
    SparseSignature signature;

    if (config.kind != SignatureKind::Ldv) {
        std::vector<std::pair<uint64_t, double>> bbv;
        collectBbv(profile, config.concatenateThreads, bbv);
        mergeAndNormalize(bbv);
        signature.features.insert(signature.features.end(), bbv.begin(),
                                  bbv.end());
    }
    if (config.kind != SignatureKind::Bbv) {
        std::vector<std::pair<uint64_t, double>> ldv;
        collectLdv(profile, config.concatenateThreads, config.ldvWeightInvV,
                   ldv);
        mergeAndNormalize(ldv);
        signature.features.insert(signature.features.end(), ldv.begin(),
                                  ldv.end());
    }
    if (config.kind == SignatureKind::Combined) {
        // Each half has unit L1 mass — unless it is empty (e.g. no
        // memory ops -> empty LDV), in which case blindly halving
        // would leave the whole vector at mass 0.5 and skew distances
        // against fully-populated regions. Renormalize the merged
        // vector to unit mass instead.
        double total = 0.0;
        for (const auto &[id, value] : signature.features)
            total += value;
        if (total > 0.0) {
            for (auto &[id, value] : signature.features)
                value /= total;
        }
    }
    return signature;
}

std::vector<double>
projectSignature(const SparseSignature &signature, unsigned dim,
                 uint64_t seed)
{
    BP_ASSERT(dim >= 1, "projection dimension must be positive");
    std::vector<double> out(dim, 0.0);
    for (const auto &[id, value] : signature.features) {
        for (unsigned d = 0; d < dim; ++d) {
            const uint64_t h = hashMix(id * 0x2545F4914F6CDD1Dull + d +
                                       (seed << 17));
            // Map the hash to a uniform direction component in [-1, 1].
            const double unit =
                static_cast<double>(h >> 11) * 0x1.0p-53;
            out[d] += value * (2.0 * unit - 1.0);
        }
    }
    return out;
}

double
squaredDistance(const std::vector<double> &a, const std::vector<double> &b)
{
    BP_ASSERT(a.size() == b.size(), "dimension mismatch");
    return squaredDistance(a.data(), b.data(), a.size());
}

} // namespace bp
