/**
 * @file
 * Byte-exact copies of the PRE-REWRITE profiling structures: the
 * `std::unordered_map`-indexed reuse-distance collector and the
 * `std::list` + `unordered_map` + `unordered_set` MRU tracker that
 * shipped before the FlatMap / intrusive-LRU hot-path rebuild.
 *
 * `tests/profile_identity_test.cpp` proves the shipped structures
 * bit-identical to these. Do not "modernize" or fix this code: it IS
 * the identity baseline.
 */

#ifndef BP_TESTS_LEGACY_PROFILE_REFERENCE_H
#define BP_TESTS_LEGACY_PROFILE_REFERENCE_H

#include <algorithm>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/profile/mru_tracker.h"
#include "src/support/fenwick.h"

namespace bp {

/** The previous std::list + unordered_map MruTracker. */
class LegacyMruTracker
{
  public:
    explicit LegacyMruTracker(uint64_t capacity_lines,
                              uint64_t private_lines = 4096)
        : capacity_(capacity_lines), privateCapacity_(private_lines)
    {}

    void
    access(uint64_t line, bool write)
    {
        auto it = map_.find(line);
        if (it != map_.end()) {
            order_.erase(it->second);
        } else if (map_.size() >= capacity_) {
            const uint64_t victim = order_.front();
            map_.erase(victim);
            llcDirty_.erase(victim);
            order_.pop_front();
        }
        order_.push_back(line);
        map_[line] = std::prev(order_.end());

        auto pit = privMap_.find(line);
        bool dirty = write;
        if (pit != privMap_.end()) {
            dirty = dirty || pit->second->dirty;
            privOrder_.erase(pit->second);
            privMap_.erase(pit);
        } else if (privMap_.size() >= privateCapacity_) {
            const PrivateLine &victim = privOrder_.front();
            if (victim.dirty)
                llcDirty_.insert(victim.line);
            privMap_.erase(victim.line);
            privOrder_.pop_front();
        }
        privOrder_.push_back(PrivateLine{line, dirty});
        privMap_[line] = std::prev(privOrder_.end());
        if (write)
            llcDirty_.erase(line);
    }

    void
    invalidateLine(uint64_t line)
    {
        auto it = map_.find(line);
        if (it != map_.end()) {
            order_.erase(it->second);
            map_.erase(it);
        }
        auto pit = privMap_.find(line);
        if (pit != privMap_.end()) {
            privOrder_.erase(pit->second);
            privMap_.erase(pit);
        }
        llcDirty_.erase(line);
    }

    void
    downgradeLine(uint64_t line)
    {
        auto pit = privMap_.find(line);
        if (pit != privMap_.end() && pit->second->dirty) {
            pit->second->dirty = false;
            llcDirty_.insert(line);
        }
    }

    std::vector<MruEntry>
    snapshot(uint64_t llc_dirty_window = UINT64_MAX) const
    {
        std::vector<MruEntry> entries;
        entries.reserve(order_.size());
        const uint64_t total = order_.size();
        uint64_t position = 0;
        for (const uint64_t line : order_) {
            const uint64_t from_mru = total - 1 - position;
            ++position;
            MruEntry entry{line, false, false};
            auto pit = privMap_.find(line);
            if (pit != privMap_.end() && pit->second->dirty)
                entry.written = true;
            else if (from_mru < llc_dirty_window && llcDirty_.count(line))
                entry.llcDirty = true;
            entries.push_back(entry);
        }
        return entries;
    }

    uint64_t size() const { return map_.size(); }

  private:
    struct PrivateLine
    {
        uint64_t line;
        bool dirty;
    };

    uint64_t capacity_;
    uint64_t privateCapacity_;
    std::list<uint64_t> order_;
    std::unordered_map<uint64_t, std::list<uint64_t>::iterator> map_;
    std::list<PrivateLine> privOrder_;
    std::unordered_map<uint64_t, std::list<PrivateLine>::iterator> privMap_;
    std::unordered_set<uint64_t> llcDirty_;
};

/** The previous unordered_map-indexed reuse-distance collector. */
class LegacyReuseDistanceCollector
{
  public:
    static constexpr uint64_t kCold = UINT64_MAX;

    explicit LegacyReuseDistanceCollector(size_t initial_capacity = 1 << 14)
        : live_(std::max<size_t>(16, initial_capacity), 0),
          tree_(std::max<size_t>(16, initial_capacity))
    {}

    uint64_t
    access(uint64_t line)
    {
        uint64_t distance = kCold;
        auto it = lastPos_.find(line);
        if (it != lastPos_.end()) {
            const uint64_t pos = it->second;
            distance = static_cast<uint64_t>(
                tree_.rangeSum(pos + 1, nextPos_ == 0 ? 0 : nextPos_ - 1));
            tree_.add(pos, -1);
            live_[pos] = 0;
            lastPos_.erase(it);
        }
        if (nextPos_ >= live_.size()) {
            const uint64_t live_count = lastPos_.size();
            const size_t target = live_count * 2 > live_.size()
                ? live_.size() * 2 : live_.size();
            compact(target);
        }
        const uint64_t pos = nextPos_++;
        tree_.add(pos, 1);
        live_[pos] = 1;
        lastPos_.emplace(line, pos);
        return distance;
    }

  private:
    void
    compact(size_t new_capacity)
    {
        std::vector<std::pair<uint64_t, uint64_t>> entries;
        entries.reserve(lastPos_.size());
        for (const auto &[line, pos] : lastPos_)
            entries.emplace_back(pos, line);
        std::sort(entries.begin(), entries.end());
        live_.assign(new_capacity, 0);
        tree_ = FenwickTree(new_capacity);
        nextPos_ = 0;
        for (const auto &[old_pos, line] : entries) {
            lastPos_[line] = nextPos_;
            live_[nextPos_] = 1;
            tree_.add(nextPos_, 1);
            ++nextPos_;
        }
    }

    std::unordered_map<uint64_t, uint64_t> lastPos_;
    std::vector<uint8_t> live_;
    FenwickTree tree_;
    uint64_t nextPos_ = 0;
};

} // namespace bp

#endif // BP_TESTS_LEGACY_PROFILE_REFERENCE_H
