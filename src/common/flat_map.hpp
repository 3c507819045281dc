// Id-keyed lookups for the simulator's task paths: a dense FlatIdMap for
// long-lived per-owner state, and a SmallIdMap for per-call lookups.
//
// FlatIdMap replaces std::unordered_map<int, V>.  Task ids are small,
// monotonically assigned integers (drivers hand them out starting at 1 and
// never reuse them), so a flat vector indexed by id beats hashing:
// Platform::task_counters looks up every live task every quantum, and the
// hash, probe chain and cache misses of unordered_map show up in profiles.
// Lookup is one bounds check and one vector index.
//
// Memory: FlatIdMap's backing vector grows to the largest id ever inserted
// and never shrinks (erase only clears the presence flag).  That is the
// largest id the *driver* has handed out, not the owner's task count: a
// fleet numbers tasks fleet-wide, so a node holding 8 tasks still sizes its
// maps by the fleet's ~10 000th id.  FlatIdMap therefore suits state that
// lives as long as its owner and is paid for once; a map built afresh per
// call would allocate and zero that whole table every time.
//
// SmallIdMap is the per-call form: a vector of (id, value) entries sorted
// by id, sized by the entries it holds and searched by binary search, so a
// lookup over a quantum's live tasks costs O(live tasks) in time and memory
// whatever the ids are.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

namespace synpa::common {

template <class V>
class FlatIdMap {
public:
    /// Pointer to the value for `id`, or nullptr when absent.  Pointers are
    /// invalidated by any growing insert (operator[] / insert_or_assign with
    /// a new largest id), like vector iterators.
    V* find(int id) noexcept {
        const auto i = static_cast<std::size_t>(id);
        return id >= 0 && i < present_.size() && present_[i] ? &values_[i] : nullptr;
    }
    const V* find(int id) const noexcept {
        const auto i = static_cast<std::size_t>(id);
        return id >= 0 && i < present_.size() && present_[i] ? &values_[i] : nullptr;
    }

    bool contains(int id) const noexcept { return find(id) != nullptr; }

    /// Inserts or overwrites the value for `id` (id must be >= 0).
    void insert_or_assign(int id, V value) {
        const auto i = static_cast<std::size_t>(id);
        if (i >= present_.size()) {
            present_.resize(i + 1, 0);
            values_.resize(i + 1);
        }
        size_ += present_[i] ? 0u : 1u;
        present_[i] = 1;
        values_[i] = std::move(value);
    }

    /// Reference to the value for `id` (id must be >= 0), default-
    /// constructing it when absent — the unordered_map operator[] contract.
    V& operator[](int id) {
        const auto i = static_cast<std::size_t>(id);
        if (i >= present_.size()) {
            present_.resize(i + 1, 0);
            values_.resize(i + 1);
        }
        size_ += present_[i] ? 0u : 1u;
        present_[i] = 1;
        return values_[i];
    }

    /// Reference to the value for `id`; throws std::out_of_range when absent.
    const V& at(int id) const {
        const V* v = find(id);
        if (v == nullptr) throw std::out_of_range("FlatIdMap::at: absent id");
        return *v;
    }
    V& at(int id) {
        V* v = find(id);
        if (v == nullptr) throw std::out_of_range("FlatIdMap::at: absent id");
        return *v;
    }

    /// Removes `id`; returns whether it was present.  Capacity is kept.
    bool erase(int id) noexcept {
        const auto i = static_cast<std::size_t>(id);
        if (id < 0 || i >= present_.size() || !present_[i]) return false;
        present_[i] = 0;
        values_[i] = V{};
        --size_;
        return true;
    }

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    /// Calls fn(id, value) for every present entry in ascending id order.
    template <class Fn>
    void for_each(Fn&& fn) const {
        for (std::size_t i = 0; i < present_.size(); ++i)
            if (present_[i]) fn(static_cast<int>(i), values_[i]);
    }

private:
    std::vector<unsigned char> present_;
    std::vector<V> values_;
    std::size_t size_ = 0;
};

template <class V>
class SmallIdMap {
public:
    using Entry = std::pair<int, V>;

    SmallIdMap() = default;
    /// Takes one call's (id, value) entries in any order and sorts them by
    /// id.  Ids may repeat: has_duplicate() reports it, and find() then
    /// returns one of the repeated entries.
    explicit SmallIdMap(std::vector<Entry> entries) : entries_(std::move(entries)) {
        std::sort(entries_.begin(), entries_.end(),
                  [](const Entry& a, const Entry& b) { return a.first < b.first; });
    }

    /// Builds the map from one (id, value) entry per element of `items`.
    template <class Range, class EntryOf>
    static SmallIdMap from(const Range& items, EntryOf&& entry_of) {
        std::vector<Entry> entries;
        entries.reserve(std::size(items));
        for (const auto& item : items) entries.push_back(entry_of(item));
        return SmallIdMap(std::move(entries));
    }

    /// Pointer to the value for `id`, or nullptr when absent.
    const V* find(int id) const noexcept {
        const auto it = std::lower_bound(entries_.begin(), entries_.end(), id,
                                         [](const Entry& e, int key) { return e.first < key; });
        return it != entries_.end() && it->first == id ? &it->second : nullptr;
    }

    /// Whether some id was given more than once.
    bool has_duplicate() const noexcept {
        return std::adjacent_find(entries_.begin(), entries_.end(),
                                  [](const Entry& a, const Entry& b) {
                                      return a.first == b.first;
                                  }) != entries_.end();
    }

    std::size_t size() const noexcept { return entries_.size(); }

private:
    std::vector<Entry> entries_;
};

}  // namespace synpa::common
