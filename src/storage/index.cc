#include "storage/index.h"

#include <algorithm>
#include <bit>
#include <mutex>

namespace popdb {

namespace {

/// Open-addressing capacity for `count` keys: a power of two at most half
/// full.
size_t SlotCapacity(size_t count) {
  return std::bit_ceil(std::max<size_t>(2 * count, 4));
}

}  // namespace

template <typename KeyAt>
void HashIndex::BuildBase(int64_t n, KeyAt key_at) {
  // Pass 1: give every indexed row the id of its distinct key (first-seen
  // order) and count postings per key. The slot table is sized for the
  // worst case of all-distinct keys here and shrunk below.
  constexpr uint32_t kSkip = UINT32_MAX;
  std::vector<uint32_t> row_key(static_cast<size_t>(n), kSkip);
  slots_.assign(SlotCapacity(static_cast<size_t>(n)), 0);
  std::vector<uint32_t> counts;
  size_t mask = slots_.size() - 1;
  for (int64_t rid = 0; rid < n; ++rid) {
    const Value* key = key_at(rid);
    if (key == nullptr) continue;
    const size_t h = key->Hash();
    size_t s = h & mask;
    while (slots_[s] != 0) {
      const uint32_t k = slots_[s] - 1;
      if (key_hash_[k] == h && keys_[k] == *key) break;
      s = (s + 1) & mask;
    }
    if (slots_[s] == 0) {
      keys_.push_back(*key);
      key_hash_.push_back(h);
      counts.push_back(0);
      slots_[s] = static_cast<uint32_t>(keys_.size());
    }
    const uint32_t k = slots_[s] - 1;
    row_key[static_cast<size_t>(rid)] = k;
    ++counts[k];
  }
  // Pass 2: prefix sums, then postings in rid order (ascending per key).
  offsets_.assign(keys_.size() + 1, 0);
  for (size_t k = 0; k < keys_.size(); ++k) {
    offsets_[k + 1] = offsets_[k] + counts[k];
  }
  postings_.resize(offsets_.back());
  std::vector<uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (int64_t rid = 0; rid < n; ++rid) {
    const uint32_t k = row_key[static_cast<size_t>(rid)];
    if (k != kSkip) postings_[fill[k]++] = rid;
  }
  // Re-slot the distinct keys into a table sized for them (a fresh
  // vector: assign would keep the worst-case capacity), and drop the
  // growth slack of the key arrays; the base never changes again.
  keys_.shrink_to_fit();
  key_hash_.shrink_to_fit();
  if (SlotCapacity(keys_.size()) < slots_.size()) {
    slots_ = std::vector<uint32_t>(SlotCapacity(keys_.size()), 0);
    mask = slots_.size() - 1;
    for (size_t k = 0; k < keys_.size(); ++k) {
      size_t s = key_hash_[k] & mask;
      while (slots_[s] != 0) s = (s + 1) & mask;
      slots_[s] = static_cast<uint32_t>(k + 1);
    }
  }
}

HashIndex::HashIndex(const Table& table, int column)
    : table_name_(table.name()), column_(column) {
  const TableSnapshot snap = table.Snapshot();
  BuildBase(snap.num_rows(), [&](int64_t rid) -> const Value* {
    if (!snap.alive(rid)) return nullptr;
    return &snap.row(rid)[static_cast<size_t>(column)];
  });
}

HashIndex::HashIndex(const std::vector<Row>& rows, int column,
                     std::string name)
    : table_name_(std::move(name)), column_(column) {
  BuildBase(static_cast<int64_t>(rows.size()), [&](int64_t rid) {
    return &rows[static_cast<size_t>(rid)][static_cast<size_t>(column)];
  });
}

int64_t HashIndex::FindBaseKey(const Value& key, size_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t s = hash & mask;; s = (s + 1) & mask) {
    const uint32_t e = slots_[s];
    if (e == 0) return -1;
    if (key_hash_[e - 1] == hash && keys_[e - 1] == key) return e - 1;
  }
}

std::span<const int64_t> HashIndex::Probe(
    const Value& key, std::vector<int64_t>* scratch) const {
  const int64_t k = FindBaseKey(key, key.Hash());
  std::span<const int64_t> base;
  if (k >= 0) {
    const size_t lo = offsets_[static_cast<size_t>(k)];
    base = {postings_.data() + lo, offsets_[static_cast<size_t>(k) + 1] - lo};
  }
  // Acquire pairs with Insert's release store: a reader whose snapshot
  // contains a row also sees the posting inserted before its publish.
  if (!has_delta_.load(std::memory_order_acquire)) return base;
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = delta_.find(key);
  if (it == delta_.end()) return base;
  scratch->assign(base.begin(), base.end());
  scratch->insert(scratch->end(), it->second.begin(), it->second.end());
  return *scratch;
}

void HashIndex::Insert(const Value& key, int64_t rid) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  delta_[key].push_back(rid);
  has_delta_.store(true, std::memory_order_release);
}

int64_t HashIndex::num_keys() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  int64_t n = static_cast<int64_t>(keys_.size());
  for (const auto& [key, rids] : delta_) {
    if (FindBaseKey(key, key.Hash()) < 0) ++n;
  }
  return n;
}

}  // namespace popdb
