#include "core/eval_cache.h"

#include "support/check.h"

namespace eagle::core {

int EvalCache::Find(std::uint64_t hash,
                    const std::vector<sim::DeviceId>& devices) const {
  const auto it = index_.find(hash);
  if (it == index_.end()) return -1;
  for (const int slot : it->second) {
    if (entries_[static_cast<std::size_t>(slot)].devices == devices) {
      return slot;
    }
  }
  return -1;
}

std::pair<int, bool> EvalCache::Claim(
    std::uint64_t hash, const std::vector<sim::DeviceId>& devices) {
  const int found = Find(hash, devices);
  if (found >= 0) return {found, false};
  std::vector<int>& slots = index_[hash];
  if (!slots.empty()) ++collisions_;
  slots.push_back(size());
  entries_.push_back(Entry{devices, false, {}});
  return {slots.back(), true};
}

bool EvalCache::Result(int slot, sim::EvalResult* out) const {
  EAGLE_CHECK(slot >= 0 && slot < size());
  const Entry& entry = entries_[static_cast<std::size_t>(slot)];
  if (entry.done) *out = entry.result;
  return entry.done;
}

void EvalCache::Fill(int slot, const sim::EvalResult& result) {
  EAGLE_CHECK(slot >= 0 && slot < size());
  Entry& entry = entries_[static_cast<std::size_t>(slot)];
  entry.result = result;
  entry.done = true;
}

bool EvalCache::Lookup(const sim::Placement& placement,
                       sim::EvalResult* out) const {
  const int slot = Find(placement.Hash(), placement.devices());
  return slot >= 0 && Result(slot, out);
}

}  // namespace eagle::core
