// Evaluation table for PlacementEnvironment: one entry per placement the
// environment has evaluated or is evaluating.
//
// Keyed by the placement's 64-bit content hash, but every hit verifies
// the full device vector, so a hash collision can never return another
// placement's EvalResult (it just becomes a second entry under the same
// hash).
//
// An entry is in flight from the moment PrepareEvaluation claims it until
// CommitEvaluation fills in its noiseless result; after that it is done.
// Entries are never evicted. The table holds no lock of its own: the
// environment only touches it inside its serial Prepare/Commit phases,
// under its state lock.
//
// Entries sit in a flat vector in claim order; the hash -> slots index
// is only ever probed, never iterated, so no behavior depends on
// unordered-container iteration order (eagle-lint rule ND02).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/measurement.h"
#include "sim/placement.h"

namespace eagle::core {

class EvalCache {
 public:
  // The slot holding this placement, adding an in-flight entry when there
  // is none; `.second` is true when the entry was added.
  std::pair<int, bool> Claim(const sim::Placement& placement) {
    return Claim(placement.Hash(), placement.devices());
  }
  // Hash-explicit variant, exposed so tests can force collisions without
  // hunting for real 64-bit hash collisions.
  std::pair<int, bool> Claim(std::uint64_t hash,
                             const std::vector<sim::DeviceId>& devices);

  // Copies a done slot's result into `*out`; false while it is in flight.
  bool Result(int slot, sim::EvalResult* out) const;
  // Stores the slot's noiseless result and marks it done.
  void Fill(int slot, const sim::EvalResult& result);

  // Copies the result of a done entry for exactly this placement into
  // `*out`; false when it is absent or still in flight.
  bool Lookup(const sim::Placement& placement, sim::EvalResult* out) const;
  void Insert(const sim::Placement& placement, const sim::EvalResult& result) {
    Fill(Claim(placement).first, result);
  }

  int size() const { return static_cast<int>(entries_.size()); }
  // Entries added under a hash an earlier, different placement holds.
  int collisions() const { return collisions_; }

 private:
  struct Entry {
    std::vector<sim::DeviceId> devices;
    bool done = false;
    sim::EvalResult result;
  };

  // The slot holding `devices` under `hash`, or -1.
  int Find(std::uint64_t hash, const std::vector<sim::DeviceId>& devices) const;

  std::vector<Entry> entries_;
  std::unordered_map<std::uint64_t, std::vector<int>> index_;
  int collisions_ = 0;
};

}  // namespace eagle::core
