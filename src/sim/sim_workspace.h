// Reusable per-run scratch state for ExecutionSimulator.
//
// One discrete-event run used to allocate a dozen vectors, two hash maps,
// and a priority_queue per device — every single call. A SimWorkspace
// keeps all of that storage alive between runs. Each op has one 16-byte
// run record (ready time, pending inputs or pick slot, device), rebuilt
// at the start of every run from the op's in-degree and the placement, and
// each ready op waits in its device's heap as one integer key
// (MakeReadyKey). Nothing in it is indexed by (op, device): transfer
// dedup is op-local and memory is swept per device-local pick
// (simulator.cpp). After the first run on a given graph shape the
// simulator performs no heap allocation at all (beyond the caller-visible
// StepResult).
//
// Workspaces are leased from a support::ResourcePool owned by the
// simulator, because Run() is const and called concurrently by the
// evaluation service; each in-flight run gets a private workspace.
//
// This header is, together with nn/arena.h, the sanctioned allocation
// layer for the hot path (eagle-lint HP01): simulator.cpp itself must not
// touch new/malloc/unordered_map.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/op_graph.h"
#include "sim/device.h"
#include "support/check.h"

namespace eagle::sim {

// A ready op's place in its device's queue: the smaller key runs first.
// Ops ready earlier run first; ties go to the longer downstream critical
// path, then to the lower id. The key is the ready time's bits, then
// INT32_MAX − priority, then the op id, from the most significant bits
// down. A finite double with its sign bit clear orders as its bit pattern
// does as an unsigned integer, so keys compare exactly as the
// (time, priority, id) triples do; priorities (critical-path lengths,
// below the op count) and op ids are below 2^31. Distinct ops have
// distinct keys, so any binary heap pops them in one sequence — the
// historical std::priority_queue schedule, bit for bit.
using ReadyKey = unsigned __int128;

inline ReadyKey MakeReadyKey(double ready_time, int priority, graph::OpId op) {
  EAGLE_DCHECK(std::isfinite(ready_time) && !std::signbit(ready_time));
  EAGLE_DCHECK(priority >= 0 && op >= 0);
  const auto inverse_priority = static_cast<std::uint32_t>(
      std::numeric_limits<std::int32_t>::max() - priority);
  return static_cast<ReadyKey>(std::bit_cast<std::uint64_t>(ready_time))
             << 64 |
         static_cast<ReadyKey>(inverse_priority) << 32 |
         static_cast<std::uint32_t>(op);
}

inline double ReadyTimeOf(ReadyKey key) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(key >> 64));
}
// INT32_MAX − priority: smaller means the longer critical path.
inline std::uint32_t InversePriorityOf(ReadyKey key) {
  return static_cast<std::uint32_t>(key >> 32);
}
inline graph::OpId OpOf(ReadyKey key) {
  return static_cast<graph::OpId>(static_cast<std::uint32_t>(key));
}

struct SimWorkspace {
  // Per-op run state, 16 bytes, rebuilt at the start of every run.
  struct OpRun {
    double ready;  // latest input arrival so far (0 for a source op)
    // Inputs still to arrive; once the op is picked, its pick slot.
    std::uint32_t pending;
    DeviceId device;
  };
  std::vector<OpRun> ops;
  // Index of the op's first remote copy in `copies`, or kNoCopy. An op's
  // copies are made while its out-edges are resolved, so they are
  // contiguous.
  static constexpr std::uint32_t kNoCopy = ~std::uint32_t{0};
  std::vector<std::uint32_t> first_copy;

  // Per-device / per-channel availability.
  std::vector<double> device_free;
  std::vector<double> link_free;

  // Manual binary heaps (std::push_heap/pop_heap) so the backing vectors
  // survive across runs; priority_queue would own — and free — them.
  std::vector<std::vector<ReadyKey>> heaps;

  // Transfer dedup, exact key (producer, dst device, bytes). Every send of
  // an op's output happens while that op's out-edges are resolved, so the
  // cache only has to live for one op: `sends` holds the current op's
  // sends, chained per destination device from `device_scratch`.
  struct Send {
    std::int64_t bytes;
    double arrival;
    std::uint32_t next;  // index+1 of the previous send to this device
    DeviceId device;
  };
  std::vector<Send> sends;

  // A tensor copied to a remote device: live from its first arrival until
  // its last consumer there finishes (`free_slot`, a pick slot).
  struct RemoteCopy {
    std::int64_t bytes;
    double arrival;
    std::uint32_t free_slot;
    DeviceId device;
    graph::OpId producer;
  };
  std::vector<RemoteCopy> copies;  // in the producers' pick order

  // Per-device scratch for the op being resolved: its send chain and its
  // copy on that device, both as index+1 (0 = none). Cleared per op.
  struct DeviceScratch {
    std::uint32_t send_head = 0;
    std::uint32_t copy = 0;
  };
  std::vector<DeviceScratch> device_scratch;

  // Pick-indexed memory sweep. Device d's picks take the device-major
  // slots [slot_end[d-1], slot_end[d]) in pick order; while the run is
  // scheduling, slot_end[d] is the next free slot of device d.
  struct PickSlot {
    double finish;
    std::int64_t arrived;  // copies arriving after the previous slot's
                           // finish and strictly before this one's
    std::int64_t delta;    // allocations minus frees at this finish time
  };
  std::vector<PickSlot> picks;
  std::vector<std::uint32_t> slot_end;  // per device

  // Sizes storage for (num_ops, num_devices, num_channels) and clears what
  // a run leaves behind. O(devices + channels): the per-op records are
  // rebuilt by the run itself.
  void Prepare(int num_ops, int num_devices, int num_channels) {
    const std::size_t num = static_cast<std::size_t>(num_ops);
    const std::size_t devices = static_cast<std::size_t>(num_devices);
    ops.resize(num);
    first_copy.resize(num);
    picks.resize(num);
    device_free.assign(devices, 0.0);
    link_free.assign(static_cast<std::size_t>(num_channels), 0.0);
    heaps.resize(devices);
    for (auto& h : heaps) h.clear();
    device_scratch.assign(devices, DeviceScratch{});
    slot_end.assign(devices, 0);
    sends.clear();
    copies.clear();
  }
};

}  // namespace eagle::sim
