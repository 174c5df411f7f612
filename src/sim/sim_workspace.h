// Reusable per-run scratch state for ExecutionSimulator.
//
// One discrete-event run used to allocate a dozen vectors, two hash maps,
// and a priority_queue per device — every single call. A SimWorkspace
// keeps all of that storage alive between runs. Per-op scheduling state
// is stamped with a per-run epoch counter, so "reset" is bumping one
// integer instead of clearing O(ops) entries. Nothing in it is indexed by
// (op, device): transfer dedup is op-local and memory is swept per
// device-local pick (simulator.cpp). After the first run on a given graph
// shape the simulator performs no heap allocation at all (beyond the
// caller-visible StepResult).
//
// Workspaces are leased from a support::ResourcePool owned by the
// simulator, because Run() is const and called concurrently by the
// evaluation service; each in-flight run gets a private workspace.
//
// This header is, together with nn/arena.h, the sanctioned allocation
// layer for the hot path (eagle-lint HP01): simulator.cpp itself must not
// touch new/malloc/unordered_map.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/op_graph.h"
#include "sim/device.h"

namespace eagle::sim {

// Ready-queue entry: ops ready earlier run first; ties broken by longer
// downstream critical path, then by id for determinism. The comparator is
// a strict total order, so any binary heap pops entries in exactly the
// same sequence — which is what lets the workspace drive std::push_heap /
// std::pop_heap over recycled vectors and still reproduce the historical
// std::priority_queue schedule bit-for-bit.
struct ReadyOp {
  double ready_time;
  int priority;
  graph::OpId op;

  bool operator>(const ReadyOp& other) const {
    if (ready_time != other.ready_time) return ready_time > other.ready_time;
    if (priority != other.priority) return priority < other.priority;
    return op > other.op;
  }
};

struct SimWorkspace {
  // A per-op entry is live only when its stamp equals `epoch`; everything
  // else is logically reset. Prepare() bumps the epoch.
  std::uint32_t epoch = 0;

  // Per-op scheduling state.
  std::vector<std::uint32_t> ready_epoch;
  std::vector<double> ready_time;
  std::vector<std::uint32_t> pending_epoch;
  std::vector<int> pending_inputs;

  // Per-device / per-channel availability.
  std::vector<double> device_free;
  std::vector<double> link_free;

  // Manual binary heaps (std::push_heap/pop_heap) so the backing vectors
  // survive across runs; priority_queue would own — and free — them.
  std::vector<std::vector<ReadyOp>> heaps;

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
  std::vector<std::uint32_t> pick_slot;  // per op
  std::vector<graph::OpId> pick_order;   // ops in pick sequence
  std::vector<std::uint32_t> slot_end;   // per device

  // Sizes storage for (num_ops, num_devices, num_channels) and starts a
  // fresh run epoch. O(devices + channels) when the op count is unchanged.
  void Prepare(int num_ops, int num_devices, int num_channels) {
    const std::size_t ops = static_cast<std::size_t>(num_ops);
    const std::size_t devices = static_cast<std::size_t>(num_devices);
    if (ready_epoch.size() != ops) {
      ready_epoch.assign(ops, 0);
      ready_time.resize(ops);
      pending_epoch.assign(ops, 0);
      pending_inputs.resize(ops);
      picks.resize(ops);
      pick_slot.resize(ops);
      pick_order.resize(ops);
      epoch = 0;
    }
    device_free.assign(devices, 0.0);
    link_free.assign(static_cast<std::size_t>(num_channels), 0.0);
    heaps.resize(devices);
    for (auto& h : heaps) h.clear();
    device_scratch.assign(devices, DeviceScratch{});
    slot_end.assign(devices, 0);
    sends.clear();
    copies.clear();
    if (++epoch == 0) {
      // 2^32 runs wrapped the stamp; restamp everything once and move on.
      std::fill(ready_epoch.begin(), ready_epoch.end(), 0u);
      std::fill(pending_epoch.begin(), pending_epoch.end(), 0u);
      epoch = 1;
    }
  }
};

}  // namespace eagle::sim
