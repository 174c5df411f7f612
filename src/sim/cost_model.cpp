#include "sim/cost_model.h"

namespace eagle::sim {

double CostModel::TransferSeconds(DeviceId src, DeviceId dst,
                                  std::int64_t bytes) const {
  if (src == dst) return 0.0;
  const LinkSpec& link = cluster_->link(src, dst);
  return link.latency_us * 1e-6 +
         static_cast<double>(bytes) / (link.bandwidth_gbps * 1e9);
}

}  // namespace eagle::sim
