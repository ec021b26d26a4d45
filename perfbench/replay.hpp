// Layer replay: time each layer's public calls at the workload's own
// parameters (cluster size, thresholds, crypto provider, payload and
// message sizes), with warm caches. Per-op costs are later multiplied by the
// run's own per-block counts to model each layer's CPU share.
#pragma once

#include <cstdint>
#include <map>

#include "crypto/provider.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LayerCosts {
  // types: per wire message, weighted by the run's observed message mix
  double parse_us = 0, serialize_us = 0, artifact_id_us = 0;
  double pool_add_us = 0, pool_query_us = 0;
  // crypto
  double sign_share_us = 0, verify_share_us = 0, beacon_share_us = 0, combine_us = 0;
  double sha256_mb_per_s = 0;
  double keygen_s = 0;
  // codec: one dispersal of the workload's serialized proposal
  double rs_encode_us = 0, rs_decode_us = 0, merkle_build_us = 0, merkle_verify_us = 0;
};

/// `payload` is a block payload of the workload (a committed one where the
/// run kept them); `wire_sizes` the delay model's size histogram, used to
/// weight message types (empty = equal weights).
LayerCosts replay_layers(const WorkloadSpec& spec, uint64_t seed,
                         icc::crypto::CryptoProvider& crypto, const icc::Bytes& payload,
                         const std::map<size_t, uint64_t>& wire_sizes, SpanLog* spans);

}  // namespace perfbench
