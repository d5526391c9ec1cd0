#include "net/delivery.h"

#include "util/fault.h"

namespace finelog {

NetVerdict Delivery::Classify(const std::string& prefix, uint64_t bytes,
                              ClientId peer, bool recovery_plane) {
  NetVerdict v;
  if (!config_.enabled()) return v;

  // Partition first, before the recovery-plane exemption: an unreachable
  // node is unreachable for recovery traffic too. Absolute (no RNG draw),
  // so healing the partition restores the exact rate-draw stream an
  // unpartitioned run would have seen.
  if (config_.partitioned(peer.value())) {
    v.drop = true;
    if (metrics_ != nullptr) {
      metrics_->Add(Counter::kNetPartitionDrops);
      metrics_->Add(Counter::kNetDrops);
    }
    return v;
  }

  if (recovery_plane) return v;

  // Armed fail points first: a test that armed one-shot wire faults gets a
  // fully deterministic firing independent of the rate draws. Torn/short
  // arms degrade to a clean error (= drop) via allow_torn = false: a
  // simulated message either arrives whole or not at all.
  if (config_.use_fail_points && injector_ != nullptr) {
    if (injector_->Evaluate(prefix + ".drop", bytes, false).action !=
        FaultAction::kNone) {
      v.drop = true;
    }
    if (injector_->Evaluate(prefix + ".dup", bytes, false).action !=
        FaultAction::kNone) {
      v.dup = true;
    }
    if (injector_->Evaluate(prefix + ".reorder", bytes, false).action !=
        FaultAction::kNone) {
      v.reorder = true;
    }
    if (injector_->Evaluate(prefix + ".delay", bytes, false).action !=
        FaultAction::kNone) {
      v.delay_us = config_.delay_us;
    }
  }

  // Rate draws: each enabled rate draws exactly once per leg, whether or not
  // an earlier fault already fired, so the RNG stream stays aligned across
  // runs that differ only in which faults happen to fire.
  if (config_.drop_rate > 0.0 && rng_.Bernoulli(config_.drop_rate)) {
    v.drop = true;
  }
  if (config_.dup_rate > 0.0 && rng_.Bernoulli(config_.dup_rate)) {
    v.dup = true;
  }
  if (config_.reorder_rate > 0.0 && rng_.Bernoulli(config_.reorder_rate)) {
    v.reorder = true;
  }
  if (config_.delay_rate > 0.0 && rng_.Bernoulli(config_.delay_rate)) {
    v.delay_us = config_.delay_us;
  }

  // A dropped message cannot also be duplicated or reordered.
  if (v.drop) {
    v.dup = false;
    v.reorder = false;
  }

  if (metrics_ != nullptr) {
    if (v.drop) metrics_->Add(Counter::kNetDrops);
    if (v.dup) metrics_->Add(Counter::kNetDups);
    if (v.reorder) metrics_->Add(Counter::kNetReorders);
    if (v.delay_us > 0) metrics_->Add(Counter::kNetDelays);
  }
  return v;
}

}  // namespace finelog
