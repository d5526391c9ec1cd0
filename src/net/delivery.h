// Delivery: the fallible half of the simulated network (DESIGN.md section
// 13). Classifies each message leg against the seeded fault model -- drop,
// duplicate, bounded reorder, delay -- and optionally against the
// FaultInjector's net.<side>.<endpoint>.<op> fail points, so tests can arm
// one-shot deterministic wire faults with the same machinery PR 1 built for
// the disk.
//
// With every knob off, Classify() returns an all-clear verdict without
// drawing from the RNG or touching the injector, so the fault-free message
// schedule (and every downstream fingerprint) is untouched.

#ifndef FINELOG_NET_DELIVERY_H_
#define FINELOG_NET_DELIVERY_H_

#include <cstdint>
#include <string>

#include "common/config.h"
#include "common/rng.h"
#include "common/types.h"
#include "util/metrics.h"

namespace finelog {

class FaultInjector;

// What the fault model decided for one message leg.
struct NetVerdict {
  bool drop = false;
  bool dup = false;
  bool reorder = false;
  uint64_t delay_us = 0;
};

class Delivery {
 public:
  Delivery(const NetFaultConfig& config, FaultInjector* injector,
           Metrics* metrics)
      : config_(config), injector_(injector), metrics_(metrics),
        rng_(config.seed) {}

  Delivery(const Delivery&) = delete;
  Delivery& operator=(const Delivery&) = delete;

  // Classifies one message leg. `prefix` is the fail-point stem
  // ("net.client.lock_object" for a client->server request leg,
  // "net.server.lock_object" for its reply leg); `peer` is the client side
  // of the exchange, checked against the partition list before anything
  // else -- a partitioned peer's legs are dropped on both planes, with no
  // RNG draw, so the rate stream stays aligned with an unpartitioned run.
  // Other `recovery_plane` legs are exempt from injected faults, so crash
  // recovery itself stays reliable. Each enabled rate draws exactly once
  // per leg, so the RNG stream is a deterministic function of the message
  // sequence.
  NetVerdict Classify(const std::string& prefix, uint64_t bytes,
                      ClientId peer, bool recovery_plane);

  NetFaultConfig& config() { return config_; }
  const NetFaultConfig& config() const { return config_; }
  Rng& rng() { return rng_; }

 private:
  NetFaultConfig config_;
  FaultInjector* injector_;
  Metrics* metrics_;
  Rng rng_;
};

}  // namespace finelog

#endif  // FINELOG_NET_DELIVERY_H_
