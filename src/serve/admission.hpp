#pragma once
// Admission control and load-shedding for the wall-clock serving mode.
//
// The wall-clock server holds arrivals in an EDF (earliest-deadline-
// first) queue bounded by AdmissionPolicy::max_queue_depth. Three
// mechanisms, always on, keep overload from turning into unbounded
// latency:
//
//  - Admission control rejects a request at submit() when the predicted
//    completion (backlog + its own service time, scaled by
//    kAdmissionHeadroom) already misses its deadline — better a fast
//    typed rejection the client can retry elsewhere than a slow
//    guaranteed miss.
//  - Depth shedding evicts the lowest-value / latest-deadline entry once
//    the queue exceeds the policy depth (the arriving request competes
//    with the queued ones, so a high-value arrival displaces a low-value
//    waiter, never the reverse).
//  - Serve-or-shed drops a request at dispatch time when even starting it
//    immediately cannot meet its deadline any more.
//
// Every rejected/shed request is reported with a typed ServeReason, never
// silently dropped. The decision function is pure and exposed separately
// (admission_decision) so tests can probe the boundary without a server.

#include <cstdint>
#include <list>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "nn/tensor.hpp"

namespace decimate {

/// Why a request did not complete normally (ServeError::reason()).
enum class ServeReason : uint8_t {
  kNone = 0,
  kAdmissionInfeasible,  // predicted completion already misses the deadline
  kShedQueueDepth,       // shed: queue depth exceeded policy
  kShedPredictedWait,    // shed: queue wait left no budget to execute
  kWorkerFault,          // execution kept failing after retries
  kTimeout,              // watchdog expired and per-image redispatch failed
  kMalformed,            // refused at submit: unknown (unwarmed) model or
                         // an input that is not the model's input shape
};

const char* to_string(ServeReason reason);

/// The typed error a rejected/shed/failed request reports.
class ServeError : public Error {
 public:
  ServeError(ServeReason reason, uint64_t request_id,
             const std::string& detail);
  ServeReason reason() const { return reason_; }
  uint64_t request_id() const { return request_id_; }

 private:
  ServeReason reason_;
  uint64_t request_id_;
};

struct AdmissionPolicy {
  /// Queue depth beyond which the EDF queue sheds its least valuable
  /// entry (a full queue still admits; the arrival competes to stay).
  size_t max_queue_depth = 64;
};

/// Safety factor on predicted service times in feasibility checks: the
/// calibrated cycle model is optimistic about wall-clock jitter, and
/// rejecting slightly early beats missing a deadline slightly late.
inline constexpr double kAdmissionHeadroom = 1.25;

/// A wall-clock inference request. `deadline_ns` is relative to arrival
/// (0 = the server's configured default); `value` orders shed victims —
/// lower value sheds first.
struct WallRequest {
  uint64_t id = 0;
  int model = 0;
  int value = 1;
  uint64_t deadline_ns = 0;
  Tensor8 input;
};

/// A queued request with its absolute (server-epoch ns) deadline and the
/// predicted single-image service time stamped at admission.
struct QueuedRequest {
  WallRequest req;
  uint64_t arrival_ns = 0;
  uint64_t deadline_abs_ns = 0;
  uint64_t predicted_exec_ns = 0;
};

/// Pure admission decision for one arriving request; kNone = admit.
/// `backlog_ns` is the predicted service time of everything already
/// admitted but not completed (queued + in flight).
ServeReason admission_decision(uint64_t now_ns, uint64_t deadline_abs_ns,
                               uint64_t predicted_exec_ns,
                               uint64_t backlog_ns);

/// Earliest-deadline-first queue with value-aware shedding. Not
/// thread-safe: the wall-clock server guards it with its own mutex.
class EdfQueue {
 public:
  /// Ordered insert by absolute deadline (stable for ties: an equal
  /// deadline queues behind earlier arrivals).
  void push(QueuedRequest q);

  bool empty() const { return q_.empty(); }
  size_t size() const { return q_.size(); }

  /// The earliest-deadline entry.
  const QueuedRequest& front() const;

  /// Pop up to `max` entries of `model` in deadline order — the batch the
  /// wall-clock server forms (same-model only; other models keep their
  /// queue positions).
  std::vector<QueuedRequest> pop_model_batch(int model, size_t max);

  /// Remove and return the shed victim: lowest value, then latest
  /// deadline, then latest arrival.
  QueuedRequest shed_one();

  /// Remove and return everything, in deadline order (the brown-out
  /// serve-or-shed pass re-pushes the survivors).
  std::vector<QueuedRequest> drain();

  /// Sum of predicted_exec_ns over everything queued (the queue's share
  /// of the admission backlog estimate). Maintained incrementally.
  uint64_t backlog_ns() const { return backlog_ns_; }

 private:
  std::list<QueuedRequest> q_;  // sorted by deadline_abs_ns ascending
  uint64_t backlog_ns_ = 0;
};

}  // namespace decimate
