#include "serve/admission.hpp"

#include <iterator>
#include <sstream>

namespace decimate {

const char* to_string(ServeReason reason) {
  switch (reason) {
    case ServeReason::kNone: return "none";
    case ServeReason::kAdmissionInfeasible: return "admission_infeasible";
    case ServeReason::kShedQueueDepth: return "shed_queue_depth";
    case ServeReason::kShedPredictedWait: return "shed_predicted_wait";
    case ServeReason::kWorkerFault: return "worker_fault";
    case ServeReason::kTimeout: return "timeout";
    case ServeReason::kMalformed: return "malformed";
  }
  return "?";
}

ServeError::ServeError(ServeReason reason, uint64_t request_id,
                       const std::string& detail)
    : Error([&] {
        std::ostringstream os;
        os << "request " << request_id << " not served ("
           << to_string(reason) << ")";
        if (!detail.empty()) os << ": " << detail;
        return os.str();
      }()),
      reason_(reason),
      request_id_(request_id) {}

ServeReason admission_decision(uint64_t now_ns, uint64_t deadline_abs_ns,
                               uint64_t predicted_exec_ns,
                               uint64_t backlog_ns) {
  // A full queue is not a rejection: the arrival is admitted and the EDF
  // queue evicts the least valuable entry instead (which may turn out to
  // be the arrival itself).
  const double need = static_cast<double>(backlog_ns + predicted_exec_ns) *
                      kAdmissionHeadroom;
  return static_cast<double>(now_ns) + need >
                 static_cast<double>(deadline_abs_ns)
             ? ServeReason::kAdmissionInfeasible
             : ServeReason::kNone;
}

void EdfQueue::push(QueuedRequest q) {
  backlog_ns_ += q.predicted_exec_ns;
  auto it = q_.begin();
  while (it != q_.end() && it->deadline_abs_ns <= q.deadline_abs_ns) ++it;
  q_.insert(it, std::move(q));
}

const QueuedRequest& EdfQueue::front() const {
  DECIMATE_CHECK(!q_.empty(), "front() on an empty EdfQueue");
  return q_.front();
}

std::vector<QueuedRequest> EdfQueue::pop_model_batch(int model, size_t max) {
  std::vector<QueuedRequest> out;
  for (auto it = q_.begin(); it != q_.end() && out.size() < max;) {
    if (it->req.model != model) {
      ++it;
      continue;
    }
    backlog_ns_ -= it->predicted_exec_ns;
    out.push_back(std::move(*it));
    it = q_.erase(it);
  }
  return out;
}

std::vector<QueuedRequest> EdfQueue::drain() {
  std::vector<QueuedRequest> out;
  out.reserve(q_.size());
  for (QueuedRequest& q : q_) out.push_back(std::move(q));
  q_.clear();
  backlog_ns_ = 0;
  return out;
}

QueuedRequest EdfQueue::shed_one() {
  DECIMATE_CHECK(!q_.empty(), "shed_one() on an empty EdfQueue");
  auto victim = q_.begin();
  for (auto it = std::next(q_.begin()); it != q_.end(); ++it) {
    if (it->req.value < victim->req.value ||
        (it->req.value == victim->req.value &&
         (it->deadline_abs_ns > victim->deadline_abs_ns ||
          (it->deadline_abs_ns == victim->deadline_abs_ns &&
           it->arrival_ns > victim->arrival_ns)))) {
      victim = it;
    }
  }
  QueuedRequest out = std::move(*victim);
  q_.erase(victim);
  backlog_ns_ -= out.predicted_exec_ns;
  return out;
}

}  // namespace decimate
