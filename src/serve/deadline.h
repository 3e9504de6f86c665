#ifndef TEXRHEO_SERVE_DEADLINE_H_
#define TEXRHEO_SERVE_DEADLINE_H_

#include <chrono>

namespace texrheo::serve {

/// Absolute per-request time budget, threaded from the protocol front-end
/// into the engine. kNoDeadline means unlimited (the in-process API
/// default), so existing callers are unaffected.
using Deadline = std::chrono::steady_clock::time_point;
inline constexpr Deadline kNoDeadline = Deadline::max();

/// Deadline `budget_millis` from now; <= 0 means unlimited.
inline Deadline DeadlineAfterMillis(int budget_millis) {
  if (budget_millis <= 0) return kNoDeadline;
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(budget_millis);
}

inline bool DeadlineExpired(Deadline deadline) {
  return deadline != kNoDeadline &&
         std::chrono::steady_clock::now() >= deadline;
}

}  // namespace texrheo::serve

#endif  // TEXRHEO_SERVE_DEADLINE_H_
