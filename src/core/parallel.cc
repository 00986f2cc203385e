#include "core/parallel.h"

#include <string>

#include "obs/trace_export.h"

namespace fenrir::core::detail {

bool& in_parallel_region() noexcept {
  thread_local bool flag = false;
  return flag;
}

void enter_helper(unsigned index) noexcept {
  in_parallel_region() = true;  // nested parallel_for in fn runs inline
  if (!obs::tracing_enabled()) return;
  try {
    obs::set_trace_thread_name("fenrir-worker-" + std::to_string(index));
  } catch (...) {
    // An unnamed timeline row beats a terminated helper.
  }
}

}  // namespace fenrir::core::detail
