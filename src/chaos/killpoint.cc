#include "chaos/killpoint.h"

#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <string>

namespace fenrir::chaos {

std::optional<std::size_t> kill_save_threshold() {
  const char* env = std::getenv("FENRIR_CHAOS_KILL_SAVE");
  if (env == nullptr || *env == '\0') return std::nullopt;
  try {
    return static_cast<std::size_t>(std::stoull(env));
  } catch (const std::exception&) {
    return std::nullopt;  // an unparsable schedule arms nothing
  }
}

void maybe_kill_during_save(std::size_t bytes_written) {
  const auto threshold = kill_save_threshold();
  if (threshold && bytes_written >= *threshold) {
    _exit(137);
  }
}

void maybe_kill_at(std::string_view label) {
  const char* env = std::getenv("FENRIR_CHAOS_KILL_POINT");
  if (env == nullptr || *env == '\0') return;
  std::string_view armed(env);
  std::size_t nth = 1;
  if (const std::size_t at = armed.rfind('@'); at != std::string_view::npos) {
    const std::string_view count = armed.substr(at + 1);
    const auto [ptr, ec] =
        std::from_chars(count.data(), count.data() + count.size(), nth);
    if (ec != std::errc{} || ptr != count.data() + count.size() || nth == 0) {
      return;
    }
    armed = armed.substr(0, at);
  }
  if (label != armed) return;
  // Calls with the armed label, counted only while one is armed.
  static std::atomic<std::size_t> calls{0};
  if (calls.fetch_add(1) + 1 >= nth) _exit(137);
}

}  // namespace fenrir::chaos
