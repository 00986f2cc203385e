// fenrir::chaos — scheduled process kills inside file saves.
//
// The segment store's atomic manifest writer (io/segment_store.h)
// promises that a crash mid-save never tears the file being replaced:
// the bytes go to a temp file and the old manifest survives until the
// final rename. fault_plan.h can kill a sweep; this header lets a test
// kill the *save itself* at a chosen byte offset, which is the only way
// to exercise that promise for real — the process dies with the temp
// file half-written and the assertion is that the previous manifest
// still loads.
//
// The schedule comes from the environment so death tests (and the
// fenrirctl segment smoke ctest) can arm it in a child process:
//
//   FENRIR_CHAOS_KILL_SAVE=<N>   _exit(137) once a save has written >= N
//                                bytes (0 kills before the first byte)
//
// The store's lifecycle has more phases than "bytes written": the kill
// that matters may be between the tail fsync and the manifest update,
// or between a seal's rename and the manifest swap. Those sites carry
// *labels*:
//
//   FENRIR_CHAOS_KILL_POINT=<label>   _exit(137) at the first
//                                     maybe_kill_at(label) call
//   FENRIR_CHAOS_KILL_POINT=<label>@N _exit(137) at the Nth call
//
// A label passed once per loop iteration (fenrirctl watch's per-sweep
// "watch_sweep") then kills after a chosen iteration: between two
// periodic flushes, say, where no lifecycle label lies.
//
// Both variables are re-read on every call (never cached) — gtest death
// tests set them between forks and expect the child to see them.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace fenrir::chaos {

/// The armed kill threshold in bytes, or nullopt when the environment
/// does not schedule one. Re-reads FENRIR_CHAOS_KILL_SAVE every call.
std::optional<std::size_t> kill_save_threshold();

/// Called by atomic file writers after each chunk with the cumulative
/// byte count; _exit(137)s when a scheduled threshold has been reached.
/// The exit is immediate (no atexit, no flush) — a real SIGKILL, minus
/// the signal.
void maybe_kill_during_save(std::size_t bytes_written);

/// _exit(137)s iff FENRIR_CHAOS_KILL_POINT names exactly @p label, at
/// its Nth call with that label under the "<label>@N" form. Lifecycle
/// code drops one of these at every durability boundary (tail append,
/// seal rename, manifest swap) so a death test can kill the process
/// between any two of them. An unparsable count arms nothing.
void maybe_kill_at(std::string_view label);

}  // namespace fenrir::chaos
