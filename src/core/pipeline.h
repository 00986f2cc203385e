// fenrir::core — the end-to-end analysis pipeline (paper Table 1).
//
// One call runs the full Fenrir method over a cleaned dataset:
// all-pairs comparison (Φ), HAC clustering with the adaptive threshold,
// mode extraction with intra/inter ranges and recurrence, and
// consecutive-pair change detection. print_report() renders the findings
// the way the paper narrates them.
#pragma once

#include <iosfwd>

#include "core/cluster.h"
#include "core/compare.h"
#include "core/distance_matrix.h"
#include "core/events.h"
#include "core/modes.h"
#include "core/vector.h"

namespace fenrir::core {

struct AnalysisConfig {
  UnknownPolicy policy = UnknownPolicy::kPessimistic;
  Linkage linkage = Linkage::kSingle;
  AdaptiveConfig adaptive;
  /// Minimum members for a cluster to be reported as a mode.
  std::size_t min_mode_size = 2;
  DetectorConfig detector;
};

struct AnalysisResult {
  SimilarityMatrix matrix;
  Clustering clustering;
  ModeSet modes;
  std::vector<DetectedEvent> events;
};

/// Runs comparison, clustering, mode extraction, and change detection.
/// The dataset must already be cleaned (see core/cleaning.h) and
/// consistent (Dataset::check_consistent is called).
AnalysisResult analyze(const Dataset& dataset, const AnalysisConfig& config = {});

/// Same pipeline over a precomputed Φ matrix (e.g. one loaded from an
/// `analyze --matrix-cache` segment store, io/segment_store.h, and
/// appended up to date). @p matrix must cover the dataset: one row per
/// observation, built under config.policy — std::invalid_argument
/// otherwise. Because every matrix path is bit-identical, the result
/// equals analyze()'s.
AnalysisResult analyze(const Dataset& dataset, const AnalysisConfig& config,
                       SimilarityMatrix matrix);

/// Human-readable report: dataset summary, per-mode table (span, size,
/// intra-Φ), adjacent/inter-mode Φ ranges, recurrences, detected events.
void print_report(const Dataset& dataset, const AnalysisResult& result,
                  std::ostream& out);

}  // namespace fenrir::core
