#include "core/pipeline.h"

#include <ostream>
#include <sstream>

#include "io/table.h"
#include "obs/events.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/metrics_window.h"
#include "obs/span.h"
#include "obs/status_board.h"

namespace fenrir::core {

namespace {

void log_analyze_start(const Dataset& dataset) {
  static obs::Counter& runs = obs::registry().counter(
      "fenrir_analyze_runs_total", "analyze() pipeline invocations");
  static obs::Gauge& observations = obs::registry().gauge(
      "fenrir_analyze_observations", "observations in the last analyze()");
  runs.inc();
  observations.set(static_cast<double>(dataset.series.size()));
  obs::event_bus().emit(
      obs::Severity::kInfo, "analyze_started",
      "\"dataset\":\"" + obs::json_escape(dataset.name) +
          "\",\"observations\":" + std::to_string(dataset.series.size()));
  FENRIR_LOG(Info).field("dataset", dataset.name)
          .field("observations", dataset.series.size())
          .field("networks", dataset.networks.size())
      << "analyze: start";
}

/// Everything after the Φ matrix: clustering, modes, events, telemetry.
AnalysisResult analyze_from_matrix(const Dataset& dataset,
                                   const AnalysisConfig& config,
                                   SimilarityMatrix matrix) {
  Clustering clustering = [&] {
    obs::Span stage("hac_clustering");
    return cluster_adaptive(matrix, config.linkage, config.adaptive);
  }();
  ModeSet modes = [&] {
    obs::Span stage("mode_extraction");
    return ModeSet::build(dataset, clustering, config.min_mode_size);
  }();
  std::vector<DetectedEvent> events = [&] {
    obs::Span stage("event_detection");
    return detect_changes(dataset, config.detector, config.policy);
  }();

  static obs::Gauge& clusters = obs::registry().gauge(
      "fenrir_analyze_clusters", "clusters found by the last analyze()");
  static obs::Gauge& mode_count = obs::registry().gauge(
      "fenrir_analyze_modes", "modes reported by the last analyze()");
  static obs::Counter& event_count = obs::registry().counter(
      "fenrir_analyze_events_total", "change events detected by analyze()");
  clusters.set(static_cast<double>(clustering.cluster_count));
  mode_count.set(static_cast<double>(modes.size()));
  event_count.inc(events.size());
  {
    std::ostringstream os;
    os << "{\"dataset\":\"" << obs::json_escape(dataset.name)
       << "\",\"observations\":" << dataset.series.size()
       << ",\"networks\":" << dataset.networks.size()
       << ",\"clusters\":" << clustering.cluster_count
       << ",\"modes\":" << modes.size() << ",\"events\":" << events.size()
       << ",\"threshold\":" << obs::render_double(clustering.threshold) << "}";
    obs::status_board().publish("analyze", os.str());
  }
  obs::event_bus().emit(
      obs::Severity::kInfo, "analyze_finished",
      "\"dataset\":\"" + obs::json_escape(dataset.name) +
          "\",\"clusters\":" + std::to_string(clustering.cluster_count) +
          ",\"modes\":" + std::to_string(modes.size()) +
          ",\"events\":" + std::to_string(events.size()));
  obs::metrics_history().sample(true);
  FENRIR_LOG(Info).field("threshold", clustering.threshold)
          .field("clusters", clustering.cluster_count)
          .field("modes", modes.size())
          .field("events", events.size())
      << "analyze: done";
  return AnalysisResult{std::move(matrix), std::move(clustering),
                        std::move(modes), std::move(events)};
}

}  // namespace

AnalysisResult analyze(const Dataset& dataset, const AnalysisConfig& config) {
  obs::Span span("analyze");
  log_analyze_start(dataset);
  dataset.check_consistent();
  // compute() opens the phi_matrix stage span itself (every Φ fill runs
  // under exactly one), so the stage is not wrapped again here.
  SimilarityMatrix matrix = SimilarityMatrix::compute(dataset, config.policy);
  return analyze_from_matrix(dataset, config, std::move(matrix));
}

AnalysisResult analyze(const Dataset& dataset, const AnalysisConfig& config,
                       SimilarityMatrix matrix) {
  obs::Span span("analyze");
  log_analyze_start(dataset);
  if (matrix.size() != dataset.series.size()) {
    throw std::invalid_argument(
        "analyze: matrix covers " + std::to_string(matrix.size()) +
        " observations, dataset has " +
        std::to_string(dataset.series.size()));
  }
  if (matrix.policy() != config.policy) {
    throw std::invalid_argument(
        "analyze: matrix was built under a different unknown policy");
  }
  dataset.check_consistent();
  return analyze_from_matrix(dataset, config, std::move(matrix));
}

namespace {

std::string range_str(const SimilarityMatrix::Range& r) {
  if (!r.any) return "n/a";
  return "[" + io::fixed(r.min, 2) + ", " + io::fixed(r.max, 2) + "]";
}

}  // namespace

void print_report(const Dataset& dataset, const AnalysisResult& result,
                  std::ostream& out) {
  out << "=== Fenrir analysis: " << dataset.name << " ===\n";
  out << dataset.series.size() << " observations, "
      << dataset.networks.size() << " networks, "
      << dataset.sites.real_site_count() << " sites; clustering threshold "
      << io::fixed(result.clustering.threshold, 2) << " ("
      << result.clustering.cluster_count << " clusters)\n\n";

  const ModeSet& modes = result.modes;
  if (modes.size() == 0) {
    out << "no routing modes of the required size\n";
  } else {
    io::TextTable table;
    table.header({"mode", "from", "to", "obs", "intra-phi", "recurs-like",
                  "median-phi"});
    for (std::size_t i = 0; i < modes.size(); ++i) {
      const Mode& m = modes.mode(i);
      std::string recurs = "-";
      std::string rec_phi = "-";
      if (const auto r = modes.recurrence(result.matrix, i)) {
        recurs = "(" + modes.mode(r->earlier_mode).label + ")";
        rec_phi = io::fixed(r->median_phi, 2);
      }
      table.row("(" + m.label + ")", format_date(m.start), format_date(m.end),
                m.members.size(), range_str(modes.intra(result.matrix, i)),
                recurs, rec_phi);
    }
    table.print(out);

    if (modes.size() > 1) {
      out << "\nadjacent mode similarity:\n";
      for (std::size_t i = 0; i + 1 < modes.size(); ++i) {
        out << "  phi(M" << modes.mode(i).label << ", M"
            << modes.mode(i + 1).label << ") = "
            << range_str(modes.inter(result.matrix, i, i + 1)) << "\n";
      }

      // The mode graph: oscillation between regimes (a drain mode that
      // keeps re-appearing shows up as a cycle here).
      const auto transitions =
          modes.transition_counts(dataset.series.size());
      bool any = false;
      for (std::size_t a = 0; a < modes.size(); ++a) {
        for (std::size_t b = 0; b < modes.size(); ++b) {
          if (transitions[a][b] == 0) continue;
          if (!any) {
            out << "\nmode transitions:\n";
            any = true;
          }
          out << "  (" << modes.mode(a).label << ") -> ("
              << modes.mode(b).label << ")";
          if (transitions[a][b] > 1) out << " x" << transitions[a][b];
          out << "\n";
        }
      }
    }
  }

  out << "\ndetected changes: " << result.events.size() << "\n";
  for (const DetectedEvent& e : result.events) {
    out << "  " << format_time(e.time) << "  phi=" << io::fixed(e.phi, 3)
        << "  baseline=" << io::fixed(e.baseline, 3)
        << "  drop=" << io::fixed(e.drop, 3) << "\n";
  }
}

}  // namespace fenrir::core
