// Regenerates Figure 2: enterprise catchments at hop 3, 2024-08 ..
// 2025-04 (USC/traceroute).
//
// Paper shape to reproduce:
//   (a) the stack: before 2025-01-16 nearly all destinations are served
//       via the academic upstreams; afterwards LosNettos/NTT/HE carry
//       them and the academic networks vanish from hop 3;
//   (b) the heatmap: two strong modes separated at 2025-01-16, with
//       cross-mode phi in the paper's [0.11, 0.48] band — "at most 90%
//       of catchments have changed".
#include <iostream>

#include "core/heatmap.h"
#include "core/pipeline.h"
#include "core/stackplot.h"
#include "io/table.h"
#include "scenarios/usc.h"

using namespace fenrir;

int main() {
  std::cout << "=== Figure 2: enterprise hop-3 catchments ===\n";
  const scenarios::UscScenario scenario = scenarios::make_usc({});
  const core::Dataset& d = scenario.dataset;

  // (a) stack fractions, monthly samples.
  const auto stack = core::StackSeries::compute(d);
  io::TextTable table;
  table.header({"date", "ARN-A", "ANN", "LosNettos", "NTT", "HE", "other"});
  for (std::size_t t = 0; t < stack.times(); ++t) {
    const auto date = core::civil_from_days(stack.time(t) / core::kDay);
    if (date.day > 2) continue;  // roughly monthly
    double named = 0.0;
    std::vector<std::string> row{core::format_date(stack.time(t))};
    for (const char* name : {"ARN-A", "ANN", "LosNettos", "NTT", "HE"}) {
      const auto site = d.sites.find(name);
      const double f = site ? stack.fraction(t, *site) : 0.0;
      named += f;
      row.push_back(io::fixed(100 * f, 1) + "%");
    }
    row.push_back(io::fixed(100 * (1.0 - named), 1) + "%");
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  // (b) the analysis: modes and the change.
  const core::AnalysisResult result = core::analyze(d);
  std::cout << "\nmodes: " << result.modes.size() << " (paper: 2)\n";
  if (result.modes.size() >= 2) {
    // The split: the first observation of the second mode.
    std::cout << "split: " << core::format_date(result.modes.mode(1).start)
              << " (paper: 2025-01-16)\n";
    const auto inter = result.modes.inter(result.matrix, 0, 1);
    std::cout << "phi(Mi, Mii) = [" << io::fixed(inter.min, 2) << ", "
              << io::fixed(inter.max, 2) << "]  (paper: [0.11, 0.48])\n";
  }
  std::cout << "\nall-pairs heatmap (dark = similar):\n"
            << core::heatmap_ascii(result.matrix, 61);
  return 0;
}
