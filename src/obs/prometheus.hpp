// Prometheus text exposition (format version 0.0.4) for a metrics Registry,
// plus a small parser for the same format.
//
// render_prometheus() walks the registry in family order and emits the
// standard `# HELP` / `# TYPE` headers, counter/gauge sample lines, and
// cumulative `_bucket{le=...}` / `_sum` / `_count` triples for histograms.
// Derived scrape-time values (rolling qps, window percentiles) are appended
// by the caller through PromWriter, which handles escaping and keeps the
// family headers consistent.
//
// parse_prometheus_text() reads sample lines back into (name, labels,
// value) records. It exists for am_top — which is a Prometheus *consumer*
// rendering a terminal dashboard — and for the golden-output tests, which
// round-trip the exposition to prove it stays machine-readable.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace am::obs::metrics {

/// Incremental exposition writer. Families must be emitted contiguously;
/// help/type headers are written once per family.
class PromWriter {
 public:
  explicit PromWriter(std::string& out) : out_(out) {}

  /// Starts (or continues) a family; writes HELP/TYPE on first sight.
  void family(std::string_view name, std::string_view help, Type type);
  /// One sample line: name (+ optional suffix like "_bucket"), labels, value.
  void sample(std::string_view name, const Labels& labels, double value,
              std::string_view suffix = "");
  void sample(std::string_view name, const Labels& labels,
              std::uint64_t value, std::string_view suffix = "");
  /// A whole one-sample family (headers plus one unlabeled sample): how a
  /// component renders a tally it keeps outside any Registry.
  template <typename V>
  void single(std::string_view name, std::string_view help, Type type,
              V value) {
    family(name, help, type);
    sample(name, {}, value);
  }

  static std::string escape_label(std::string_view v);

 private:
  std::string& out_;
  std::string current_family_;
};

/// Renders every instrument of @p registry in exposition order.
std::string render_prometheus(const Registry& registry);
/// Same, appending into @p w (for callers mixing in derived families).
void render_prometheus(const Registry& registry, PromWriter& w);

/// One parsed sample line.
struct PromSample {
  std::string name;                          ///< includes _bucket/_sum/_count
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

/// Parses exposition text; comment/blank lines are skipped, malformed
/// sample lines are dropped (a scraper must survive partial garbage).
std::vector<PromSample> parse_prometheus_text(std::string_view text);

/// First sample matching @p name with every label pair of @p labels present
/// (extra labels on the sample are allowed). nullopt when absent.
std::optional<double> find_sample(
    const std::vector<PromSample>& samples, std::string_view name,
    const std::map<std::string, std::string>& labels = {});

}  // namespace am::obs::metrics
