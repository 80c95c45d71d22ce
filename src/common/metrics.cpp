#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

namespace nagano::metrics {
namespace {

// Stable per-thread shard assignment: round-robin at first use, so N
// writer threads spread across the counter cells instead of hashing onto
// the same line.
std::atomic<size_t> g_next_thread_shard{0};

void AppendEscaped(std::string* out, std::string_view value) {
  for (char c : value) {
    switch (c) {
      case '\\': *out += "\\\\"; break;
      case '"': *out += "\\\""; break;
      case '\n': *out += "\\n"; break;
      default: *out += c;
    }
  }
}

// {k="v",k2="v2"} with `extra` appended last; empty label sets render as
// nothing.
std::string RenderLabels(const Labels& labels,
                         const std::pair<std::string, std::string>* extra) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  auto append = [&](const std::string& k, const std::string& v) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    AppendEscaped(&out, v);
    out += "\"";
  };
  for (const auto& [k, v] : labels) append(k, v);
  if (extra != nullptr) append(extra->first, extra->second);
  out += "}";
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  // Shortest %g that round-trips, so 0.99 renders as "0.99" rather than
  // the 17-digit binary expansion.
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

constexpr double kSummaryQuantiles[] = {0.5, 0.9, 0.95, 0.99};

}  // namespace

size_t Counter::ShardIndex() {
  thread_local const size_t index =
      g_next_thread_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  return index;
}

MetricRegistry& MetricRegistry::Default() {
  static MetricRegistry* registry = new MetricRegistry();  // leaked by design
  return *registry;
}

MetricRegistry::Entry* MetricRegistry::FindOrCreateLocked(
    std::string_view name, Labels labels, std::string_view help,
    MetricType type) {
  std::sort(labels.begin(), labels.end());
  // Identity key: name + type + sorted labels. Registration happens at
  // subsystem construction, but test binaries construct thousands of
  // subsystems, so lookups are indexed rather than scanned.
  std::string key(name);
  key += '\x01';
  key += static_cast<char>('0' + static_cast<int>(type));
  for (const auto& [k, v] : labels) {
    key += '\x01';
    key += k;
    key += '\x02';
    key += v;
  }
  if (auto it = index_.find(key); it != index_.end()) return it->second;

  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->labels = std::move(labels);
  entry->type = type;
  entry->help = std::string(help);
  switch (type) {
    case MetricType::kCounter: entry->counter = std::make_unique<Counter>(); break;
    case MetricType::kGauge: entry->gauge = std::make_unique<Gauge>(); break;
    case MetricType::kHistogram:
      entry->histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(entry));
  index_.emplace(std::move(key), entries_.back().get());
  return entries_.back().get();
}

Counter* MetricRegistry::GetCounter(std::string_view name, Labels labels,
                                    std::string_view help) {
  std::lock_guard<std::mutex> lock(mutex_);
  return FindOrCreateLocked(name, std::move(labels), help,
                            MetricType::kCounter)
      ->counter.get();
}

Gauge* MetricRegistry::GetGauge(std::string_view name, Labels labels,
                                std::string_view help) {
  std::lock_guard<std::mutex> lock(mutex_);
  return FindOrCreateLocked(name, std::move(labels), help, MetricType::kGauge)
      ->gauge.get();
}

Histogram* MetricRegistry::GetHistogram(std::string_view name, Labels labels,
                                        std::string_view help) {
  std::lock_guard<std::mutex> lock(mutex_);
  return FindOrCreateLocked(name, std::move(labels), help,
                            MetricType::kHistogram)
      ->histogram.get();
}

std::string MetricRegistry::AutoInstance(std::string_view prefix) {
  const uint64_t n = next_instance_.fetch_add(1, std::memory_order_relaxed) + 1;
  return std::string(prefix) + std::to_string(n);
}

std::vector<Sample> MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Sample> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) {
    Sample s;
    s.name = entry->name;
    s.labels = entry->labels;
    s.type = entry->type;
    s.help = entry->help;
    switch (entry->type) {
      case MetricType::kCounter:
        s.value = static_cast<double>(entry->counter->value());
        break;
      case MetricType::kGauge:
        s.value = entry->gauge->value();
        break;
      case MetricType::kHistogram:
        s.histogram = entry->histogram->snapshot();
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string MetricRegistry::RenderPrometheus() const {
  const std::vector<Sample> samples = Snapshot();

  // Group by name so # HELP / # TYPE appear once per family, with the
  // family's series kept together (required by the exposition format).
  std::map<std::string, std::vector<const Sample*>> families;
  std::vector<const std::string*> order;  // first-seen name order
  for (const Sample& s : samples) {
    auto [it, inserted] = families.try_emplace(s.name);
    if (inserted) order.push_back(&it->first);
    it->second.push_back(&s);
  }

  std::string out;
  for (const std::string* name : order) {
    const auto& family = families[*name];
    const Sample& head = *family.front();
    if (!head.help.empty()) {
      out += "# HELP " + *name + " ";
      AppendEscaped(&out, head.help);
      out += "\n";
    }
    out += "# TYPE " + *name + " ";
    switch (head.type) {
      case MetricType::kCounter: out += "counter\n"; break;
      case MetricType::kGauge: out += "gauge\n"; break;
      case MetricType::kHistogram: out += "summary\n"; break;
    }
    for (const Sample* s : family) {
      if (s->type != MetricType::kHistogram) {
        out += *name + RenderLabels(s->labels, nullptr) + " " +
               FormatDouble(s->value) + "\n";
        continue;
      }
      for (double q : kSummaryQuantiles) {
        const std::pair<std::string, std::string> quantile{"quantile",
                                                           FormatDouble(q)};
        out += *name + RenderLabels(s->labels, &quantile) + " " +
               FormatDouble(s->histogram.Percentile(q)) + "\n";
      }
      const std::string labels = RenderLabels(s->labels, nullptr);
      out += *name + "_sum" + labels + " " +
             FormatDouble(s->histogram.mean() *
                          static_cast<double>(s->histogram.count())) +
             "\n";
      out += *name + "_count" + labels + " " +
             FormatDouble(static_cast<double>(s->histogram.count())) + "\n";
    }
  }
  return out;
}

std::string MetricRegistry::RenderStatusz() const {
  const std::vector<Sample> samples = Snapshot();

  // Subsystem = the segment after the "nagano_" prefix ("nagano_cache_..."
  // -> "cache"); anything else groups under its full first segment.
  auto subsystem_of = [](const std::string& name) {
    std::string_view v = name;
    if (v.starts_with("nagano_")) v.remove_prefix(7);
    return std::string(v.substr(0, v.find('_')));
  };

  std::map<std::string, std::string> sections;
  for (const Sample& s : samples) {
    std::string& section = sections[subsystem_of(s.name)];
    section += "  " + s.name + RenderLabels(s.labels, nullptr) + " ";
    if (s.type == MetricType::kHistogram) {
      section += s.histogram.Summary();
    } else {
      section += FormatDouble(s.value);
    }
    section += "\n";
  }

  std::string out;
  for (const auto& [subsystem, body] : sections) {
    out += "== " + subsystem + " ==\n" + body;
  }
  return out;
}

Scope Scope::Resolve(const Options& options, std::string_view auto_prefix) {
  Scope scope;
  scope.registry =
      options.registry != nullptr ? options.registry : &MetricRegistry::Default();
  const std::string instance = options.instance.empty()
                                   ? scope.registry->AutoInstance(auto_prefix)
                                   : options.instance;
  scope.labels = {{"site", instance}};
  return scope;
}

Labels Scope::With(std::string_view key, std::string_view value) const {
  Labels out = labels;
  out.emplace_back(std::string(key), std::string(value));
  return out;
}

}  // namespace nagano::metrics
