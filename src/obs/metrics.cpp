#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace acp::obs {

// ---- Labels ---------------------------------------------------------------

Labels::Labels(std::initializer_list<std::pair<std::string, std::string>> kv)
    : Labels(std::vector<std::pair<std::string, std::string>>(kv)) {}

Labels::Labels(std::vector<std::pair<std::string, std::string>> kv) : kv_(std::move(kv)) {
  std::sort(kv_.begin(), kv_.end());
  for (std::size_t i = 1; i < kv_.size(); ++i) {
    ACP_REQUIRE_MSG(kv_[i].first != kv_[i - 1].first, "duplicate label key: " + kv_[i].first);
  }
}

const std::string& Labels::get(const std::string& key) const {
  static const std::string empty;
  for (const auto& [k, v] : kv_) {
    if (k == key) return v;
  }
  return empty;
}

std::string Labels::render() const {
  if (kv_.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < kv_.size(); ++i) {
    if (i > 0) out += ',';
    out += kv_[i].first;
    out += "=\"";
    out += kv_[i].second;
    out += '"';
  }
  out += '}';
  return out;
}

// ---- Gauge ----------------------------------------------------------------

void Gauge::set(double v) {
  value_ = v;
  if (!set_) {
    min_ = max_ = v;
    set_ = true;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
}

void Gauge::merge_from(const Gauge& o) {
  if (!o.set_) return;
  if (!set_) {
    *this = o;
    return;
  }
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
  value_ = o.value_;  // src's sets happened "after" ours
}

// ---- Histogram ------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  ACP_REQUIRE_MSG(!bounds_.empty(), "histogram needs at least one finite bucket bound");
  ACP_REQUIRE_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                      std::adjacent_find(bounds_.begin(), bounds_.end()) == bounds_.end(),
                  "histogram bounds must be strictly increasing");
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

void Histogram::merge_from(const Histogram& o) {
  ACP_REQUIRE_MSG(bounds_ == o.bounds_, "histogram merge with different bucket bounds");
  if (o.count_ == 0) return;
  if (count_ == 0) {
    min_ = o.min_;
    max_ = o.max_;
  } else {
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }
  for (std::size_t b = 0; b < buckets_.size(); ++b) buckets_[b] += o.buckets_[b];
  count_ += o.count_;
  sum_ += o.sum_;
}

double Histogram::quantile(double q) const {
  ACP_REQUIRE(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += buckets_[b];
    if (static_cast<double>(cumulative) < target) continue;
    // Interpolate inside bucket b. Edges: lower = previous bound (or
    // observed min for the first finite bucket), upper = this bound (or
    // observed max for the +inf bucket).
    const double lo = b == 0 ? std::min(min_, bounds_[0]) : bounds_[b - 1];
    const double hi = b < bounds_.size() ? bounds_[b] : max_;
    const double frac = (target - before) / static_cast<double>(buckets_[b]);
    // Clamp to the observed range: interpolation against a sparse bucket's
    // upper bound must not report a quantile beyond any real observation.
    return std::clamp(lo + (hi - lo) * std::clamp(frac, 0.0, 1.0), min_, max_);
  }
  return max_;
}

std::vector<double> duration_bounds_s() {
  return {0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
          0.5,    1.0,   2.5,    5.0,   10.0, 30.0,  60.0, 120.0};
}

// ---- MetricsRegistry ------------------------------------------------------

void MetricsRegistry::claim_name(const std::string& name, Kind kind) {
  const auto [it, inserted] = name_kinds_.emplace(name, kind);
  ACP_REQUIRE_MSG(it->second == kind, "metric name registered with a different type: " + name);
  (void)inserted;
}

Counter& MetricsRegistry::counter(const std::string& name, const Labels& labels) {
  claim_name(name, Kind::kCounter);
  auto& slot = counters_[{name, labels}];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  claim_name(name, Kind::kGauge);
  auto& slot = gauges_[{name, labels}];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds,
                                      const Labels& labels) {
  claim_name(name, Kind::kHistogram);
  auto& slot = hists_[{name, labels}];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  } else {
    ACP_REQUIRE_MSG(slot->bounds() == bounds,
                    "histogram re-registered with different bounds: " + name);
  }
  return *slot;
}

const Counter* MetricsRegistry::find_counter(const std::string& name, const Labels& labels) const {
  const auto it = counters_.find({name, labels});
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name, const Labels& labels) const {
  const auto it = gauges_.find({name, labels});
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name,
                                                 const Labels& labels) const {
  const auto it = hists_.find({name, labels});
  return it == hists_.end() ? nullptr : it->second.get();
}

std::uint64_t MetricsRegistry::counter_family_total(const std::string& name) const {
  std::uint64_t sum = 0;
  for (const auto& [key, c] : counters_) {
    if (key.first == name) sum += c->value();
  }
  return sum;
}

void MetricsRegistry::for_each_counter(
    const std::function<void(const std::string&, const Labels&, const Counter&)>& fn) const {
  for (const auto& [key, c] : counters_) fn(key.first, key.second, *c);
}

void MetricsRegistry::for_each_gauge(
    const std::function<void(const std::string&, const Labels&, const Gauge&)>& fn) const {
  for (const auto& [key, g] : gauges_) fn(key.first, key.second, *g);
}

void MetricsRegistry::for_each_histogram(
    const std::function<void(const std::string&, const Labels&, const Histogram&)>& fn) const {
  for (const auto& [key, h] : hists_) fn(key.first, key.second, *h);
}

std::uint64_t CounterHandle::value() const {
  if (series_ != nullptr) return series_->value();
  const Counter* c = registry_ == nullptr ? nullptr : registry_->find_counter(name_, labels_);
  return c == nullptr ? 0 : c->value();
}

void MetricsRegistry::merge_from(const MetricsRegistry& src) {
  for (const auto& [key, c] : src.counters_) {
    counter(key.first, key.second).merge_from(*c);
  }
  for (const auto& [key, g] : src.gauges_) {
    gauge(key.first, key.second).merge_from(*g);
  }
  for (const auto& [key, h] : src.hists_) {
    histogram(key.first, h->bounds(), key.second).merge_from(*h);
  }
  for (const auto& [k, v] : src.meta_) meta_[k] = v;
}

// ---- JSON output ----------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (std::isnan(v)) v = 0.0;
  if (std::isinf(v)) v = v > 0 ? 1e308 : -1e308;
  char buf[32];
  // %.17g round-trips doubles but writes noisy tails; %.12g is exact for
  // every value the simulator produces (sim times, rates, ratios).
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

namespace {

void write_labels_json(std::ostream& os, const Labels& labels) {
  os << '{';
  bool first = true;
  for (const auto& [k, v] : labels.pairs()) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(k) << "\":\"" << json_escape(v) << '"';
  }
  os << '}';
}

}  // namespace

void MetricsRegistry::set_meta(const std::string& key, const std::string& value) {
  meta_[key] = value;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n";
  if (!meta_.empty()) {
    os << "  \"meta\": {";
    bool mfirst = true;
    for (const auto& [k, v] : meta_) {
      os << (mfirst ? "" : ", ") << '"' << json_escape(k) << "\": \"" << json_escape(v) << '"';
      mfirst = false;
    }
    os << "},\n";
  }
  os << "  \"counters\": [";
  bool first = true;
  for (const auto& [key, c] : counters_) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << json_escape(key.first)
       << "\", \"labels\": ";
    write_labels_json(os, key.second);
    os << ", \"value\": " << c->value() << '}';
    first = false;
  }
  os << "\n  ],\n  \"gauges\": [";
  first = true;
  for (const auto& [key, g] : gauges_) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << json_escape(key.first)
       << "\", \"labels\": ";
    write_labels_json(os, key.second);
    os << ", \"value\": " << json_number(g->value()) << ", \"min\": " << json_number(g->min())
       << ", \"max\": " << json_number(g->max()) << '}';
    first = false;
  }
  os << "\n  ],\n  \"histograms\": [";
  first = true;
  for (const auto& [key, h] : hists_) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << json_escape(key.first)
       << "\", \"labels\": ";
    write_labels_json(os, key.second);
    os << ", \"count\": " << h->count() << ", \"sum\": " << json_number(h->sum())
       << ", \"min\": " << json_number(h->min()) << ", \"max\": " << json_number(h->max())
       << ", \"buckets\": [";
    for (std::size_t b = 0; b < h->bucket_counts().size(); ++b) {
      if (b > 0) os << ',';
      os << "{\"le\": "
         << (b < h->bounds().size() ? json_number(h->bounds()[b]) : std::string("\"inf\""))
         << ", \"count\": " << h->bucket_counts()[b] << '}';
    }
    os << "]}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

void MetricsRegistry::save_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw PreconditionError("cannot open metrics output file: " + path);
  write_json(f);
  if (!f.good()) throw PreconditionError("failed writing metrics output file: " + path);
}

}  // namespace acp::obs
