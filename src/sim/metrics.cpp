#include "sim/metrics.hpp"

#include <cstdio>
#include <stdexcept>

namespace clouds::sim {

// ---- Histogram ----

const std::vector<std::int64_t>& Histogram::defaultLatencyBoundsUsec() {
  static const std::vector<std::int64_t> bounds = {
      100,    250,    500,     1000,    2500,    5000,    10000,
      25000,  50000,  100000,  250000,  500000,  1000000, 5000000};
  return bounds;
}

Histogram::Histogram(std::vector<std::int64_t> bounds) : bounds_(std::move(bounds)) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::logic_error("Histogram: bucket bounds must be strictly ascending");
    }
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(std::int64_t value) {
  std::size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) ++i;
  ++counts_[i];
  ++count_;
  sum_ += value;
}

std::int64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation, 1-based: ceil(q * count), at least 1.
  std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(count_));
  if (static_cast<double>(rank) < q * static_cast<double>(count_)) ++rank;
  if (rank == 0) rank = 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (cumulative + counts_[i] < rank) {
      cumulative += counts_[i];
      continue;
    }
    if (i >= bounds_.size()) return bounds_.empty() ? 0 : bounds_.back();  // overflow slot
    const std::int64_t lo = (i == 0) ? 0 : bounds_[i - 1];
    const std::int64_t hi = bounds_[i];
    // Integer linear interpolation: position of the target rank inside the
    // bucket's [lo, hi] span. All-int64 so same buckets => same answer.
    const std::int64_t into = static_cast<std::int64_t>(rank - cumulative);
    return lo + (hi - lo) * into / static_cast<std::int64_t>(counts_[i]);
  }
  return bounds_.empty() ? 0 : bounds_.back();
}

void Histogram::merge(const Histogram& other) {
  if (other.bounds_ != bounds_) {
    throw std::logic_error("Histogram::merge: bucket bounds differ");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

// ---- MetricsRegistry ----

std::uint64_t& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

std::int64_t& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return histogram(name, Histogram::defaultLatencyBoundsUsec());
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<std::int64_t> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(std::move(bounds))).first;
  }
  return it->second;
}

std::uint64_t MetricsRegistry::counterValue(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::int64_t MetricsRegistry::gaugeValue(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

const Histogram* MetricsRegistry::findHistogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::uint64_t MetricsRegistry::counterSum(const std::string& suffix) const {
  std::uint64_t sum = 0;
  for (const auto& [name, v] : counters_) {
    const std::size_t slash = name.find('/');
    if (slash != std::string::npos && name.compare(slash + 1, std::string::npos, suffix) == 0) {
      sum += v;
    }
  }
  return sum;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  for (const auto& [name, v] : other.gauges_) gauges_[name] += v;
  for (const auto& [name, h] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
    } else {
      it->second.merge(h);
    }
  }
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

namespace {

// Metric names are plain slash-paths, but escape defensively so the output
// is always valid JSON.
void appendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
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
  out += '"';
}

template <typename Map, typename EmitValue>
void appendJsonObject(std::string& out, const char* key, const Map& map, EmitValue emit) {
  out += '"';
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [name, value] : map) {
    if (!first) out += ',';
    first = false;
    appendJsonString(out, name);
    out += ':';
    emit(out, value);
  }
  out += '}';
}

}  // namespace

std::string MetricsRegistry::toJson() const {
  std::string out;
  out += '{';
  appendJsonObject(out, "counters", counters_, [](std::string& o, std::uint64_t v) {
    o += std::to_string(v);
  });
  out += ',';
  appendJsonObject(out, "gauges", gauges_, [](std::string& o, std::int64_t v) {
    o += std::to_string(v);
  });
  out += ',';
  appendJsonObject(out, "histograms", histograms_, [](std::string& o, const Histogram& h) {
    o += "{\"count\":";
    o += std::to_string(h.count());
    o += ",\"sum\":";
    o += std::to_string(h.sum());
    o += ",\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i != 0) o += ',';
      o += std::to_string(h.bounds()[i]);
    }
    o += "],\"counts\":[";
    for (std::size_t i = 0; i < h.bucketCounts().size(); ++i) {
      if (i != 0) o += ',';
      o += std::to_string(h.bucketCounts()[i]);
    }
    o += "]}";
  });
  out += '}';
  return out;
}

std::string MetricsRegistry::percentilesJson() const {
  std::string out;
  out += '{';
  bool first = true;
  for (const auto& [name, h] : histograms_) {
    if (h.count() == 0) continue;
    if (!first) out += ',';
    first = false;
    appendJsonString(out, name);
    out += ":{\"count\":";
    out += std::to_string(h.count());
    out += ",\"p50\":";
    out += std::to_string(h.quantile(0.50));
    out += ",\"p95\":";
    out += std::to_string(h.quantile(0.95));
    out += ",\"p99\":";
    out += std::to_string(h.quantile(0.99));
    out += '}';
  }
  out += '}';
  return out;
}

}  // namespace clouds::sim
