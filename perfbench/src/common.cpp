#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace pb {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t SplitMix64::below(std::uint64_t n) {
  // Modulo bias is below n / 2^64, negligible for the generators' ranges.
  return next() % n;
}

double SplitMix64::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t tag,
                         std::uint64_t index) {
  SplitMix64 a(seed ^ (tag * 0xD1B54A32D192ED03ull));
  SplitMix64 b(a.next() + index * 0x9E3779B97F4A7C15ull);
  return b.next();
}

void fnvFold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
}

void fnvFoldBytes(std::uint64_t& h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
}

std::size_t samplesNeededFor(double p) {
  // n * (1 - p/100) >= 10, computed in integers of basis points so that
  // p = 90 gives exactly 100 and p = 99 exactly 1000.
  const auto beyond = static_cast<std::size_t>(std::llround((100.0 - p) * 100.0));
  if (beyond == 0) return static_cast<std::size_t>(-1);
  return (10u * 10000u + beyond - 1) / beyond;
}

bool percentileSupported(double p, std::size_t n) {
  return n >= samplesNeededFor(p);
}

double highestSupportedPercentile(const std::vector<double>& candidates,
                                  std::size_t n) {
  double best = -1.0;
  for (const double p : candidates)
    if (percentileSupported(p, n) && p > best) best = p;
  return best;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

void HostSpeed::sample() {
  const auto t0 = Clock::now();
  std::uint64_t h = sink_;
  for (std::uint64_t i = 0; i < 300000; ++i) {
    h = (h ^ i) * 0x9E3779B97F4A7C15ull;
    if (h & 1)
      h ^= h >> 31;
    else
      h += 7;
  }
  sink_ = h;
  const double ms = msBetween(t0, Clock::now());
  samples_.push_back(ms);
  spentMs_ += ms;
}

double HostSpeed::factor() const {
  return samples_.empty() ? 1.0 : kReferenceMs / median(samples_);
}

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1u << 16); }

std::int32_t Tracer::begin(const char* name) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - epoch_)
                       .count();
  spans_.push_back(Span{name, now, -1, current_, op_});
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void Tracer::end(std::int32_t id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.endNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - epoch_)
                .count();
  current_ = s.parent;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> childMs(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      childMs[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.endNs - s.startNs) * 1e-6;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ms = static_cast<double>(s.endNs - s.startNs) * 1e-6;
    Totals& t = out[s.name];
    t.totalMs += ms;
    t.selfMs += ms - childMs[i];
    ++t.count;
  }
  return out;
}

Tracer::Totals Tracer::of(const std::string& name) const {
  const auto all = totals();
  const auto it = all.find(name);
  return it == all.end() ? Totals{} : it->second;
}

void Tracer::writeJsonl(std::ostream& out) const {
  for (const Span& s : spans_)
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
        << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}\n";
}

void RunCtx::problem(const std::string& message) {
  if (failures.size() < 16) failures.push_back(message);
}

void RunCtx::op(const char* cls, double ms, bool ok) {
  ++attempted;
  if (!ok) {
    ++failed;
  } else {
    latencyMs.push_back(ms);
  }
  ClassTime& c = classTime[cls];
  c.ms += ms;
  ++c.count;
}

bool checkBound(RunCtx& ctx, bool inWindow, const char* what, double cost,
                Bound bound) {
  if (inWindow && bound.paper > 0.0)
    ctx.sim.boundRatioMax = std::max(ctx.sim.boundRatioMax, cost / bound.paper);
  if (cost > bound.gate) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s: cost %.0f exceeds bound %.0f", what,
                  cost, bound.gate);
    ctx.problem(buf);
    return false;
  }
  return true;
}

}  // namespace pb
