#include "harness/bench.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

bool SupportsQuantile(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

double BisectMaxRate(double lo, double hi, int steps,
                     const std::function<bool(double)>& passes) {
  if (!passes(lo)) return 0.0;
  double good = lo, bad = hi;
  for (int i = 0; i < steps; ++i) {
    const double mid = std::sqrt(good * bad);
    if (passes(mid)) {
      good = mid;
    } else {
      bad = mid;
    }
  }
  return good;
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void ShuffleRows(std::vector<std::vector<std::string>>* rows, uint64_t seed) {
  if (rows->size() < 3) return;
  uint64_t state = seed;
  for (size_t i = rows->size() - 1; i > 1; --i) {
    std::swap((*rows)[i], (*rows)[1 + SplitMix64(&state) % i]);
  }
}

uint64_t FusionDigest(const std::vector<bool>& matches,
                      const std::vector<uint32_t>& cluster_of,
                      const std::vector<double>& probability) {
  // FNV-1a over 64-bit words, with the section sizes mixed in so that
  // moving an element between sections changes the digest.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(matches.size());
  for (bool m : matches) mix(m ? 1 : 0);
  mix(cluster_of.size());
  for (uint32_t c : cluster_of) mix(c);
  mix(probability.size());
  for (double p : probability) {
    uint64_t bits = 0;
    std::memcpy(&bits, &p, sizeof(bits));
    mix(bits);
  }
  return h;
}

CpuSample SampleCpu() {
  CpuSample s;
  s.wall_ns = NowNs();
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label == "cpu") {
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user/nice).
    uint64_t v[8] = {};
    for (uint64_t& x : v) stat >> x;
    for (uint64_t x : v) s.total += x;
    s.idle = v[3] + v[4];
    s.steal = v[7];
  }
  std::ifstream self("/proc/self/stat");
  std::string line;
  std::getline(self, line);
  // Fields after the parenthesised command name; utime is field 14.
  const size_t close = line.rfind(')');
  if (close != std::string::npos) {
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    uint64_t ticks = 0;
    for (int i = 3; i <= 17 && rest >> field; ++i) {
      if (i >= 14) ticks += std::strtoull(field.c_str(), nullptr, 10);
    }
    s.self = ticks;
  }
  return s;
}

NoiseReport CompareCpu(const CpuSample& begin, const CpuSample& end) {
  NoiseReport r;
  const double total = static_cast<double>(end.total - begin.total);
  if (total <= 0) return r;
  r.steal_share = static_cast<double>(end.steal - begin.steal) / total;
  const double busy = total - static_cast<double>(end.idle - begin.idle) -
                      static_cast<double>(end.steal - begin.steal);
  const double other = busy - static_cast<double>(end.self - begin.self);
  const double ticks_per_s = static_cast<double>(sysconf(_SC_CLK_TCK));
  const double wall_s = static_cast<double>(end.wall_ns - begin.wall_ns) / 1e9;
  if (wall_s > 0) {
    r.other_cpu_cores = std::max(0.0, other / ticks_per_s / wall_s);
  }
  return r;
}

double CalibrationLoopMs() {
  const int64_t t0 = NowNs();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 0.0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc = acc * 0.999999 + static_cast<double>(x & 0xffff);
    // An opaque use per iteration keeps the compiler from folding the loop.
    asm volatile("" : "+r"(x), "+x"(acc));
  }
  const int64_t t1 = NowNs();
  return static_cast<double>(t1 - t0) / 1e6;
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

unsigned OnlineCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
