#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t DeriveSeed(uint64_t seed, const char* tag) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char* p = tag; *p != '\0'; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ull;
  }
  return Mix64(Mix64(seed + 0x9e3779b97f4a7c15ull) ^ h);
}

void Fingerprint::Mix(uint64_t v) {
  h_ = Mix64(h_ ^ v) + 0x9e3779b97f4a7c15ull;
}

bool WantAnotherSetup(const std::vector<double>& setup_s) {
  double total = 0;
  for (double s : setup_s) total += s;
  return setup_s.size() < 3 || (total < 1.0 && setup_s.size() < 1000);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
