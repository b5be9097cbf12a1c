// Order statistics for lsmbench.cc. Header-only so `lsmbench --selftest`
// can check them without a test framework.
#ifndef LSMBENCH_BENCH_STATS_H_
#define LSMBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lsmbench {

/// Nearest-rank percentile of `samples` (sorted in place): the smallest
/// value with at least p% of the samples at or below it. `beyond` receives
/// how many samples lie strictly above that rank, so a caller can tell
/// whether the percentile is supported (at least ten samples beyond it).
/// Returns 0 for an empty sample.
template <typename T>
double Percentile(std::vector<T>* samples, double p, size_t* beyond) {
  const size_t n = samples->size();
  if (n == 0) {
    if (beyond != nullptr) *beyond = 0;
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::min(std::max<size_t>(rank, 1), n);
  std::nth_element(samples->begin(), samples->begin() + (rank - 1),
                   samples->end());
  if (beyond != nullptr) *beyond = n - rank;
  return static_cast<double>((*samples)[rank - 1]);
}

/// Median of a small vector (copied); the mean of the middle two for an
/// even count.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Checks the functions above; returns the number of failed checks.
inline int SelfTest() {
  int failed = 0;
  auto check = [&failed](bool ok) { failed += ok ? 0 : 1; };
  std::vector<uint32_t> v;
  for (uint32_t i = 1; i <= 1000; i++) v.push_back(1001 - i);
  size_t beyond = 0;
  check(Percentile(&v, 50, &beyond) == 500 && beyond == 500);
  check(Percentile(&v, 99, &beyond) == 990 && beyond == 10);
  check(Percentile(&v, 100, &beyond) == 1000 && beyond == 0);
  check(Percentile(&v, 0, &beyond) == 1 && beyond == 999);
  std::vector<uint32_t> one{7};
  check(Percentile(&one, 99, &beyond) == 7 && beyond == 0);
  std::vector<uint32_t> none;
  check(Percentile(&none, 50, &beyond) == 0 && beyond == 0);
  check(Median({3, 1, 2}) == 2);
  check(Median({4, 1, 3, 2}) == 2.5);
  check(Median({}) == 0);
  return failed;
}

}  // namespace lsmbench

#endif  // LSMBENCH_BENCH_STATS_H_
