#pragma once
///
/// \file stats.hpp
/// \brief The benchmark's own arithmetic: exact percentiles from raw
/// samples, medians over runs, and the failed-operation accounting.
/// `tramlib_bench --self-test` checks every function here.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of raw samples: the smallest sample such that
/// at least p% of all samples are <= it. Reorders `v`. Returns 0 for no
/// samples. Exact by construction — no bucketing.
template <typename T>
double percentile(std::vector<T>& v, double p) {
  if (v.empty()) return 0.0;
  const double n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), nth, v.end());
  return static_cast<double>(*nth);
}

/// Median of per-run values (mean of the two middle values for an even
/// count). Returns 0 for no values.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Operations counted as failed in one invocation: an invocation whose
/// verification failed on any run counts every operation it attempted as
/// failed, since a wrong result makes every timing it produced suspect.
inline std::uint64_t failed_ops(std::uint64_t attempted, bool any_failure) {
  return any_failure ? attempted : 0;
}

/// failed / attempted; nothing attempted counts as total failure.
inline double failed_frac(std::uint64_t attempted, std::uint64_t failed) {
  if (attempted == 0) return 1.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

/// Checks the functions above on hand-computed cases. Prints each failing
/// case and returns the number of failures.
inline int self_test() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("self-test FAIL: %s\n", what);
      ++failures;
    }
  };
  std::vector<std::uint32_t> hundred;
  for (std::uint32_t i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted
  expect(percentile(hundred, 50.0) == 50.0, "p50 of 1..100 is 50");
  expect(percentile(hundred, 99.0) == 99.0, "p99 of 1..100 is 99");
  expect(percentile(hundred, 99.9) == 100.0, "p99.9 of 1..100 is 100");
  expect(percentile(hundred, 100.0) == 100.0, "p100 of 1..100 is 100");
  expect(percentile(hundred, 0.0) == 1.0, "p0 of 1..100 is the minimum");
  std::vector<std::uint32_t> ten = {7, 1, 9, 3, 5, 10, 2, 8, 4, 6};
  expect(percentile(ten, 50.0) == 5.0, "p50 of 1..10 is 5");
  expect(percentile(ten, 99.0) == 10.0, "p99 of 1..10 is 10");
  expect(percentile(ten, 91.0) == 10.0, "p91 of 1..10 is 10");
  expect(percentile(ten, 90.0) == 9.0, "p90 of 1..10 is 9");
  std::vector<std::uint32_t> one = {42};
  expect(percentile(one, 99.0) == 42.0, "percentile of one sample");
  std::vector<std::uint32_t> none;
  expect(percentile(none, 50.0) == 0.0, "percentile of no samples is 0");
  // A long tail moves p99 but not p50.
  std::vector<std::uint64_t> tail(1000, 80);
  for (std::size_t i = 0; i < 20; ++i) tail[i] = 5000;
  expect(percentile(tail, 50.0) == 80.0, "p50 ignores a 2% tail");
  expect(percentile(tail, 99.0) == 5000.0, "p99 lands in a 2% tail");

  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even count");
  expect(median({}) == 0.0, "median of nothing is 0");

  expect(failed_ops(1000, false) == 0, "verified invocation fails nothing");
  expect(failed_ops(1000, true) == 1000,
         "failed verification fails every operation");
  expect(failed_frac(1000, 0) == 0.0, "failed_frac 0/1000");
  expect(failed_frac(1000, 1000) == 1.0, "failed_frac 1000/1000");
  expect(failed_frac(400, 100) == 0.25, "failed_frac 100/400");
  expect(failed_frac(0, 0) == 1.0, "nothing attempted is total failure");
  return failures;
}

}  // namespace perfbench
