#include "tsp/tsp.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "common/error.hpp"
#include "fault/fault.hpp"

namespace simdts::tsp {

Tsp::Tsp(int n, std::uint64_t seed, std::int32_t max_distance) : n_(n) {
  if (n < 1 || n > kMaxCities) {
    throw ConfigError("Tsp: city count must be in [1, 16]",
                      "n=" + std::to_string(n));
  }
  if (max_distance < 1) {
    throw ConfigError("Tsp: max_distance must be positive",
                      "max_distance=" + std::to_string(max_distance));
  }
  std::uint64_t state = seed ^ 0xC2B2AE3D27D4EB4FULL;
  for (int a = 0; a < n_; ++a) {
    for (int b = a + 1; b < n_; ++b) {
      const auto d = static_cast<std::int32_t>(
          1 + fault::splitmix64(state) %
                  static_cast<std::uint64_t>(max_distance));
      dist_[static_cast<std::size_t>(a) * kMaxCities + b] = d;
      dist_[static_cast<std::size_t>(b) * kMaxCities + a] = d;
    }
  }
  finish_setup();
}

Tsp::Tsp(int n, const std::vector<std::int32_t>& distances) : n_(n) {
  if (n < 1 || n > kMaxCities) {
    throw ConfigError("Tsp: city count must be in [1, 16]",
                      "n=" + std::to_string(n));
  }
  if (distances.size() != static_cast<std::size_t>(n) * n) {
    throw ConfigError("Tsp: distance matrix must be n x n",
                      "n=" + std::to_string(n) + " entries=" +
                          std::to_string(distances.size()));
  }
  for (int a = 0; a < n_; ++a) {
    for (int b = 0; b < n_; ++b) {
      const std::int32_t d = distances[static_cast<std::size_t>(a) * n + b];
      if (a == b && d != 0) {
        throw ConfigError("Tsp: diagonal must be zero",
                          "a=" + std::to_string(a) + " d=" +
                              std::to_string(d));
      }
      if (d != distances[static_cast<std::size_t>(b) * n + a]) {
        throw ConfigError("Tsp: matrix must be symmetric",
                          "a=" + std::to_string(a) + " b=" +
                              std::to_string(b));
      }
      dist_[static_cast<std::size_t>(a) * kMaxCities + b] = d;
    }
  }
  finish_setup();
}

void Tsp::finish_setup() {
  for (int a = 0; a < n_; ++a) {
    std::int32_t best = std::numeric_limits<std::int32_t>::max();
    for (int b = 0; b < n_; ++b) {
      if (b != a) best = std::min(best, distance(a, b));
    }
    min_edge_[static_cast<std::size_t>(a)] = n_ > 1 ? best : 0;
  }
}

std::int32_t Tsp::brute_force_optimal() const {
  if (n_ > 12) {
    throw ConfigError("Tsp: brute force capped at 12 cities",
                      "n=" + std::to_string(n_));
  }
  if (n_ == 1) return 0;
  std::vector<int> perm(static_cast<std::size_t>(n_) - 1);
  std::iota(perm.begin(), perm.end(), 1);
  std::int32_t best = std::numeric_limits<std::int32_t>::max();
  do {
    std::int32_t cost = distance(0, perm.front());
    for (std::size_t i = 0; i + 1 < perm.size(); ++i) {
      cost += distance(perm[i], perm[i + 1]);
    }
    cost += distance(perm.back(), 0);
    best = std::min(best, cost);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

}  // namespace simdts::tsp
