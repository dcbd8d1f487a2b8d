// Host-speed reference kernel: a sort and small-object allocation churn,
// owned by the benchmark. The driver runs this program next to every timed
// iteration so that a slow host period can be told apart from a regression.
// On a shared host the slow periods stretch allocator-heavy code (which every
// workload is) far more than arithmetic or streaming reads, and the churn
// tracks them best.
//
//   logp_hostref      prints the kernel's wall time in milliseconds
//
// It is a program of its own, linked against no library code, so each probe
// starts from a fresh heap: the time cannot depend on what the workload's
// process has allocated, and a change to the library cannot move it.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Allocates and frees 20,000 small objects `rounds` times; returns a value
/// that depends on every object so the work cannot be dropped.
std::uint64_t churn(std::vector<std::uint64_t*>& objects, int rounds,
                    std::uint64_t sum) {
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < objects.size(); ++i) {
      objects[i] = new std::uint64_t[(i + static_cast<std::size_t>(round)) % 7 + 1];
      objects[i][0] = sum + i;
    }
    for (std::uint64_t* o : objects) {
      sum += o[0] & 1;
      delete[] o;
    }
  }
  return sum;
}

}  // namespace

int main() {
  std::uint64_t state = 0x5eed;
  std::vector<std::uint32_t> keys(1 << 16);
  for (auto& k : keys) k = static_cast<std::uint32_t>(splitmix64(state));
  std::vector<std::uint64_t*> objects(20000);
  // One untimed round faults the heap's pages in, so the timed rounds
  // measure the allocator rather than the kernel's page-fault path.
  std::uint64_t sum = churn(objects, 1, 0);
  std::vector<std::uint32_t> v(keys.size());

  const auto t0 = std::chrono::steady_clock::now();
  std::copy(keys.begin(), keys.end(), v.begin());
  std::sort(v.begin(), v.end());
  sum = churn(objects, 20, sum + v[v.size() / 2]);
  const auto t1 = std::chrono::steady_clock::now();

  if (sum == 42) std::fputs("", stderr);  // keeps the work observable
  std::printf("%.6f\n", std::chrono::duration<double, std::milli>(t1 - t0).count());
  return 0;
}
