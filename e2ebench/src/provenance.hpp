#pragma once

// Provenance recorded with every benchmark result: instruction set the
// SIMD dispatch picked, git revision (when the tree is a git checkout),
// host, CPU model, usable cores, plus a calibration of how many cores
// this run could really use.  Shared hosts hand out fewer cores than
// they report, so a run whose spin-loop parallelism falls short of the
// pool's thread count is flagged rather than compared.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "mmhand/simd/simd.hpp"

namespace e2ebench {

/// First line of a text file without its line terminator ("" when the
/// file is missing or empty).
inline std::string read_first_line(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  char buf[512] = {0};
  const bool ok = std::fgets(buf, sizeof(buf), f) != nullptr;
  std::fclose(f);
  if (!ok) return {};
  std::string line(buf);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  return line;
}

/// Replaces characters that would break a JSON string literal.
inline std::string json_safe(std::string s) {
  for (char& c : s)
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
      c = ' ';
  return s;
}

/// HEAD revision of the git checkout in the working directory, or
/// "unknown" when the tree carries no git metadata.
inline std::string git_sha() {
  const std::string head = read_first_line(".git/HEAD");
  if (head.rfind("ref: ", 0) == 0) {
    const std::string sha = read_first_line(".git/" + head.substr(5));
    return sha.empty() ? "unknown" : sha;
  }
  return head.empty() ? "unknown" : head;
}

inline std::string host_name() {
  char buf[256] = {0};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

inline std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "rb");
  if (f == nullptr) return "unknown";
  char buf[512];
  std::string model = "unknown";
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    const std::string line(buf);
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::size_t begin = colon + 1;
    while (begin < line.size() && line[begin] == ' ') ++begin;
    std::size_t end = line.size();
    while (end > begin && (line[end - 1] == '\n' || line[end - 1] == '\r'))
      --end;
    model = line.substr(begin, end - begin);
    break;
  }
  std::fclose(f);
  return model;
}

/// Cores this process may run on (what `nproc` prints).
inline int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Threads of the compute pool: every usable core but one, which is
/// left to the load generator.
inline int pool_threads() { return std::max(1, usable_cores() - 1); }

struct Calibration {
  int threads = 1;
  double core_ms = 0.0;      ///< one fixed spin job on one thread
  double parallelism = 0.0;  ///< threads x core_ms / wall of `threads` jobs
  bool low = false;          ///< parallelism short of the thread count
};

/// A fixed chain of dependent integer operations; the result is
/// published so the loop cannot be elided.
inline std::uint64_t spin_job(std::uint64_t seed) {
  constexpr std::uint64_t kIterations = 12'000'000;
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Spin-loop calibration at `threads`: the median single-thread job time
/// (a core-speed probe) and the effective parallelism of `threads`
/// concurrent jobs, each over three repetitions.
inline Calibration calibrate(int threads) {
  static std::atomic<std::uint64_t> sink{0};
  constexpr int kReps = 3;
  std::vector<double> single;
  std::vector<double> wall;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    sink.fetch_xor(spin_job(static_cast<std::uint64_t>(rep) + 1));
    single.push_back(ms_between(t0, Clock::now()));

    std::vector<std::thread> workers;
    const auto t1 = Clock::now();
    for (int t = 0; t < threads; ++t)
      workers.emplace_back([t] {
        sink.fetch_xor(spin_job(static_cast<std::uint64_t>(t) + 7));
      });
    for (auto& w : workers) w.join();
    wall.push_back(ms_between(t1, Clock::now()));
  }
  Calibration c;
  c.threads = threads;
  c.core_ms = percentile(single, 50);
  const double w = percentile(wall, 50);
  c.parallelism = w > 0.0 ? threads * c.core_ms / w : 0.0;
  c.low = c.parallelism < threads - 0.5;
  return c;
}

/// One JSON line naming everything a reader needs to place the result.
inline std::string provenance_json(const Args& args, const Calibration& c) {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.3f, "
      "\"trace\": %d, \"isa\": \"%s\", \"git_sha\": \"%s\", "
      "\"host\": \"%s\", \"cpu_model\": \"%s\", \"nproc\": %d, "
      "\"pool_threads\": %d, \"calib_core_ms\": %.4f, "
      "\"calib_parallelism\": %.3f, \"calibration\": \"%s\"}",
      json_safe(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0,
      mmhand::simd::isa_name(mmhand::simd::active_isa()),
      json_safe(git_sha()).c_str(), json_safe(host_name()).c_str(),
      json_safe(cpu_model()).c_str(), usable_cores(), c.threads, c.core_ms,
      c.parallelism,
      c.low ? "flagged: parallelism below pool threads, do not compare"
            : "ok");
  return buf;
}

}  // namespace e2ebench
