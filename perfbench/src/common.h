// Shared pieces of the SEBDB benchmark program: command-line arguments,
// seeded key distributions, latency summaries, process resource readings
// and the one-line JSON result the program prints last.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for node data; removed when the run ends.
  std::string data_dir;
  /// Directory the traced run writes its raw spans into.
  std::string trace_dir;
  /// "full" is the benchmark; "smoke" shrinks every input for the benchmark.s
  /// self-check.
  std::string scale = "full";
  /// Self-check hook: perturb one ground-truth count so the correctness
  /// check must fail.
  bool wrong_truth = false;

  bool smoke() const { return scale == "smoke"; }
};

/// Parses `--workload w --seed n --seconds s --trace 0|1` plus the program's
/// own `--data-dir`, `--trace-dir`, `--scale` and `--wrong-truth` flags.
bool ParseArgs(int argc, char** argv, Args* out, std::string* error);

int64_t NowNanos();
double NowSeconds();
/// CPU seconds of the whole process (all threads), user + system.
double ProcessCpuSeconds();
/// CPU seconds of the calling thread.
double ThreadCpuSeconds();
/// Peak resident set of the process, MiB.
double PeakRssMb();
/// Bytes of every regular file under `dir`, recursively.
uint64_t DirBytes(const std::string& dir);

/// Zipf over ranks [0, n): P(rank k) proportional to 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(uint64_t n, double s);
  uint64_t Next(sebdb::Random* rng) const { return Rank(rng->NextDouble()); }
  /// Inverse CDF: the rank at cumulative probability u in [0, 1).
  uint64_t Rank(double u) const;

 private:
  std::vector<double> cdf_;
};

/// Evenly spread draws in [0, 1): u_n = frac(u_0 + n * 0.618...), the
/// golden-ratio sequence, with u_0 taken from the seed. Any stretch of draws
/// covers [0, 1) almost uniformly, so every run issues the same mix of
/// popular and rare keys however many queries fit in its window; the seed
/// still decides which keys those are.
class SpreadDraws {
 public:
  explicit SpreadDraws(sebdb::Random* rng) : u_(rng->NextDouble()) {}
  double Next() {
    u_ += 0.6180339887498949;
    if (u_ >= 1.0) u_ -= 1.0;
    return u_;
  }

 private:
  double u_;
};

/// Latency samples of one operation class, in milliseconds. A failed
/// operation is recorded as +infinity so it misses every latency limit.
class Latencies {
 public:
  void Add(double ms) {
    ms_.push_back(ms);
    sorted_ = false;
  }
  void AddFailed();
  size_t size() const { return ms_.size(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// Whether quantile q has at least ten samples beyond it, the least a
  /// reported percentile needs.
  bool HasTail(double q) const {
    return static_cast<double>(ms_.size()) * (1.0 - q) >= 10.0;
  }
  size_t CountAbove(double ms) const {
    size_t n = 0;
    for (double v : ms_) n += v > ms;
    return n;
  }

 private:
  mutable std::vector<double> ms_;
  mutable bool sorted_ = false;
};

/// Completions per second in each of `slices` equal slices of the timed
/// window. The reported rate is the median slice, so a host hiccup of a few
/// seconds does not move it. Five slices hold enough completions that
/// counting does not round the rate of the slowest workload; `ingest` takes
/// one-second slices, so that the median slice falls between the window's
/// checkpoint stalls.
class RateSlices {
 public:
  RateSlices(int64_t start_ns, int seconds, int slices = 5)
      : start_ns_(start_ns),
        slice_ns_(static_cast<int64_t>(seconds) * 1000000000 / slices),
        counts_(slices, 0) {}
  void Add(int64_t done_ns) {
    if (done_ns < start_ns_) return;
    size_t slice = static_cast<size_t>((done_ns - start_ns_) / slice_ns_);
    if (slice < counts_.size()) counts_[slice]++;
  }
  double Median() const;
  /// "per second: mean M, min A, max B over the window's N slices".
  std::string Summary() const;

 private:
  int64_t start_ns_;
  int64_t slice_ns_;
  std::vector<double> counts_;
};

/// Geometric mean: the workloads' p50_ms over their query classes' medians,
/// so each class moves it by the same share whatever its absolute cost.
double GeoMean(const std::vector<double>& values);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Outcome of one run: the fields of the final JSON line; Fail and Info
/// print the human-readable lines that come before it.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit);
  /// A correctness or validity check failed: prints "FAIL <why>" and makes
  /// the run exit non-zero.
  void Fail(const std::string& why);
  /// "info <key>: <text>" lines: traffic properties and cache budgets.
  void Info(const std::string& key, const std::string& text);
};

/// Prints the result line: {"correct", "attempted", "failed", "metrics"}.
void PrintResult(const RunResult& result);

std::string Fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Runs `setup` `n` times, each from scratch, and returns the median of
/// their durations in seconds. `teardown` (untimed) discards every attempt
/// but the last, whose state the caller keeps. Stops at the first failure.
sebdb::Status RepeatSetup(int n, const std::function<sebdb::Status()>& setup,
                          const std::function<void()>& teardown,
                          double* median_seconds);

}  // namespace perfbench
