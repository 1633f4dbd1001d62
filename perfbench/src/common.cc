#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <limits>

namespace perfbench {

bool ParseArgs(int argc, char** argv, Args* out, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; i++) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      out->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      out->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      out->trace = value == "1";
    } else if (flag == "--data-dir") {
      out->data_dir = value;
    } else if (flag == "--trace-dir") {
      out->trace_dir = value;
    } else if (flag == "--scale") {
      out->scale = value;
    } else if (flag == "--wrong-truth") {
      out->wrong_truth = value == "1";
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload) {
    *error = "--workload is required";
    return false;
  }
  if (out->seconds < 1) {
    *error = "--seconds must be at least 1";
    return false;
  }
  if (out->data_dir.empty()) {
    *error = "--data-dir is required";
    return false;
  }
  if (out->scale != "full" && out->scale != "smoke") {
    *error = "--scale must be full or smoke";
    return false;
  }
  return true;
}

int64_t NowNanos() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double NowSeconds() { return NowNanos() / 1e9; }

namespace {
double ClockSeconds(clockid_t id) {
  timespec ts;
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}
}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

Zipf::Zipf(uint64_t n, double s) : cdf_(n) {
  double sum = 0;
  for (uint64_t k = 0; k < n; k++) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (auto& c : cdf_) c /= sum;
}

uint64_t Zipf::Rank(double u) const {
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<uint64_t>(it - cdf_.begin());
}

void Latencies::AddFailed() {
  ms_.push_back(std::numeric_limits<double>::infinity());
  sorted_ = false;
}

double Latencies::Quantile(double q) const {
  if (ms_.empty()) return std::nan("");
  if (!sorted_) {
    std::sort(ms_.begin(), ms_.end());
    sorted_ = true;
  }
  // Linear interpolation between closest ranks.
  double pos = q * static_cast<double>(ms_.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, ms_.size() - 1);
  double frac = pos - static_cast<double>(lo);
  if (std::isinf(ms_[hi])) return ms_[hi];
  return ms_[lo] + (ms_[hi] - ms_[lo]) * frac;
}

double RateSlices::Median() const {
  std::vector<double> sorted = counts_;
  std::sort(sorted.begin(), sorted.end());
  return sorted[sorted.size() / 2] / (slice_ns_ / 1e9);
}

std::string RateSlices::Summary() const {
  const double seconds = slice_ns_ / 1e9;
  double sum = 0;
  for (double c : counts_) sum += c;
  auto [lo, hi] = std::minmax_element(counts_.begin(), counts_.end());
  return Fmt("per second: mean %.1f, min %.1f, max %.1f over the window's "
             "%zu slices",
             sum / counts_.size() / seconds, *lo / seconds, *hi / seconds,
             counts_.size());
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  fprintf(stdout, "FAIL %s\n", why.c_str());
  fflush(stdout);
}

void RunResult::Info(const std::string& key, const std::string& text) {
  fprintf(stdout, "info %s: %s\n", key.c_str(), text.c_str());
  fflush(stdout);
}

void PrintResult(const RunResult& result) {
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); i++) {
    const Metric& m = result.metrics[i];
    if (i > 0) line += ", ";
    // %.17g keeps every digit the double carries; JSON has no NaN, so a
    // metric that could not be measured is reported as -1 and the run is
    // failed by the caller.
    double v = std::isfinite(m.value) ? m.value : -1;
    line += Fmt("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", m.name.c_str(),
                v, m.unit.c_str());
  }
  line += "}}";
  fprintf(stdout, "%s\n", line.c_str());
  fflush(stdout);
}

std::string Fmt(const char* format, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, format);
  vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  return buf;
}

sebdb::Status RepeatSetup(int n, const std::function<sebdb::Status()>& setup,
                          const std::function<void()>& teardown,
                          double* median_seconds) {
  std::vector<double> seconds;
  for (int i = 0; i < n; i++) {
    double t0 = NowSeconds();
    sebdb::Status s = setup();
    if (!s.ok()) return s;
    seconds.push_back(NowSeconds() - t0);
    if (i + 1 < n) teardown();
  }
  std::sort(seconds.begin(), seconds.end());
  *median_seconds = seconds[seconds.size() / 2];
  return sebdb::Status::OK();
}

}  // namespace perfbench
