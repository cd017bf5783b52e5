#include "calibrate.h"

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

namespace perfbench {

namespace {

double ThreadCpuUs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

// The kinds of work a statement does: page copies, number formatting,
// sorting and hashing short strings, small allocations.
uint64_t Kernel(std::vector<uint8_t>* pages, std::vector<std::string>* words) {
  uint64_t sink = 0;
  for (int round = 0; round < 2; ++round) {
    std::memmove(pages->data() + 4096, pages->data(), pages->size() - 4096);
    words->clear();
    char buf[32];
    for (int i = 0; i < 1000; ++i) {
      std::snprintf(buf, sizeof(buf), "%02d/%02d/%04d, UC", i % 12 + 1,
                    (i * 7) % 28 + 1, 1990 + (i * 7919 + round) % 30);
      words->emplace_back(buf);
    }
    std::sort(words->begin(), words->end());
    for (const std::string& w : *words) sink += std::hash<std::string>()(w);
    sink += (*pages)[sink % pages->size()];
  }
  return sink;
}

}  // namespace

Calibrator::Calibrator() : thread_([this] { Loop(); }) {}

Calibrator::~Calibrator() {
  stop_.store(true);
  thread_.join();
}

void Calibrator::Loop() {
  std::vector<uint8_t> pages(64 * 4096, 1);
  std::vector<std::string> words;
  uint64_t sink = 0;
  while (!stop_.load()) {
    const Clock::time_point at = Clock::now();
    const double start = ThreadCpuUs();
    sink += Kernel(&pages, &words);
    const double us = ThreadCpuUs() - start;
    {
      std::lock_guard<std::mutex> lock(mu_);
      samples_.emplace_back(at, us);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  pages[0] = static_cast<uint8_t>(sink);  // keeps the kernel's work alive
}

double Calibrator::KernelUs(Clock::time_point from,
                            Clock::time_point to) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> in;
  for (const auto& [at, us] : samples_) {
    if (at >= from && at < to) in.push_back(us);
  }
  if (in.empty()) {
    if (samples_.empty()) return kReferenceUs;
    auto nearest = std::min_element(
        samples_.begin(), samples_.end(), [&](const auto& a, const auto& b) {
          return std::chrono::abs(a.first - from) <
                 std::chrono::abs(b.first - from);
        });
    return nearest->second;
  }
  std::nth_element(in.begin(), in.begin() + in.size() / 2, in.end());
  return in[in.size() / 2];
}

}  // namespace perfbench
