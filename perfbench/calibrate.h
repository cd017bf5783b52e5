// Machine-speed calibration. A shared virtual machine's speed drifts with
// its neighbours' load: on a 4-vCPU cloud VM a fixed CPU loop ran 1.5x
// slower at one moment than a minute later, and the benchmark's unscaled
// throughput moved with it. A background thread therefore runs a fixed
// kernel every 20 ms for the whole run and records the CPU time it took,
// and the benchmark scales each timing by the kernel's time over the same
// span, so a slow stretch of the machine slows the kernel and the program
// alike and cancels out. The kernel shares the process and the machine
// with the workload; the run also times it alone afterwards, and
// perfbench/README.md gives how far the workload moves it.
#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

class Calibrator {
 public:
  using Clock = std::chrono::steady_clock;

  // The kernel time that timings are scaled to: a timing is reported as
  // it would read on a machine where one kernel run takes this long.
  static constexpr double kReferenceUs = 1000.0;

  Calibrator();
  ~Calibrator();

  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  // Median CPU time of the kernel runs that started in [from, to), in
  // microseconds; the nearest run when none did.
  double KernelUs(Clock::time_point from, Clock::time_point to) const;

  // How much slower than the reference the machine ran over [from, to).
  double Slowdown(Clock::time_point from, Clock::time_point to) const {
    return KernelUs(from, to) / kReferenceUs;
  }

 private:
  void Loop();

  mutable std::mutex mu_;
  std::vector<std::pair<Clock::time_point, double>> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: started after the members it uses
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
