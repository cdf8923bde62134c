#include <cstdint>
#include <vector>

#include "core/simd.h"
#include "workloads.h"

namespace perfbench {

void MeasureCoreKernels(const vdb::FloatMatrix& data, Report* report,
                        double* l2_ns) {
  const std::size_t dim = data.cols();
  const std::size_t n = data.rows();
  const float* q = data.row(n / 2);
  Rng rng(n);
  std::vector<std::uint32_t> ids(4096);
  for (auto& id : ids) id = static_cast<std::uint32_t>(rng() % n);

  // Median of several timed blocks, each over rows spread through the
  // data set so the kernel reads memory as a search would.
  constexpr int kBlocks = 9;
  constexpr std::size_t kCalls = 1 << 16;
  std::vector<double> single, gather;
  volatile float sink = 0.0f;
  for (int b = 0; b < kBlocks; ++b) {
    float acc = 0.0f;
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kCalls; ++i) {
      acc += vdb::simd::L2Sq(q, data.row(ids[i % ids.size()]), dim);
    }
    single.push_back(Micros(t0, Clock::now()) * 1000.0 / kCalls);

    constexpr std::size_t kBatch = 16;
    float out[kBatch];
    t0 = Clock::now();
    for (std::size_t i = 0; i < kCalls / kBatch; ++i) {
      vdb::simd::L2SqBatchGather(q, data.data(), dim,
                                 ids.data() + (i * kBatch) % ids.size(),
                                 kBatch, out);
      acc += out[0];
    }
    gather.push_back(Micros(t0, Clock::now()) * 1000.0 / kCalls);
    sink = sink + acc;
  }
  *l2_ns = Median(single);
  report->Add("core.l2_ns", *l2_ns, "ns");
  report->Add("core.l2_gather_ns_per_row", Median(gather), "ns");
  report->Add("core.tier",
              static_cast<double>(vdb::simd::ActiveTier()), "tier");
}

}  // namespace perfbench
