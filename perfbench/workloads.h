// The benchmark workloads. Each builds its inputs from the seed,
// drives the library through its public surfaces, checks every answer and
// fills a Report: end-to-end metrics when untraced, per-layer metrics when
// traced (--trace 1 is a separate invocation).
#ifndef VDB_PERFBENCH_WORKLOADS_H_
#define VDB_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// serve-filtered: IVF-Flat, predicated SQL over the wire.
Report RunServeFiltered(const Args& args);
/// disk-ann: DiskANN with a small page cache, one embedded caller.
Report RunDiskAnn(const Args& args);

/// Kernel timings shared by the traced runs: ns per simd::L2Sq call and
/// per row of simd::L2SqBatchGather at `dim`, over rows of `data`.
void MeasureCoreKernels(const vdb::FloatMatrix& data, Report* report,
                        double* l2_ns);

}  // namespace perfbench

#endif  // VDB_PERFBENCH_WORKLOADS_H_
