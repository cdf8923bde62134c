#include "quant/pq.h"

#include <algorithm>
#include <limits>

#include "core/kmeans.h"
#include "core/simd.h"
#include "storage/serializer.h"

namespace vdb {

std::string ProductQuantizer::Name() const {
  return "pq" + std::to_string(opts_.m) + "x" + std::to_string(opts_.nbits);
}

Status ProductQuantizer::Train(const FloatMatrix& data) {
  if (data.empty()) return Status::InvalidArgument("pq: empty training data");
  if (opts_.m == 0 || data.cols() % opts_.m != 0) {
    return Status::InvalidArgument("pq: m must divide dim");
  }
  if (opts_.nbits == 0 || opts_.nbits > 8) {
    return Status::InvalidArgument("pq: nbits must be in [1,8]");
  }
  dim_ = data.cols();
  dsub_ = dim_ / opts_.m;
  ksub_ = std::size_t{1} << opts_.nbits;

  codebooks_ = FloatMatrix(opts_.m * ksub_, dsub_);
  FloatMatrix sub(data.rows(), dsub_);
  for (std::size_t s = 0; s < opts_.m; ++s) {
    for (std::size_t i = 0; i < data.rows(); ++i) {
      std::copy_n(data.row(i) + s * dsub_, dsub_, sub.row(i));
    }
    KMeansOptions km;
    km.k = ksub_;
    km.max_iters = opts_.train_iters;
    km.seed = opts_.seed + s;
    VDB_ASSIGN_OR_RETURN(KMeansResult result, KMeans(sub, km));
    // If n < ksub the clamped centroid count is duplicated to fill the
    // codebook so codes stay valid.
    for (std::size_t c = 0; c < ksub_; ++c) {
      std::size_t src = c % result.centroids.rows();
      std::copy_n(result.centroids.row(src), dsub_,
                  codebooks_.row(s * ksub_ + c));
    }
  }
  return Status::Ok();
}

void ProductQuantizer::Encode(const float* x, std::uint8_t* code) const {
  float dist[256];  // ksub_ <= 2^8
  for (std::size_t s = 0; s < opts_.m; ++s) {
    simd::L2SqBatch(x + s * dsub_, Centroid(s, 0), dsub_, ksub_, dist);
    simd::ArgMinResult nearest = simd::ArgMin(dist, ksub_);
    // Only distances below FLT_MAX may win, as in the scalar loop this
    // replaced; ArgMin's bar is +inf, one float above it.
    code[s] = static_cast<std::uint8_t>(
        nearest.best < std::numeric_limits<float>::max() ? nearest.arg : 0);
  }
}

void ProductQuantizer::Decode(const std::uint8_t* code, float* x) const {
  for (std::size_t s = 0; s < opts_.m; ++s) {
    std::copy_n(Centroid(s, code[s]), dsub_, x + s * dsub_);
  }
}

void ProductQuantizer::ComputeAdcTables(const float* query,
                                        float* tables) const {
  for (std::size_t s = 0; s < opts_.m; ++s) {
    simd::L2SqBatch(query + s * dsub_, Centroid(s, 0), dsub_, ksub_,
                    tables + s * ksub_);
  }
}

float ProductQuantizer::AdcDistance(const float* tables,
                                    const std::uint8_t* code) const {
  return simd::AdcLookup(tables, code, opts_.m, ksub_);
}

void ProductQuantizer::SaveTo(BinaryWriter* writer) const {
  writer->U64(opts_.m);
  writer->U64(opts_.nbits);
  writer->U32(static_cast<std::uint32_t>(opts_.train_iters));
  writer->U64(opts_.seed);
  writer->U64(dim_);
  writer->Matrix(codebooks_);
}

Status ProductQuantizer::LoadFrom(BinaryReader* reader) {
  VDB_ASSIGN_OR_RETURN(opts_.m, reader->U64());
  VDB_ASSIGN_OR_RETURN(opts_.nbits, reader->U64());
  VDB_ASSIGN_OR_RETURN(std::uint32_t iters, reader->U32());
  opts_.train_iters = static_cast<int>(iters);
  VDB_ASSIGN_OR_RETURN(opts_.seed, reader->U64());
  VDB_ASSIGN_OR_RETURN(dim_, reader->U64());
  if (opts_.m == 0 || opts_.nbits == 0 || opts_.nbits > 8 || dim_ == 0 ||
      dim_ % opts_.m != 0) {
    return Status::Corruption("bad pq parameters");
  }
  dsub_ = dim_ / opts_.m;
  ksub_ = std::size_t{1} << opts_.nbits;
  VDB_ASSIGN_OR_RETURN(codebooks_, reader->Matrix());
  if (codebooks_.rows() != opts_.m * ksub_ || codebooks_.cols() != dsub_) {
    return Status::Corruption("bad pq codebook shape");
  }
  return Status::Ok();
}

float ProductQuantizer::SdcDistance(const std::uint8_t* a,
                                    const std::uint8_t* b) const {
  // Each term scores the lower-numbered centroid against the higher one,
  // the pair order of the m x ksub x ksub table this replaces, so the sum
  // is bit-identical to that table's.
  float acc = 0.0f;
  for (std::size_t s = 0; s < opts_.m; ++s) {
    if (a[s] == b[s]) continue;  // zero diagonal
    float d;
    simd::L2SqBatch(Centroid(s, std::min(a[s], b[s])),
                    Centroid(s, std::max(a[s], b[s])), dsub_, 1, &d);
    acc += d;
  }
  return acc;
}

}  // namespace vdb
