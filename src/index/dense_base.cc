#include "index/dense_base.h"

#include "storage/serializer.h"

namespace vdb {

void DenseIndexBase::SaveRows(BinaryWriter* w) const {
  w->Matrix(rows_.vectors());
  w->U64Vector(rows_.ids().labels());
  w->U32Vector(rows_.ids().DeletedRows());
}

Status DenseIndexBase::LoadRows(BinaryReader* r, const MetricSpec& spec) {
  VDB_ASSIGN_OR_RETURN(FloatMatrix data, r->Matrix());
  VDB_ASSIGN_OR_RETURN(std::vector<std::uint64_t> labels, r->U64Vector());
  if (labels.size() != data.rows()) {
    return Status::Corruption("labels/rows mismatch");
  }
  VDB_RETURN_IF_ERROR(InitBase(std::move(data), labels, spec));
  VDB_ASSIGN_OR_RETURN(std::vector<std::uint32_t> deleted, r->U32Vector());
  for (std::uint32_t idx : deleted) {
    if (idx >= TotalRows()) return Status::Corruption("bad tombstone");
    VDB_RETURN_IF_ERROR(rows_.DeleteRow(idx));
  }
  return Status::Ok();
}

}  // namespace vdb
