#include "index/dense_base.h"

#include "storage/serializer.h"

namespace vdb {

Status DenseIndexBase::LoadRows(BinaryReader* r, VectorStore* rows,
                                const MetricSpec& spec) {
  if (rows == nullptr) {
    VDB_RETURN_IF_ERROR(ReadRowBlock(r, &rows_));
  } else {
    rows_ = std::move(*rows);
  }
  if (rows_.total_rows() == 0) return Status::Corruption("no rows");
  VDB_ASSIGN_OR_RETURN(scorer_, Scorer::Create(spec, rows_.dim()));
  return Status::Ok();
}

}  // namespace vdb
