// EXPECT: requires holding shared_mutex 'mutex_' exclusively
//
// Mutating through a reader (shared) hold — the "checkpoint path
// quietly started writing" shape that VDB_GUARDED_BY on a SharedMutex
// guards against. A ReaderLock licenses reads only; writes need the
// exclusive WriterLock. Must be rejected.
#include "core/sync.h"

class Table {
 public:
  long Size() const {
    vdb::ReaderLock lock(mutex_);
    return size_;
  }
  // BUG: writes size_ under a shared hold.
  void Grow() {
    vdb::ReaderLock lock(mutex_);
    ++size_;
  }

 private:
  mutable vdb::SharedMutex mutex_;
  long size_ VDB_GUARDED_BY(mutex_) = 0;
};

int main() {
  Table t;
  t.Grow();
  return static_cast<int>(t.Size());
}
