// wsqcheck-fixture: dest=src/exec/good_exec.cc expect=clean
namespace wsq {

Result<bool> Budgeted::NextImpl(Row* row) {
  if (!mem_.TryAdd(row->bytes())) {
    return Status::ResourceExhausted("row buffer over budget");
  }
  rows_.push_back(*row);
  return true;
}

}  // namespace wsq
