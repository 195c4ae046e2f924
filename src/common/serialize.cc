#include "common/serialize.h"

#include <algorithm>
#include <cstring>

namespace dbg4eth {

namespace {

constexpr size_t kMaxVectorSize = 1u << 28;  // Corruption guard.
/// Elements a sized read allocates at a time, so a corrupt length runs out
/// of stream instead of allocating its whole declared size up front.
constexpr size_t kReadStep = 1u << 16;

}  // namespace

void BinaryWriter::WriteU32(uint32_t v) {
  os_->write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void BinaryWriter::WriteU64(uint64_t v) {
  os_->write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void BinaryWriter::WriteI32(int32_t v) {
  os_->write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void BinaryWriter::WriteDouble(double v) {
  os_->write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void BinaryWriter::WriteBool(bool v) {
  const uint8_t byte = v ? 1 : 0;
  os_->write(reinterpret_cast<const char*>(&byte), 1);
}

void BinaryWriter::WriteString(const std::string& s) {
  WriteU32(static_cast<uint32_t>(s.size()));
  os_->write(s.data(), static_cast<std::streamsize>(s.size()));
}

void BinaryWriter::WriteDoubleVector(const std::vector<double>& v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  os_->write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(double)));
}

void BinaryWriter::WriteIntVector(const std::vector<int>& v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  for (int x : v) WriteI32(x);
}

Status BinaryReader::ReadBytes(void* out, size_t n) {
  is_->read(reinterpret_cast<char*>(out),
            static_cast<std::streamsize>(n));
  if (!is_->good() &&
      !(is_->eof() && static_cast<size_t>(is_->gcount()) == n)) {
    return Status::Internal("truncated or unreadable checkpoint");
  }
  return Status::OK();
}

Status BinaryReader::ReadU32(uint32_t* v) { return ReadBytes(v, sizeof(*v)); }
Status BinaryReader::ReadU64(uint64_t* v) { return ReadBytes(v, sizeof(*v)); }
Status BinaryReader::ReadI32(int32_t* v) { return ReadBytes(v, sizeof(*v)); }
Status BinaryReader::ReadDouble(double* v) { return ReadBytes(v, sizeof(*v)); }

Status BinaryReader::ReadBool(bool* v) {
  uint8_t byte = 0;
  DBG4ETH_RETURN_NOT_OK(ReadBytes(&byte, 1));
  *v = byte != 0;
  return Status::OK();
}

template <typename Container>
Status BinaryReader::ReadSized(Container* out) {
  uint32_t size = 0;
  DBG4ETH_RETURN_NOT_OK(ReadU32(&size));
  if (size > kMaxVectorSize) {
    return Status::Internal("corrupt checkpoint: oversized array");
  }
  out->clear();
  while (out->size() < size) {
    const size_t begin = out->size();
    const size_t n = std::min<size_t>(kReadStep, size - begin);
    out->resize(begin + n);
    DBG4ETH_RETURN_NOT_OK(
        ReadBytes(out->data() + begin, n * sizeof(out->front())));
  }
  return Status::OK();
}

Status BinaryReader::ReadString(std::string* s) {
  return ReadSized(s);
}

Status BinaryReader::ReadDoubleVector(std::vector<double>* v) {
  return ReadSized(v);
}

Status BinaryReader::ReadIntVector(std::vector<int>* v) {
  // Elements travel as int32_t, which is what `int` is on every target.
  static_assert(sizeof(int) == sizeof(int32_t));
  return ReadSized(v);
}

Status BinaryReader::ExpectTag(const std::string& tag) {
  std::string found;
  DBG4ETH_RETURN_NOT_OK(ReadString(&found));
  if (found != tag) {
    return Status::Internal("checkpoint section mismatch: expected '" + tag +
                            "', found '" + found + "'");
  }
  return Status::OK();
}

}  // namespace dbg4eth
