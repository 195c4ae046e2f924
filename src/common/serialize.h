#ifndef DBG4ETH_COMMON_SERIALIZE_H_
#define DBG4ETH_COMMON_SERIALIZE_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace dbg4eth {

/// \brief Little binary writer for model checkpoints. All writes go
/// through explicit fixed-width encodings so checkpoints are portable
/// across builds.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream* os) : os_(os) {}

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v);
  void WriteDouble(double v);
  void WriteBool(bool v);
  void WriteString(const std::string& s);
  void WriteDoubleVector(const std::vector<double>& v);
  void WriteIntVector(const std::vector<int>& v);

  bool ok() const { return os_->good(); }

 private:
  std::ostream* os_;
};

/// \brief Matching reader; every accessor returns a Status so corrupt or
/// truncated checkpoints fail loudly instead of yielding garbage.
class BinaryReader {
 public:
  explicit BinaryReader(std::istream* is) : is_(is) {}

  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  Status ReadU32(uint32_t* v);
  Status ReadU64(uint64_t* v);
  Status ReadI32(int32_t* v);
  Status ReadDouble(double* v);
  Status ReadBool(bool* v);
  Status ReadString(std::string* s);
  Status ReadDoubleVector(std::vector<double>* v);
  Status ReadIntVector(std::vector<int>* v);

  /// Reads and verifies a tag string (section marker).
  Status ExpectTag(const std::string& tag);

  /// Largest layer width, and deepest layer stack, a checkpoint may
  /// declare for a model it restores. Trained models are far smaller; a
  /// larger value is corruption, and honouring it would allocate before the
  /// weights that disprove it are read.
  static constexpr int kMaxLayerWidth = 1024;
  static constexpr int kMaxLayers = 16;

 private:
  Status ReadBytes(void* out, size_t n);
  /// Reads a u32 element count, then that many elements in bounded steps.
  template <typename Container>
  Status ReadSized(Container* out);

  std::istream* is_;
};

}  // namespace dbg4eth

#endif  // DBG4ETH_COMMON_SERIALIZE_H_
