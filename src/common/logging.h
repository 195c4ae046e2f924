#ifndef DBG4ETH_COMMON_LOGGING_H_
#define DBG4ETH_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace dbg4eth {

enum class LogLevel { kInfo, kWarning, kError };

namespace internal {

/// Stream-style log line emitter; flushes to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

/// Fatal variant: aborts the process after flushing.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalLogMessage();

  template <typename T>
  FatalLogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal

#define DBG4ETH_LOG(level)                                            \
  ::dbg4eth::internal::LogMessage(::dbg4eth::LogLevel::k##level,      \
                                  __FILE__, __LINE__)

/// Always-on invariant check; aborts with a message when violated.
/// Used for programming errors (out-of-bounds indices, shape mismatches)
/// where continuing would corrupt results silently.
#define DBG4ETH_CHECK(condition)                                       \
  if (!(condition))                                                    \
  ::dbg4eth::internal::FatalLogMessage(__FILE__, __LINE__, #condition)

#define DBG4ETH_CHECK_EQ(a, b) DBG4ETH_CHECK((a) == (b))
#define DBG4ETH_CHECK_NE(a, b) DBG4ETH_CHECK((a) != (b))
#define DBG4ETH_CHECK_LT(a, b) DBG4ETH_CHECK((a) < (b))
#define DBG4ETH_CHECK_LE(a, b) DBG4ETH_CHECK((a) <= (b))
#define DBG4ETH_CHECK_GT(a, b) DBG4ETH_CHECK((a) > (b))
#define DBG4ETH_CHECK_GE(a, b) DBG4ETH_CHECK((a) >= (b))

}  // namespace dbg4eth

#endif  // DBG4ETH_COMMON_LOGGING_H_
