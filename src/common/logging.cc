#include "common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace dbg4eth {

namespace {

/// Serializes line emission so messages from concurrent worker threads
/// (serving pool, bench client threads) never shear mid-line. The full
/// line, newline included, goes out in a single fputs under this lock.
std::mutex& EmitMutex() {
  static std::mutex m;
  return m;
}

void EmitLine(std::string line) {
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(EmitMutex());
  std::fputs(line.c_str(), stderr);
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) {
  stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() { EmitLine(stream_.str()); }

FatalLogMessage::FatalLogMessage(const char* file, int line,
                                 const char* condition) {
  stream_ << "[FATAL " << file << ":" << line << "] Check failed: "
          << condition << " ";
}

FatalLogMessage::~FatalLogMessage() {
  EmitLine(stream_.str());
  std::abort();
}

}  // namespace internal

}  // namespace dbg4eth
