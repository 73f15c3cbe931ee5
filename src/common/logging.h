// Minimal leveled logging for the FaRM reproduction.
//
// Logging is synchronous and goes to stderr. The active level is a process
// global; benches set it to kWarn so timing loops are not perturbed.
#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace farm {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kNone = 4,
};

// Returns the mutable process-wide log level. Initialized from the
// FARM_LOG_LEVEL environment variable (debug|info|warn|error|none, or a
// digit 0-4) when set; defaults to kWarn.
LogLevel& GlobalLogLevel();

// Simulated-time tag for log lines, per thread. While a clock is installed
// (by the thread's one live Cluster), every line is prefixed with the
// simulated time in microseconds.
void SetLogClock(uint64_t (*now_ns)(void* ctx), void* ctx);
void ClearLogClock();

// Internal sink used by the LOG macro; do not call directly.
void LogMessage(LogLevel level, const char* file, int line, const std::string& msg);

// Tags every FARM_LOG line emitted while in scope with ` tx=tx<c,m,t,l>`, so
// log lines cross-reference flight-recorder dumps. Scopes nest (the inner
// transaction wins and the outer tag is restored on exit) and must not span
// a co_await: a suspended coroutine would leave its tag on whatever runs
// next. The id is passed unpacked so common/ does not depend on core's TxId.
class LogTxScope {
 public:
  LogTxScope(uint64_t config, uint32_t machine, uint32_t thread, uint64_t local);
  ~LogTxScope();
  LogTxScope(const LogTxScope&) = delete;
  LogTxScope& operator=(const LogTxScope&) = delete;

  // The innermost active scope's tx id rendered as "tx<c,m,t,l>", or empty
  // when no transaction is active (used by LogMessage and tests).
  static std::string CurrentTag();

 private:
  LogTxScope* prev_;
  uint64_t config_;
  uint32_t machine_;
  uint32_t thread_;
  uint64_t local_;
};

namespace log_internal {

class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line) : level_(level), file_(file), line_(line) {}
  ~LogLine() { LogMessage(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace log_internal

}  // namespace farm

#define FARM_LOG(level)                                        \
  if (::farm::LogLevel::k##level < ::farm::GlobalLogLevel()) { \
  } else                                                       \
    ::farm::log_internal::LogLine(::farm::LogLevel::k##level, __FILE__, __LINE__)

#define FARM_CHECK(cond)                                                            \
  if (cond) {                                                                       \
  } else                                                                            \
    ::farm::log_internal::FatalLine(__FILE__, __LINE__) << "CHECK failed: " << #cond \
                                                        << " "

namespace farm {
namespace log_internal {

class FatalLine {
 public:
  FatalLine(const char* file, int line) : file_(file), line_(line) {}
  [[noreturn]] ~FatalLine() {
    std::fprintf(stderr, "[FATAL] %s:%d %s\n", file_, line_, stream_.str().c_str());
    std::abort();
  }

  template <typename T>
  FatalLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace log_internal
}  // namespace farm

#endif  // SRC_COMMON_LOGGING_H_
