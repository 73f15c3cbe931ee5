#include "src/common/logging.h"

#include <cstring>

namespace farm {

namespace {

LogLevel LevelFromEnv() {
  const char* env = std::getenv("FARM_LOG_LEVEL");
  if (env == nullptr || env[0] == '\0') {
    return LogLevel::kWarn;
  }
  if (env[0] >= '0' && env[0] <= '4' && env[1] == '\0') {
    return static_cast<LogLevel>(env[0] - '0');
  }
  auto matches = [env](const char* name) {
    for (int i = 0;; i++) {
      char a = env[i];
      char b = name[i];
      if (a >= 'A' && a <= 'Z') {
        a = static_cast<char>(a - 'A' + 'a');
      }
      if (a != b) {
        return false;
      }
      if (a == '\0') {
        return true;
      }
    }
  };
  if (matches("debug")) return LogLevel::kDebug;
  if (matches("info")) return LogLevel::kInfo;
  if (matches("warn")) return LogLevel::kWarn;
  if (matches("error")) return LogLevel::kError;
  if (matches("none")) return LogLevel::kNone;
  std::fprintf(stderr, "[WARN] logging.cc:0 unrecognized FARM_LOG_LEVEL '%s', using warn\n", env);
  return LogLevel::kWarn;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kNone:
      return "NONE";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

struct LogClock {
  uint64_t (*now_ns)(void* ctx) = nullptr;
  void* ctx = nullptr;
};

// Per thread, like the Cluster that installs it (at most one live per
// thread).
LogClock& Clock() {
  static thread_local LogClock clock;
  return clock;
}

thread_local LogTxScope* g_current_tx_scope = nullptr;

}  // namespace

LogLevel& GlobalLogLevel() {
  // farmlint: allow(mutable-global): read once from FARM_LOG_LEVEL; tests may set it
  static LogLevel level = LevelFromEnv();
  return level;
}

void SetLogClock(uint64_t (*now_ns)(void* ctx), void* ctx) { Clock() = LogClock{now_ns, ctx}; }

void ClearLogClock() { Clock() = LogClock{}; }

LogTxScope::LogTxScope(uint64_t config, uint32_t machine, uint32_t thread, uint64_t local)
    : prev_(g_current_tx_scope),
      config_(config),
      machine_(machine),
      thread_(thread),
      local_(local) {
  g_current_tx_scope = this;
}

LogTxScope::~LogTxScope() { g_current_tx_scope = prev_; }

std::string LogTxScope::CurrentTag() {
  const LogTxScope* s = g_current_tx_scope;
  if (s == nullptr) {
    return std::string();
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "tx<%llu,%u,%u,%llu>",
                static_cast<unsigned long long>(s->config_), s->machine_, s->thread_,
                static_cast<unsigned long long>(s->local_));
  return buf;
}

void LogMessage(LogLevel level, const char* file, int line, const std::string& msg) {
  const LogClock& clock = Clock();
  std::string tag = LogTxScope::CurrentTag();
  const char* tx_sep = tag.empty() ? "" : " tx=";
  if (clock.now_ns != nullptr) {
    uint64_t ns = clock.now_ns(clock.ctx);
    std::fprintf(stderr, "[%s] t=%llu.%03lluus %s:%d %s%s%s\n", LevelName(level),
                 static_cast<unsigned long long>(ns / 1000),
                 static_cast<unsigned long long>(ns % 1000), Basename(file), line, msg.c_str(),
                 tx_sep, tag.c_str());
  } else {
    std::fprintf(stderr, "[%s] %s:%d %s%s%s\n", LevelName(level), Basename(file), line,
                 msg.c_str(), tx_sep, tag.c_str());
  }
}

}  // namespace farm
