// Fixture: mutable-global must flag process-wide mutable state (8 hits).
#include <string>
#include <vector>

namespace demo {

int g_counter = 0;                   // hit: namespace-scope variable
std::string g_path;                  // hit: no initializer
const char* g_name = "x";            // hit: a pointer to const is itself mutable
std::vector<const char*> g_names{};  // hit: brace-initialized

namespace {
double g_scale = 1.0;  // hit: an anonymous namespace is still process-wide
}  // namespace

int& Counter() {
  static int count = 0;  // hit: function-local static
  return count;
}

class Registry {
 public:
  static Registry* instance;      // hit: static data member
  static inline int next_id = 0;  // hit: static inline data member
};

}  // namespace demo
