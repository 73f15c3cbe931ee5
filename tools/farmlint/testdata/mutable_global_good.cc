// Fixture: constants, per-thread state, functions, members and types are
// not mutable globals.
#include <algorithm>
#include <ranges>
#include <string>
#include <vector>

namespace demo {

constexpr int kLimit = 4;
inline constexpr int kInline{3};
const char* const kNames[] = {"a", "b"};
const std::vector<const char*> kOrder = {"x", "y"};
const std::string kGreeting = "hi";
thread_local int t_depth = 0;
constexpr int kTable[] = {0, 1, 2};
static_assert(std::ranges::all_of(std::views::iota(0, 3), [](int i) { return kTable[i] == i; }), "order");

int Add(int a, int b);
std::vector<int> Range(int n);
bool operator<(const std::string& a, int b);
using Names = std::vector<std::string>;
enum class Color { kRed, kBlue };
template <typename T>
T Identity(T v) {
  return v;
}

struct Options {
  int width = 0;
};

class Point {
 public:
  Point() : Point(Options{}) {}
  explicit Point(Options o) : x_(o.width), y_{0} {}
  static constexpr int kDims = 2;
  static const int kOrigin;
  static int Count();
  static Point* Make() { return nullptr; }

 private:
  int x_;
  int y_;
};

std::string Suffixed(const std::string& s) {
  static const std::string kSuffix = "!";
  static constexpr int kTimes = 1;
  static thread_local int calls = 0;
  calls += kTimes;
  return s + kSuffix;
}

}  // namespace demo
