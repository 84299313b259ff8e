// json_check — validates a BENCH_*.json document.
//
//   json_check <file> [required/key/path ...] [--le path value ...]
//              [--ge path value ...]
//
// Parses the file with the same JSON implementation the exporters use (so a
// round-trip failure is caught either way) and then checks that each
// '/'-separated key path resolves. Metric names contain dots, hence the '/'
// separator: e.g. "metrics/counters/net.sent". A path step into an array is
// an index ("results/reboot/0") or `*`, which stands for every element
// ("results/epochs/*/availability"); a path that reaches no value at all is
// missing. Each --le triple additionally asserts that every value the path
// reaches is a number <= `value`, and each --ge triple that it is >= `value`
// — the scale gate bounds the bytes-per-node budget this way, and the smoke
// gates hold the paper's availability and recovery claims. Exits non-zero
// with a message on parse failure, a missing path, or a violated bound; used
// by the bench_smoke, scale and exp smoke ctests.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json.h"

namespace {

// Every value `path` reaches from `node`, in document order.
void Resolve(const past::JsonValue& node, std::string_view path,
             std::vector<const past::JsonValue*>* out) {
  if (path.empty()) {
    out->push_back(&node);
    return;
  }
  const size_t slash = path.find('/');
  const std::string_view head = path.substr(0, slash);
  const std::string_view rest =
      slash == std::string_view::npos ? std::string_view() : path.substr(slash + 1);
  if (node.is_array()) {
    if (head == "*") {
      for (const past::JsonValue& item : node.items()) {
        Resolve(item, rest, out);
      }
      return;
    }
    if (head.empty() || head.find_first_not_of("0123456789") != std::string_view::npos) {
      return;
    }
    const size_t index = std::strtoull(std::string(head).c_str(), nullptr, 10);
    if (index < node.size()) {
      Resolve(node.at(index), rest, out);
    }
    return;
  }
  if (const past::JsonValue* member = node.Find(head)) {
    Resolve(*member, rest, out);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <file> [required/key/path ...] [--le path value ...] "
                 "[--ge path value ...]\n",
                 argv[0]);
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "json_check: cannot open %s\n", argv[1]);
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  past::JsonValue root;
  if (!past::JsonValue::Parse(text, &root)) {
    std::fprintf(stderr, "json_check: %s is not valid JSON\n", argv[1]);
    return 1;
  }
  int failures = 0;
  int checked = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool le = arg == "--le";
    const bool ge = arg == "--ge";
    if ((le || ge) && i + 2 >= argc) {
      std::fprintf(stderr, "json_check: %s needs <path> <value>\n", arg.c_str());
      return 2;
    }
    const char* path = le || ge ? argv[++i] : argv[i];
    const double bound = le || ge ? std::atof(argv[++i]) : 0.0;
    ++checked;
    std::vector<const past::JsonValue*> values;
    Resolve(root, path, &values);
    if (values.empty()) {
      std::fprintf(stderr, "json_check: missing key path %s\n", path);
      ++failures;
      continue;
    }
    if (!le && !ge) {
      continue;
    }
    for (const past::JsonValue* v : values) {
      if (!v->is_number()) {
        std::fprintf(stderr, "json_check: %s is not a number\n", path);
        ++failures;
      } else if (le && v->AsDouble() > bound) {
        std::fprintf(stderr, "json_check: %s = %g exceeds bound %g\n", path,
                     v->AsDouble(), bound);
        ++failures;
      } else if (ge && v->AsDouble() < bound) {
        std::fprintf(stderr, "json_check: %s = %g is below bound %g\n", path,
                     v->AsDouble(), bound);
        ++failures;
      }
    }
  }
  if (failures == 0) {
    std::printf("json_check: %s ok (%d check%s)\n", argv[1], checked,
                checked == 1 ? "" : "s");
  }
  return failures == 0 ? 0 : 1;
}
