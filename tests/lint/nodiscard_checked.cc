// Positive control for the nodiscard compile-fail probe.
//
// The same calls as tests/lint/nodiscard_ignored.cc, with every result
// checked (or explicitly discarded through IgnoreStatus). The
// lint_nodiscard_compile_ok ctest compiles this file with the repo's flags
// and expects success, proving that the compile-fail probe fails for the
// right reason (ignored results) and not a broken include or flag.
#include <utility>

#include "src/common/serializer.h"
#include "src/common/status.h"
#include "src/obs/json.h"
#include "src/pastry/messages.h"
#include "src/storage/file_store.h"

namespace past {

int ChecksFallibleResults(Reader* r, FileStore* store, StoredFile file) {
  int failures = 0;
  uint8_t v;
  if (!r->U8(&v)) {
    ++failures;
  }
  if (store->Put(std::move(file)) != StatusCode::kOk) {
    ++failures;
  }
  IgnoreStatus(store->Sync());  // deliberate discard, spelled out
  JsonValue doc;
  if (!JsonValue::Parse("{}", &doc)) {
    ++failures;
  }
  RouteMsg msg;
  if (!Read(r, &msg)) {
    ++failures;
  }
  return failures;
}

}  // namespace past
