// Fixture: a source file the lint pass must accept — canonical include,
// documented fault point, a reasoned suppression, cli-free output.
#include "clean.h"

#include "util/check.h"
#include "util/fault_injection.h"
#include "util/thread_annotations.h"

int FixtureCleanUse() {
  // kvec-lint: allow-next(naked-new) exercising the suppression syntax
  int* p = new int(9);
  KVEC_CHECK(p != nullptr);
  bool failed = KVEC_FAULT_POINT("checkpoint.save");
  int value = failed ? 0 : *p;
  // kvec-lint: allow-next(naked-new) exercising the suppression syntax
  delete p;
  return value + FixtureClean();
}

// kvec-lint: allow-next(tsa-escape) exercising the suppression syntax
int FixtureCleanEscape() KVEC_NO_THREAD_SAFETY_ANALYSIS;
