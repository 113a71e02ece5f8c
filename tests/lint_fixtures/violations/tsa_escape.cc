// Fixture: fires tsa-escape — the thread-safety escape hatch used outside
// src/util/thread_annotations.h without a reasoned suppression.
#include "util/mutex.h"
#include "util/thread_annotations.h"

struct FixtureGuarded {
  kvec::Mutex mutex;
  int value KVEC_GUARDED_BY(mutex) = 0;
};

int FixtureTsaEscape(FixtureGuarded& guarded) KVEC_NO_THREAD_SAFETY_ANALYSIS {
  return guarded.value;
}
