// Fixture: contract-side-effect.  A contract macro's condition is an
// unevaluated sizeof operand when contracts are compiled out, so a
// mutating or blocking call inside it silently disappears.

#include "util/assert.h"

void contracts(Handle& handle, Queue& queue, Lsq* lsq) {
  RINGCLU_EXPECTS(handle.wait() == Status::Done);       // finding
  RINGCLU_ASSERT(queue.pop_front() > 0);                // finding
  RINGCLU_ENSURES(lsq->allocate(1, true) < 8 &&
                  queue.empty());  // finding, on the line above

  // Read-only calls and names that merely start like a flagged member
  // are fine.
  RINGCLU_EXPECTS(queue.size() > 0 && !handle.waiting());
  RINGCLU_ASSERT(queue.next_free() >= 0 && queue.popped_total() == 0);

  // The fix: make the call, then check what it returned.
  const Status status = handle.wait();
  RINGCLU_EXPECTS(status == Status::Done);

  // ringclu-lint: allow(contract-side-effect: the test double's run() is pure)
  RINGCLU_ASSERT(queue.run() == 0);
}
