#!/bin/sh
# Builds the whole tree under AddressSanitizer and runs every test
# binary, as CLAUDE.md prescribes whenever coroutine call paths change
# (GCC 12 coroutine miscompiles surface as double-frees that only ASan
# sees). Exits nonzero if anything fails to build or any test fails.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

cmake -B build-asan -G Ninja -DCMAKE_CXX_FLAGS="-fsanitize=address -g"
cmake --build build-asan

failures=0
for t in build-asan/tests/*_test; do
  if "$t" >/dev/null 2>&1; then
    echo "PASS: $t"
  else
    echo "FAIL: $t"
    failures=$((failures + 1))
  fi
done

# The labelled slices again via ctest, case by case: an ASan report in
# one parameterized case is pinpointed here instead of vanishing into a
# whole-binary FAIL above.
#   wire      packet tap + Section 4.2 auditor (capture decoding).
#   chaos_rt  FaultFabric delayed-copy and reorder-hold callbacks, run
#             through coroutine frames on the simulated and real
#             executors — the call-path shape the GCC 12 coroutine
#             hazard above strikes.
#   apps      replfs end-to-end tests + demo: coroutine-heavy client and
#             server code over generated stubs, ordered broadcast and the
#             commit protocol.
#   obs       the latency attributor buffers whole event streams per
#             pending call while coroutine protocol code publishes into
#             it; a use-after-free in that handoff shows up here.
#   tools     the circus subcommands, run as child processes (built with
#             ASan too) on a sim run's shards and capture, plus the
#             introspection client against live UDP sockets.
#   executor  the executor's slot vector (a cancelled or run event's slot
#             is reused under a new generation; a stale id must never
#             reach the new callback) and the rt loop and fabric that
#             pump it, including the batched recvmmsg drain.
#   msg       the paired-message send loop and the per-member call legs:
#             sender state lives by value in map nodes that suspended
#             SendMessage coroutines reference across co_await, so an
#             entry erased or replaced under a live sender is a
#             use-after-free.
for label in wire chaos_rt apps obs tools executor msg; do
  if ! ctest --test-dir build-asan -L "$label" --output-on-failure \
      >/dev/null; then
    echo "FAIL: ctest -L $label under ASan"
    failures=$((failures + 1))
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "check_asan: $failures test binary(ies) failed" >&2
  exit 1
fi
echo "check_asan: all test binaries clean under ASan (incl. ctest -L wire/chaos_rt/apps/obs/tools/executor/msg)"
