#!/usr/bin/env bash
# Full verification: release build + tests + benches, then TSan and
# ASan/UBSan builds of the test suite. Mirrors what CI should run.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
# The build must stay warning-free: fail on any compiler warning.
cmake --build build 2>&1 | tee build/build.log
if grep -q "warning:" build/build.log; then
  echo "check.sh: the build printed warnings (build/build.log)" >&2
  exit 1
fi
ctest --test-dir build --output-on-failure
# The chunk reserve/publish/evict path and the pack-mode joins race the
# staging workers, so a lost quota release or a missed wake-up shows in
# only some runs: repeat the chunked-read suite and fail on any failure.
./build/tests/monarch_tests --gtest_filter='ChunkedReadTest.*' \
    --gtest_repeat=100 --gtest_brief=1
# Every file stages as chunk runs, so the failure ledger (retry cap,
# quarantine parking), the peer rung and churn repair (membership
# changes handing copies to the new owners' staging queues) race chunk
# claims too, a cluster must pull each dataset byte from the PFS once
# with look-ahead on or off, and an owner's cold read must claim before
# it reads so a peer's stage request joins it: repeat those suites and
# fail on any failure.
./build/tests/monarch_tests \
    --gtest_filter='ResilienceTest.*:ReadLadderTest.*:PeerCacheTest.*:ChurnIntegrationTest.*:MembershipTest.*:RestageTest.*:ClusterTest.LookaheadChangesNoBatchAndNoPfsByte:PeerJoinTest.OwnersColdReadClaimsFirstSoAPeerJoinsItsOneRead' \
    --gtest_repeat=20 --gtest_brief=1
# A peer run fetched whole at its first slice, or read ahead by
# look-ahead, is a per-node deposit: it must never serve another node or
# a different run, never leave the peer rung after a retraction, never
# be fetched twice by a reader racing its read-ahead, and never overrun
# the staging budget: repeat the peer-run suite (holder kills race the
# repair staging they trigger) and fail on any failure.
./build/tests/monarch_tests --gtest_filter='PeerRunTest.*' \
    --gtest_repeat=100 --gtest_brief=1
# A deposit (a staged run's verified bytes kept for its next reader, or
# a resident run read ahead) races the readers it serves, eviction,
# donations that push it out of the staging budget, and the drop paths:
# repeat the deposit suite and fail on any failure.
./build/tests/monarch_tests --gtest_filter='DepositTest.*' \
    --gtest_repeat=100 --gtest_brief=1

cmake -B build-tsan -G Ninja -DMONARCH_SANITIZE=thread \
      -DMONARCH_BUILD_BENCHMARKS=OFF -DMONARCH_BUILD_EXAMPLES=OFF
cmake --build build-tsan
# The observability, placement, staging-pipeline, resilience, peer-
# cache, churn, and checkpoint suites are the concurrency-critical ones:
# they assert the lock-free metrics hot path, the tracer's export-vs-
# writer race, the FairQueue staging queue (demand priority, promotion,
# in-flight gauge, buffer pool), the chunk drop path (evict,
# quarantine, cleanup, vanished) and the run schedule's clock and
# look-ahead window, the circuit-breaker state machine under
# concurrent readers, the cluster file directory's register/lookup/evict
# and membership-retraction races, repair copies claimed by stage
# entries on the membership thread, the checkpoint drain lane racing Save/Flush/
# recovery, and the packing tier's chunk-map claim/publish/evict races
# under concurrent readers, the read path's visit pins racing placement
# and eviction, and the QoS fair queue / bandwidth
# broker / rate limiter racing concurrent acquirers and waiters stay
# TSan-clean (docs/OBSERVABILITY.md,
# DESIGN.md "Failure model", "Cooperative peer cache", "Cluster failure
# model", "Checkpoint write-back", "Small-file packing & chunk
# staging").
./build-tsan/tests/monarch_tests \
    --gtest_filter='MetricsRegistry*:EventTracer*:DocCatalogue*:ConfigDoc*:PlacementHandler*:Eviction*:RunSchedule*:StagingPipeline*:Deposit*:BufferPool*:Monarch*:Resilience*:TierHealth*:Peer*:FileDirectory*:NetworkModel*:Cluster*:Churn*:Membership*:Restage*:Ckpt*:Checkpoint*:WriteAtFallback*:ReadPath*:ReadLadder*:Pack*:Chunk*:Qos*:FairQueue*:RateLimiter*'
# ... and the rest of the suite.
./build-tsan/tests/monarch_tests \
    --gtest_filter='-MetricsRegistry*:EventTracer*:DocCatalogue*:ConfigDoc*:PlacementHandler*:Eviction*:RunSchedule*:StagingPipeline*:Deposit*:BufferPool*:Monarch*:Resilience*:TierHealth*:Peer*:FileDirectory*:NetworkModel*:Cluster*:Churn*:Membership*:Restage*:Ckpt*:Checkpoint*:WriteAtFallback*:ReadPath*:ReadLadder*:Pack*:Chunk*:Qos*:FairQueue*:RateLimiter*'

cmake -B build-asan -G Ninja -DMONARCH_SANITIZE=address \
      -DMONARCH_BUILD_BENCHMARKS=OFF -DMONARCH_BUILD_EXAMPLES=OFF
cmake --build build-asan
./build-asan/tests/monarch_tests

echo "benches (quick pass):"
MONARCH_BENCH_RUNS=1 MONARCH_BENCH_SCALE=0.15 MONARCH_BENCH_EPOCHS=2 \
  bash -c 'for b in build/bench/*; do "$b"; done' > /dev/null
echo "ALL CHECKS PASSED"
