#!/usr/bin/env bash
# Tier-1 verify with warnings on: configure, build, ctest, then print the
# src/ line count.
# Usage: scripts/check.sh [--asan|--tsan|--socket] [extra cmake args...]
#   --asan    build and test under ASan+UBSan (its own build dir), so the
#             concurrent multi-TC / channel paths are sanitizer-checked.
#   --tsan    build and test under ThreadSanitizer (its own build dir) —
#             the scan-stream credit/cursor machinery, server threads and
#             resend daemons are data-race-checked end to end.
#   --socket  ASan+UBSan build of just the real-network arm: the frame
#             codec, the shared TC:DC message server and wire client
#             (dc_wire_test), the loopback-TCP cluster tests, the
#             redo-shipping / failover suites (dc_replication_test, and
#             redo_shipper_test with its in-process socket standby), and
#             the separate-process daemons (untx_tcd/untx_dcd SIGKILL'd,
#             promoted and recovered by process_cluster_test).
set -euo pipefail
cd "$(dirname "$0")/.."

CTEST_FILTER=()
CXX_FLAGS="-Wall -Wextra"
LINK_FLAGS=""
if [[ "${1:-}" == "--socket" ]]; then
  shift
  BUILD_DIR="${BUILD_DIR:-build-socket}"
  SAN="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  CXX_FLAGS="$CXX_FLAGS $SAN"
  LINK_FLAGS="$SAN"
  CTEST_FILTER=(-R 'frame_codec_test|dc_wire_test|socket_transport_test|process_cluster_test|dc_replication_test|redo_shipper_test')
elif [[ "${1:-}" == "--asan" ]]; then
  shift
  BUILD_DIR="${BUILD_DIR:-build-asan}"
  SAN="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  CXX_FLAGS="$CXX_FLAGS $SAN"
  LINK_FLAGS="$SAN"
elif [[ "${1:-}" == "--tsan" ]]; then
  shift
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  SAN="-fsanitize=thread -fno-omit-frame-pointer -O1 -g"
  CXX_FLAGS="$CXX_FLAGS $SAN"
  LINK_FLAGS="-fsanitize=thread"
else
  BUILD_DIR="${BUILD_DIR:-build-check}"
fi

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_CXX_FLAGS="$CXX_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$LINK_FLAGS" \
  "$@"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  ${CTEST_FILTER[@]+"${CTEST_FILTER[@]}"}
# The kernel's size is a tracked number (ROADMAP): report it on success.
echo "src/ lines (.h + .cc): $(find src \( -name '*.h' -o -name '*.cc' \) -exec cat {} + | wc -l)"
