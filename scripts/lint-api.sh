#!/bin/sh
# lint-api.sh — fail CI when cmd/ or examples/ bypass the facade's engine
# specs to reach the protocol baselines.
#
# Two gates, both greps (no linter dependency, runs anywhere a POSIX shell
# does):
#
#   1. The synchronous round loops (protocols.RunPbcast, RunAntiEntropy,
#      RunLRG, RunFlooding) are the loss-free fast path of the protocol
#      ablation in internal/experiment, not a public execution path: cmd/
#      and examples/ must reach the baselines through the engine specs
#      (Pbcast, ..., Flooding, Compare), which run on the sim kernel +
#      simnet substrate. (The RDG and lpbcast loops exist only in
#      internal/protocols' tests, so the compiler keeps them out.)
#   2. Importing internal/protocols from cmd/ or examples/ is blocked for
#      the same reason — the facade specs are the only supported protocol
#      surface. (Other internal imports — the sim/simnet substrate the
#      node demos build on — stay allowed.)
set -eu
cd "$(dirname "$0")/.."

legacy_loops='RunPbcast|RunAntiEntropy|RunLRG|RunFlooding'

for dir in cmd examples; do
    if [ ! -d "$dir" ]; then
        echo "api-lint: directory $dir/ not found; the gate has nothing to scan" >&2
        exit 2
    fi
done

# scan PATTERN LABEL HINT — grep exits 0 on match, 1 on no match, >=2 on
# error. Only 1 means clean; a hard error (unreadable tree, bad pattern)
# must fail the gate, not pass it.
scan() {
    rc=0
    hits=$(grep -rnE "$1" cmd examples) || rc=$?
    case $rc in
    0)
        echo "api-lint: $2:" >&2
        echo "$hits" >&2
        echo "api-lint: $3" >&2
        exit 1
        ;;
    1) ;;
    *)
        echo "api-lint: grep failed with exit status $rc" >&2
        exit "$rc"
        ;;
    esac
}

scan "($legacy_loops)\(" \
    "legacy round-loop entry points referenced" \
    "the round loops are an internal fast path; use the engine specs (gossipkit.Pbcast, ..., gossipkit.Compare)"
scan "\"gossipkit/internal/protocols\"" \
    "internal/protocols imported" \
    "reach the baselines through the facade engine specs (gossipkit.Pbcast, ..., gossipkit.Compare)"

echo "api-lint: cmd/ and examples/ are clean (no round loops or protocols imports)"
