#!/bin/sh
# Byte-golden checks of the seeded bench smokes, registered as ctest
# cases in tests/CMakeLists.txt:
#
#   bench_goldens.sh CASE BENCH_DIR GOLDEN_DIR WORK_DIR
#
# CASE is smoke, kill-resume or upgrade (overload_storm), campaign
# (fault_campaign) or flags (overload_storm's flag validation). Every
# output must match a second run, the same run at --threads 1, and its
# tests/golden/ file, byte for byte.
set -eu
mode=$1 bench=$2 gold=$3 work=$4
rm -rf "$work"
mkdir -p "$work"
cd "$work"

fail() {
    echo "FAIL: $*" >&2
    exit 1
}
same() { cmp "$1" "$2" || fail "$2 differs from $1"; }

# storm TAG FLAG...: one smoke storm writing TAG.{report,timeline,
# metrics,link}.json.
storm() {
    tag=$1
    shift
    "$bench/overload_storm" --smoke "$@" --timeline "$tag.timeline.json" \
        --metrics "$tag.metrics.json" --link-timeline "$tag.link.json" \
        > "$tag.report.json" || fail "overload_storm $* exited $?"
}

# Storm A against storm B, output by output.
same_storm() {
    for out in report timeline metrics link; do
        same "$1.$out.json" "$2.$out.json"
    done
}

storm_goldens() {
    same "$gold/overload_storm_smoke_timeline.json" "$1.timeline.json"
    same "$gold/overload_storm_smoke_metrics.json" "$1.metrics.json"
    same "$gold/overload_storm_smoke_link_timeline.json" "$1.link.json"
}

# upgrade TAG FLAG...: one smoke storm with the live-upgrade sweep,
# writing TAG.up.json (the report) and TAG.up-timeline.json.
upgrade() {
    tag=$1
    shift
    "$bench/overload_storm" --smoke --upgrade "$@" \
        --upgrade-timeline "$tag.up-timeline.json" > "$tag.up.json" ||
        fail "overload_storm --upgrade $* exited $?"
    same "$gold/overload_storm_upgrade_smoke.json" "$tag.up.json"
    same "$gold/overload_storm_upgrade_smoke_timeline.json" \
        "$tag.up-timeline.json"
}

# The --threads 4 upgrade storm against the --threads 1 one.
same_upgrade() {
    same t4.up.json t1.up.json
    same t4.up-timeline.json t1.up-timeline.json
}

case $mode in
smoke)
    storm a --threads 4
    storm b --threads 4
    storm t1 --threads 1
    same_storm a b
    same_storm a t1
    storm_goldens a
    ;;
kill-resume)
    # A killed-and-resumed serving node must be bitwise
    # indistinguishable from one that never died, in every sweep.
    mkdir ckpt-t4 ckpt-t1 ckpt-up-t4 ckpt-up-t1
    storm t4 --threads 4 --kill-resume --checkpoint-dir ckpt-t4
    storm t1 --threads 1 --kill-resume --checkpoint-dir ckpt-t1
    same_storm t4 t1
    storm_goldens t4
    set -- ckpt-t4/postmortem_*.json
    [ -e "$1" ] || fail "kill-resume left no postmortem"
    upgrade t4 --threads 4 --kill-resume --checkpoint-dir ckpt-up-t4
    upgrade t1 --threads 1 --kill-resume --checkpoint-dir ckpt-up-t1
    same_upgrade
    # A checkpoint directory that cannot be written voids the gate: the
    # run must say so and fail, not cold-start each kill silently.
    rc=0
    "$bench/overload_storm" --smoke --kill-resume \
        --checkpoint-dir missing/dir > /dev/null 2> unwritable.txt || rc=$?
    [ "$rc" -ne 0 ] || fail "kill-resume into a missing directory exited 0"
    grep -q 'could not write' unwritable.txt ||
        fail "kill-resume into a missing directory reported no failed write"
    ;;
upgrade)
    upgrade t4 --threads 4
    upgrade t1 --threads 1
    same_upgrade
    ;;
campaign)
    "$bench/fault_campaign" --smoke > a.json || fail "fault_campaign exited"
    "$bench/fault_campaign" --smoke > b.json || fail "fault_campaign exited"
    same a.json b.json
    same "$gold/fault_campaign_smoke.json" a.json
    ;;
flags)
    # Malformed counts exit 2 with the usage line instead of running
    # with a substituted value (--smoke bounds the cost if they don't).
    for flags in "--threads abc" "--threads -3" "--checkpoint-every 7x"; do
        rc=0
        # shellcheck disable=SC2086 # Split the flag from its value.
        "$bench/overload_storm" --smoke $flags > out.txt 2>&1 || rc=$?
        [ "$rc" -eq 2 ] || fail "overload_storm $flags exited $rc, not 2"
        grep -q '^usage: overload_storm' out.txt ||
            fail "overload_storm $flags printed no usage line"
    done
    ;;
*)
    fail "unknown case $mode"
    ;;
esac
