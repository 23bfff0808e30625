#!/bin/sh
# Kill/resume harness for the crash-safety layer (DESIGN.md §11).
#
# Proves, against the built CLI, the three guarantees `make crash` gates on:
#   1. resume determinism — a checkpointed `experiment all` killed at an
#      experiment boundary (plus a half-written tail) resumes byte-identical
#      to the uninterrupted run, at workers 1 and 8;
#   2. graceful degradation — an injected non-terminating scenario (a tiny
#      -stepbudget) exits with the distinct budget-exhausted code (4) in
#      degrade mode and aborts (1) under -onfault fail, journal intact
#      either way; a lone experiment has no degraded mode, so a budget
#      exhausted in `experiment healstudy` is a hard error (1);
#   3. daemon drain/resume — a SIGTERM'd partitiond drains mid-`experiment
#      all` at an experiment boundary, and a restarted daemon over the same
#      state directory resumes the job and serves a result byte-identical
#      to the uninterrupted run (DESIGN.md §14);
#   4. decoder hardening — short fuzz smokes over the ckpt.v1 decoder, the
#      journal reader, the spec parser (partitiond's admission boundary for
#      untrusted documents) and the daemon's state-dir scan, which reads
#      each result file's metadata header.
set -eu

GO=${GO:-go}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "crash-harness: building partition"
$GO build -o "$work/partition" ./cmd/partition

echo "crash-harness: uninterrupted checkpointed run (workers 8)"
"$work/partition" experiment all -checkpoint "$work/ckpt" -workers 8 \
	> "$work/clean.txt" 2> "$work/clean.err"
journal=$(ls "$work"/ckpt/*.ckpt)
"$work/partition" experiment all > "$work/plain.txt"
cmp -s "$work/clean.txt" "$work/plain.txt" || {
	echo "crash-harness: FAIL: checkpointed output diverged from plain run"; exit 1; }

for keep in 3 11; do
	for workers in 1 8; do
		echo "crash-harness: kill after $keep experiments, resume at workers=$workers"
		mkdir -p "$work/killed$keep$workers"
		killed="$work/killed$keep$workers/$(basename "$journal")"
		# Keep the header plus $keep records, then a 40-byte fragment of the
		# next line — the on-disk shape a SIGKILL mid-append leaves.
		head -n $((keep + 1)) "$journal" > "$killed"
		tail -n +$((keep + 2)) "$journal" | head -c 40 >> "$killed"
		"$work/partition" experiment all -checkpoint "$work/killed$keep$workers" \
			-resume -workers "$workers" > "$work/resumed.txt" 2> "$work/resumed.err"
		cmp -s "$work/resumed.txt" "$work/clean.txt" || {
			echo "crash-harness: FAIL: resumed output diverged (keep=$keep workers=$workers)"
			exit 1; }
		grep -q "replayed $keep completed experiments" "$work/resumed.err" || {
			echo "crash-harness: FAIL: expected $keep replayed experiments"
			cat "$work/resumed.err"; exit 1; }
	done
done

echo "crash-harness: injected non-terminating scenario (degrade mode)"
set +e
"$work/partition" experiment all -checkpoint "$work/budget" -stepbudget 5 -workers 8 \
	> /dev/null 2> "$work/budget.err"
code=$?
set -e
[ "$code" -eq 4 ] || {
	echo "crash-harness: FAIL: budget-exhausted run exited $code, want 4"
	cat "$work/budget.err"; exit 1; }
grep -q "exhausted" "$work/budget.err" || {
	echo "crash-harness: FAIL: no exhausted report on stderr"; exit 1; }
[ -s "$work"/budget/*.ckpt ] || {
	echo "crash-harness: FAIL: degraded run left no journal"; exit 1; }

echo "crash-harness: injected non-terminating scenario (-onfault fail)"
set +e
"$work/partition" experiment all -checkpoint "$work/failfast" -stepbudget 5 -onfault fail \
	-workers 8 > /dev/null 2> "$work/failfast.err"
code=$?
set -e
[ "$code" -eq 1 ] || {
	echo "crash-harness: FAIL: fail-fast run exited $code, want 1"; exit 1; }
[ -s "$work"/failfast/*.ckpt ] || {
	echo "crash-harness: FAIL: fail-fast run left no journal"; exit 1; }

echo "crash-harness: budget exhaustion in a lone experiment (healstudy)"
set +e
"$work/partition" experiment healstudy -stepbudget 5 > /dev/null 2> "$work/heal.err"
code=$?
set -e
[ "$code" -eq 1 ] || {
	echo "crash-harness: FAIL: budget-exhausted healstudy exited $code, want 1"
	cat "$work/heal.err"; exit 1; }
grep -q "budget exhausted" "$work/heal.err" || {
	echo "crash-harness: FAIL: healstudy did not name the exhausted budget"
	cat "$work/heal.err"; exit 1; }

echo "crash-harness: building partitiond"
$GO build -o "$work/partitiond" ./cmd/partitiond
port=$((18000 + ($$ % 1000)))
state="$work/daemon-state"

wait_ready() {
	tries=0
	until "$work/partitiond" jobs -addr "localhost:$port" > /dev/null 2>&1; do
		tries=$((tries + 1))
		[ "$tries" -lt 100 ] || {
			echo "crash-harness: FAIL: daemon never came up on :$port"; exit 1; }
		sleep 0.1
	done
}

echo "crash-harness: SIGTERM partitiond mid-job, resume on restart"
"$work/partitiond" serve -addr ":$port" -state "$state" -jobs 1 \
	2> "$work/daemon1.err" &
daemon=$!
wait_ready
id=$("$work/partitiond" submit experiment all -addr "localhost:$port" \
	| sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$id" ] || {
	echo "crash-harness: FAIL: submit returned no job id"; exit 1; }
# Wait for the journal to hold the header plus at least one completed
# experiment, then SIGTERM: the drain must land mid-sweep.
tries=0
while [ "$(cat "$state"/*.ckpt 2>/dev/null | wc -l)" -lt 2 ]; do
	tries=$((tries + 1))
	[ "$tries" -lt 200 ] || {
		echo "crash-harness: FAIL: no experiment journaled before timeout"; exit 1; }
	sleep 0.05
done
kill -TERM "$daemon"
wait "$daemon" || {
	echo "crash-harness: FAIL: drained daemon exited non-zero"
	cat "$work/daemon1.err"; exit 1; }
[ -f "$state/$id.spec.json" ] || {
	echo "crash-harness: FAIL: drained daemon dropped the job's spec sidecar"; exit 1; }
[ ! -f "$state/$id.result" ] || {
	echo "crash-harness: FAIL: drain landed too late — the job already finished"; exit 1; }

"$work/partitiond" serve -addr ":$port" -state "$state" -jobs 1 \
	2> "$work/daemon2.err" &
daemon=$!
wait_ready
grep -q "resuming unfinished job $id" "$work/daemon2.err" || {
	echo "crash-harness: FAIL: restarted daemon did not resurrect the job"
	cat "$work/daemon2.err"; exit 1; }
"$work/partitiond" submit experiment all -addr "localhost:$port" -wait \
	> "$work/daemon-resumed.txt" || {
	echo "crash-harness: FAIL: resumed job did not finish"; exit 1; }
cmp -s "$work/daemon-resumed.txt" "$work/clean.txt" || {
	echo "crash-harness: FAIL: daemon-resumed output diverged from uninterrupted run"; exit 1; }
kill -TERM "$daemon"
wait "$daemon" || {
	echo "crash-harness: FAIL: second daemon exited non-zero"; exit 1; }

echo "crash-harness: fuzz smokes (ckpt.v1 frame decoder, journal reader, spec parser, state-dir scan)"
$GO test -run '^$' -fuzz '^FuzzDecodeFrame$' -fuzztime 5s ./internal/checkpoint/ > /dev/null
$GO test -run '^$' -fuzz '^FuzzReadJournal$' -fuzztime 5s ./internal/checkpoint/ > /dev/null
$GO test -run '^$' -fuzz '^FuzzParseSpec$' -fuzztime 5s ./internal/core/ > /dev/null
$GO test -run '^$' -fuzz '^FuzzStateDirScan$' -fuzztime 5s ./internal/service/ > /dev/null

echo "crash-harness: PASS"
