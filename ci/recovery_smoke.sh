#!/usr/bin/env bash
# Recovery smoke test: a supervised dramctrl run is SIGKILLed mid-flight, then
# resumed from its last periodic checkpoint; the resumed run's final JSON
# statistics must be byte-identical to an uninterrupted reference run, and
# resuming the finished run's completion checkpoint must leave them so. A
# corrupted checkpoint must be rejected with a clean error, not a panic or a
# silently wrong resume.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/dramctrl" ./cmd/dramctrl

# A run long enough (in host time) that the kill lands mid-flight.
args=(-spec DDR3-1600-x64 -pattern random -reads 67 -requests 3000000 -seed 7)

echo "== reference: uninterrupted run"
"$workdir/dramctrl" "${args[@]}" -json "$workdir/ref.json" >/dev/null

echo "== victim: periodic checkpoints, then kill -9"
"$workdir/dramctrl" "${args[@]}" \
    -checkpoint "$workdir/run.ckpt" -checkpoint-every 50000 \
    -json "$workdir/victim.json" >/dev/null 2>"$workdir/victim.log" &
pid=$!
for _ in $(seq 1 300); do
    [ -f "$workdir/run.ckpt" ] && break
    sleep 0.1
done
if ! [ -f "$workdir/run.ckpt" ]; then
    echo "FAIL: no checkpoint appeared before the kill" >&2
    kill -9 "$pid" 2>/dev/null || true
    exit 1
fi
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
if [ -f "$workdir/victim.json" ]; then
    echo "FAIL: victim finished before the kill; grow -requests" >&2
    exit 1
fi
cp "$workdir/run.ckpt" "$workdir/corrupt.ckpt"

echo "== resume from the last good checkpoint"
"$workdir/dramctrl" "${args[@]}" \
    -checkpoint "$workdir/run.ckpt" -resume \
    -json "$workdir/resumed.json" >/dev/null 2>"$workdir/resume.log"
grep -q "supervisor: resumed from" "$workdir/resume.log" || {
    echo "FAIL: resume did not load the checkpoint:" >&2
    cat "$workdir/resume.log" >&2
    exit 1
}

echo "== compare final statistics"
if ! cmp "$workdir/ref.json" "$workdir/resumed.json"; then
    echo "FAIL: resumed statistics differ from the uninterrupted run" >&2
    exit 1
fi
echo "resumed run is byte-identical to the uninterrupted run"

echo "== resume the finished run again: it must not step past its end"
# The resumed run saved a checkpoint at its completion tick. Resuming that
# checkpoint must report the same statistics, not advance another quantum.
"$workdir/dramctrl" "${args[@]}" \
    -checkpoint "$workdir/run.ckpt" -resume \
    -json "$workdir/again.json" >/dev/null 2>"$workdir/again.log"
if ! cmp "$workdir/ref.json" "$workdir/again.json"; then
    echo "FAIL: resuming a completed run changed its statistics" >&2
    exit 1
fi
echo "resuming the completed run leaves its statistics unchanged"

echo "== corrupted checkpoint must fail cleanly"
# Overwrite one byte in the middle of the body with a different value.
size=$(wc -c <"$workdir/corrupt.ckpt")
off=$((size / 2))
orig=$(dd if="$workdir/corrupt.ckpt" bs=1 skip="$off" count=1 status=none | od -An -tu1 | tr -d ' ')
if [ "$orig" = "255" ]; then repl='\x00'; else repl='\xff'; fi
printf "$repl" | dd of="$workdir/corrupt.ckpt" bs=1 seek="$off" conv=notrunc status=none
set +e
"$workdir/dramctrl" "${args[@]}" \
    -checkpoint "$workdir/corrupt.ckpt" -resume >/dev/null 2>"$workdir/corrupt.log"
rc=$?
set -e
if [ "$rc" -eq 0 ]; then
    echo "FAIL: corrupted checkpoint was accepted" >&2
    exit 1
fi
grep -q "checksum mismatch" "$workdir/corrupt.log" || {
    echo "FAIL: corrupted checkpoint did not report a checksum mismatch:" >&2
    cat "$workdir/corrupt.log" >&2
    exit 1
}
echo "corrupted checkpoint rejected cleanly (exit $rc)"

echo "PASS: recovery smoke"
