#!/bin/sh
# usage: trace_smoke.sh TRACE_DUMP_EXE
# End-to-end checks of the trace dumper's output files:
#   1. a Chrome trace validates, and python's json.tool parses it;
#   2. a JSONL dump validates and is the same byte for byte when rerun;
#   3. a partitioned run dumps, validates and reports its metrics;
#   4. a JSONL dump read back through the strict importer is unchanged;
#   5. corrupt input fails, and leaves no partial output file.
set -e
dump=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
fail() { echo "trace_smoke: $*" >&2; exit 1; }
# run the dumper quietly; on failure show what it printed
run() { "$dump" "$@" > "$dir/log" 2>&1 || { cat "$dir/log"; fail "failed: $*"; }; }

run --seed 7 --validate -o "$dir/trace.json"
python3 -m json.tool "$dir/trace.json" > /dev/null || fail "json.tool rejects the Chrome trace"

run --seed 7 --format jsonl --validate -o "$dir/t1.jsonl"
run --seed 7 --format jsonl --validate -o "$dir/t2.jsonl"
cmp "$dir/t1.jsonl" "$dir/t2.jsonl" || fail "JSONL dump is not deterministic"

run --seed 11 --partitions 40 --metrics --validate -o "$dir/partitioned.json"

run --input "$dir/t1.jsonl" --format jsonl --validate -o "$dir/reparsed.jsonl"
cmp "$dir/t1.jsonl" "$dir/reparsed.jsonl" || fail "strict import changed the dump"

printf '{"ts": oops}\n' > "$dir/corrupt.jsonl"
if "$dump" --input "$dir/corrupt.jsonl" -o "$dir/out.json" > /dev/null 2>&1; then
  fail "corrupt input was accepted"
fi
test ! -e "$dir/out.json" || fail "corrupt input left a partial dump"
