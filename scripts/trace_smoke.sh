#!/bin/sh
# Observability smoke test: run `explain --analyze` over every workload
# XPath query, export the combined Chrome trace, and validate it with the
# structural checker; count the paged NoK's buffer-pool requests; then
# run `query --request-trace` on a document and on a 2-shard corpus
# catalog. Exits non-zero if any query fails to
# analyze, a per-operator table is missing, a corpus table repeats an
# operator path or misses its exact estimate, or the trace file does not
# validate.
set -e
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

run() { dune exec --no-print-directory bin/xqp.exe -- "$@"; }

out="$dir/explain.txt"
run explain -g auction:600 --analyze --rewrites --workload \
  --trace-out "$dir/trace.json" > "$out"

# every workload query produced an analyzed operator table and a result line
queries=$(grep -c '^=== ' "$out")
tables=$(grep -c '^operators:' "$out")
results=$(grep -c '^result:' "$out")
[ "$queries" -ge 13 ] || { echo "trace-smoke: expected >= 13 queries, saw $queries"; exit 1; }
[ "$tables" = "$queries" ] || { echo "trace-smoke: $tables operator tables for $queries queries"; exit 1; }
[ "$results" = "$queries" ] || { echo "trace-smoke: $results result lines for $queries queries"; exit 1; }
# page I/O: the in-memory engines read the document arrays, so the one
# store-backed NoK is the paged one; its buffer-pool requests must count
run generate auction:600 -o "$dir/a.xml" > /dev/null
run index -f "$dir/a.xml" -o "$dir/a.xqdb" > /dev/null
pages_out="$dir/pages.txt"
run pages -f "$dir/a.xqdb" "//person[profile/@income > 60000]/name" > "$pages_out"
grep -q '^cold run: *requests=[1-9]' "$pages_out" || {
  echo "trace-smoke: no buffer-pool requests counted for the paged NoK"; cat "$pages_out"; exit 1; }

dune exec --no-print-directory scripts/check_trace.exe -- "$dir/trace.json"

# query --request-trace prints the span tree and the operator table
rt_out="$dir/request_trace.txt"
run query -g auction:600 --request-trace --limit 0 "//item[location]/name" > "$rt_out"
grep -q '^request trace:' "$rt_out" || { echo "trace-smoke: no request trace"; exit 1; }
grep -A1 '^operators (actual vs estimated):' "$rt_out" | grep -q '^path .*q-err' || {
  echo "trace-smoke: no operator table from --request-trace"; cat "$rt_out"; exit 1; }

# on a corpus the table sums every document's spans: one row per
# operator path, and the exact downward estimate holds (q-err 1.00)
run pack --corpus -g auction:120 -g auction:80:7 -g auction:60:3 --shards 2 -o "$dir/corpus.xqdbc" > /dev/null
corpus_out="$dir/corpus_trace.txt"
run query -f "$dir/corpus.xqdbc" --request-trace --limit 0 "/site/people/person" > "$corpus_out"
sed -n '/^operators (actual vs estimated):/,$p' "$corpus_out" | tail -n +3 > "$dir/corpus_rows.txt"
rows=$(wc -l < "$dir/corpus_rows.txt")
paths=$(awk '{ print $1 }' "$dir/corpus_rows.txt" | sort -u | wc -l)
[ "$rows" -ge 2 ] && [ "$rows" = "$paths" ] || {
  echo "trace-smoke: corpus operator table not one row per path"; cat "$corpus_out"; exit 1; }
awk '$2 ~ /^tau/ && $6 != "1.00" { bad = 1 } END { exit bad }' "$dir/corpus_rows.txt" || {
  echo "trace-smoke: corpus tau q-err is not 1.00"; cat "$corpus_out"; exit 1; }
grep -q 'tau' "$dir/corpus_rows.txt" || {
  echo "trace-smoke: corpus table has no tau row"; cat "$corpus_out"; exit 1; }

echo "trace-smoke: explain --analyze + trace export + request traces OK"
