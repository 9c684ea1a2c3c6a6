#!/bin/sh
# End-to-end smoke test of the xqp CLI: generate -> validate -> index (twice,
# and again from the .xqdb, all byte-identical) ->
# query (xml and .xqdb) -> pages -> explain -> xquery. Exits non-zero on
# any mismatch.
set -e
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

run() { dune exec --no-print-directory bin/xqp.exe -- "$@"; }

run generate bib:25 -o "$dir/bib.xml" > /dev/null
run validate "$dir/bib.xml" | grep -q "well-formed"
run index -f "$dir/bib.xml" -o "$dir/bib.xqdb" > /dev/null

# packing is deterministic: the same XML indexes to the same bytes, and
# re-indexing the .xqdb (the opened store is adopted, not rebuilt)
# reproduces it byte for byte
run index -f "$dir/bib.xml" -o "$dir/bib2.xqdb" > /dev/null
cmp "$dir/bib.xqdb" "$dir/bib2.xqdb" || { echo "indexing the same XML twice differs"; exit 1; }
run index -f "$dir/bib.xqdb" -o "$dir/bib3.xqdb" > /dev/null
cmp "$dir/bib.xqdb" "$dir/bib3.xqdb" || { echo "re-indexing the .xqdb differs"; exit 1; }

xml_count=$(run query -f "$dir/bib.xml" "//book[price > 50]/title" | tail -1)
db_count=$(run query -f "$dir/bib.xqdb" "//book[price > 50]/title" | tail -1)
[ "$xml_count" = "$db_count" ] || { echo "xml vs xqdb mismatch: $xml_count / $db_count"; exit 1; }

base_count=$(run query -f "$dir/bib.xml" -e reference "//book[author]/title" | tail -1)
for engine in navigation nok pathstack twigstack binary-default binary-best auto; do
  c=$(run query -f "$dir/bib.xml" -e "$engine" "//book[author]/title" | tail -1)
  [ "$c" = "$base_count" ] || { echo "engine $engine disagrees: $c vs $base_count"; exit 1; }
done

run pages -f "$dir/bib.xqdb" "/bib/book/title" | grep -q "cold run"
run explain -f "$dir/bib.xml" "//book[author]/title" | grep -q "chosen engine"
run explain -f "$dir/bib.xml" "//book[author]/title" | grep -q "physical plan:"

# plan cache: the same query twice in one invocation — second must hit
cache_out=$(run explain --analyze -f "$dir/bib.xml" "//book[price > 50]/title" "//book[price > 50]/title")
echo "$cache_out" | grep -q "plan cache:      miss" || { echo "first explain should miss"; exit 1; }
echo "$cache_out" | grep -q "plan cache:      hit" || { echo "second explain should hit"; exit 1; }
run explain --no-cache -f "$dir/bib.xml" "//book/title" | grep -q "plan cache:      bypassed"
run query -x -f "$dir/bib.xml" '<n>{ count(//book) }</n>' | grep -q "<n>25</n>"
run stats -f "$dir/bib.xml" | grep -q "succinct store"

echo "smoke: all CLI paths OK"
