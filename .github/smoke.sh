#!/usr/bin/env bash
# Smoke test of an installed `zipcrt` console script: every command on the
# designs, datasets and errors that reach its distinct code paths.  Run it in
# an empty directory, with the `zipcrt` under test first on PATH; from the
# repository root:
#
#   smoke=$(mktemp -d) && (cd "$smoke" && bash "$OLDPWD/.github/smoke.sh")
#
# Every file it writes is fixed by the code and the seeds, so a second run in
# a second directory writes the same bytes, apart from the manifests'
# timestamps and timings.  CI runs it once with the main install and once with
# a numpy-only one, then `diff -r -x '*.manifest.json' main numpy-only`: each
# seeded output is the same in a fresh process, and the same without scipy.
set -euo pipefail
trap 'echo "smoke.sh:$LINENO: check failed" >&2' ERR

# usage_error MESSAGE CMD...: CMD exits 2, a usage error, and prints the grep
# pattern MESSAGE on stderr; an empty MESSAGE checks no stderr (a sweep prints
# its errors on stdout).  Bash ignores errexit in a function called from if,
# !, && or ||, so the checks are one && chain, whose status is the function's.
usage_error() {
  local message=$1 code=0
  shift
  "$@" 2> usage.err || code=$?
  test "$code" -eq 2 && { test -z "$message" || grep -q -e "$message" usage.err; }
}

# design NAME MU1 RHO CLUSTER_SIZE [P1]: writes NAME.json, with rho_s = rho_u
design() {
  printf '{"mu1": %s, "beta2": -0.431, "p1": %s, "q": 0.5, "rho_s": %s, "rho_u": %s,\n "cluster_size": %s}\n' \
    "$2" "${5:-0.5}" "$3" "$3" "$4" > "$1.json"
}
design design 1.0 0.03 '{"kind": "discrete_uniform", "lo": 34, "hi": 56}'
zipcrt simulate --config design.json --clusters 30 --seed 5 --out design.csv
zipcrt fit --data design.csv > design.fit
# an odd count draws the tie coin, and a Bernoulli layout one coin per cluster
zipcrt simulate --config design.json --clusters 31 --seed 5 --out odd.csv
zipcrt simulate --config design.json --clusters 30 --seed 5 --bernoulli-allocation --out bern.csv
# the normal reference and t(N - 4)
zipcrt fit --data design.csv --reference z > z.fit
grep -q '^jackknife,.*,z,' z.fit
zipcrt fit --data design.csv --reference t --df-rule n-4 > n4.fit
grep -q '^jackknife,.*,t(26),' n4.fit
zipcrt samplesize --config design.json > design.size
design tp 1.0 0.05 '{"kind": "truncated_poisson", "rate": 45, "lo": 20, "hi": 70}'
zipcrt samplesize --config tp.json > tp.size
# a sweep sizes each q
zipcrt sweep --config design.json --q 0.3,0.5,0.7 --out sweep.csv
test "$(wc -l < sweep.csv)" -eq 4
# a bad --alpha is a usage error that prints no row
usage_error 'normal quantile needs 0 < prob < 1, got 1.0' \
  zipcrt fit --data design.csv --reference z --alpha 1e-300 > bad.out
test ! -s bad.out
# own Poisson means of 10 or more are drawn value by value, not as a
# multiset: a mu1 = 30 design puts both arms on that branch
design mean30 30.0 0.03 '{"kind": "discrete_uniform", "lo": 34, "hi": 56}'
zipcrt simulate --config mean30.json --clusters 30 --seed 5 --out mean30.csv
zipcrt fit --data mean30.csv > mean30.fit
# a mean of 50,000 sizes, simulates and fits: exp(log(50000)) is
# 50000.00000000001, which an absolute 1e-12 identity check rejected; its
# outcomes take five digit places in the writer
design mean50k 50000 0.05 '{"kind": "discrete_uniform", "lo": 34, "hi": 56}' 0.3
zipcrt samplesize --config mean50k.json > mean50k.size
zipcrt simulate --config mean50k.json --clusters 30 --seed 5 --out mean50k.csv
zipcrt fit --data mean50k.csv > mean50k.fit
# t sizing at df about 2.8e14, which only the t CDF's expansion in 1 / df
# answers, and at df about 1,160
zipcrt samplesize --config design.json --set beta2=1e-7 > far-df.size
zipcrt samplesize --config design.json --set beta2=-0.05 > mid-df.size
# 520 replicates are just over two 256-replicate chunks; a type I study
# tested against t(N - 4) too
zipcrt study --config design.json --reps 520 --sizing t --seed 3 --out study.csv
zipcrt study --config design.json --reps 520 --sizing t --df-rule n-4 --null --seed 3 --out null.csv
# unseeded, so it prints its seed and writes nothing
zipcrt tables --which table2 --reps 200
# a 2,000-cluster DU(10,80) file through the columnar reader
design du 1.0 0.03 '{"kind": "discrete_uniform", "lo": 10, "hi": 80}'
zipcrt simulate --config du.json --clusters 2000 --seed 7 --out large.csv
# a study draws each cluster's (m, Y) by one uniform from its arm's joint
# table at the grid's means (du.json); where an arm's joint grid would pass
# 2**17 cells it draws (m, K) from its keyed table and the own and shared
# Poisson parts with numpy's sampler: at DU(10,80) and mu1 = 5 (du5.json),
# and at mu1 = 30 (mean30.json)
zipcrt study --config du.json --reps 520 --sizing t --seed 3 --out du-study.csv
design du5 5.0 0.05 '{"kind": "discrete_uniform", "lo": 10, "hi": 80}'
zipcrt study --config du5.json --reps 520 --sizing t --seed 3 --out du5-study.csv
zipcrt study --config mean30.json --reps 520 --sizing t --seed 3 --out mean30-study.csv
zipcrt fit --data large.csv > large.fit
# pinned, so a change between commits to the per-cluster path, the writer,
# the reader or the fit shows, and not only a difference between two runs
printf '%s  %s\n' \
  b551c9a21a7c0a9843946b65e90c630699a6b8ea0de4b15964efd61c38963a79 du5-study.csv \
  6b937273885788da15b1cd453c7d357aa9ec77f427d0105696569886007ec414 large.csv \
  5046acfd44bc00f430b2d4f5bfed14cee4886e6e39ca954f8286f0b213648621 large.fit \
  | sha256sum -c -
# CRLF line endings, and a name that looks compressed, read the same
sed 's/$/\r/' large.csv > crlf.csv
zipcrt fit --data crlf.csv > crlf.fit
cmp large.fit crlf.fit
cp large.csv large.csv.gz
zipcrt fit --data large.csv.gz > gz.fit
cmp large.fit gz.fit
# a pipe reads as the file would, and so does a spaced rewrite, which numpy's
# reader parses instead of the plain form's byte parse
zipcrt fit --data <(cat large.csv) > pipe.fit
cmp large.fit pipe.fit
sed 's/,/ , /g' large.csv > spaced.csv
zipcrt fit --data spaced.csv > spaced.fit
cmp large.fit spaced.fit
# usage errors (exit code 2) that name their cause, not tracebacks: a bad row
# read from a pipe, a malformed row, a cluster_size without its upper bound
# or of a size that is not a whole number, a design file that is not UTF-8,
# an integer too large for a float, and a q * beta2 whose exp overflows
usage_error ':3: negative outcome -2' zipcrt fit --data <(printf 'cluster_id,arm,y\n0,0,1\n1,1,-2\n')
printf 'cluster_id,arm,y\n0,0,1\n1,1,x\n' > malformed.csv
usage_error "malformed.csv:3: malformed row \['1', '1', 'x'\]" zipcrt fit --data malformed.csv
design nohi 1.0 0.03 '{"kind": "discrete_uniform", "lo": 34}'
usage_error "cluster_size of kind discrete_uniform is missing keys: \['hi'\]" \
  zipcrt simulate --config nohi.json --clusters 30 --seed 5 --out nohi.csv
design fractional 1.0 0.03 '{"kind": "discrete_uniform", "lo": 34.9, "hi": 56}'
usage_error 'cluster_size.lo must be a whole number, got 34.9' zipcrt samplesize --config fractional.json
printf '{"mu1": 1.0,\n "p1": "\351"}\n' > latin1.json
usage_error 'latin1.json:2: not UTF-8 text' zipcrt samplesize --config latin1.json
usage_error 'beta2 is an integer too large for a float' \
  zipcrt samplesize --config design.json --set "beta2=1$(printf '0%.0s' $(seq 400))"
usage_error 'p2=-inf outside \[0, 1) for p1=0.5, beta2=1000.0, q=1.0' \
  zipcrt samplesize --config design.json --set beta2=1000 --set q=1
# and so is an arm mean whose square underflows; its sweep fills each row's
# error column and, with no row sized, exits 2 too
cat > tiny.json <<'JSON'
{"beta1": -700, "beta2": 720, "p1": 0.5, "p2": 0.5, "rho_s": 0.05, "rho_u": 0.05,
 "cluster_size": {"kind": "fixed", "m": 2}}
JSON
tiny="the control arm's mean mu=9.85968e-305 is too small to size"
usage_error "$tiny" zipcrt samplesize --config tiny.json
usage_error '' zipcrt sweep --config tiny.json --q 0,0.5,1 > tiny-sweep.csv
grep -q "^0,,,,\"$tiny" tiny-sweep.csv
test "$(wc -l < tiny-sweep.csv)" -eq 4
# and so is a power at most alpha/2, which the rule's power
# Phi(delta - z_{1-alpha/2}) already reaches at 0 clusters; its sweep sizes
# no row, so it fills both error cells and exits 2
power='power = 0.01 must exceed alpha/2 = 0.025'
usage_error "$power" zipcrt samplesize --config design.json --set power=0.01
usage_error '' zipcrt sweep --config design.json --q 0.3,0.5 --set power=0.01 > power-sweep.csv
test "$(grep -c "^0\.[35],,,,\"$power" power-sweep.csv)" -eq 2
# and so is a study sized to fewer clusters than a balanced layout can split
# into two arms of at least 2, which no jackknife fit survives, before any draw
usage_error 'N = 3 clusters at r_bar = 0.5 can leave an arm 1 of them, .* at least 2 in each arm' \
  zipcrt study --config design.json --reps 50 --seed 1 --set power=0.2
# and so is a cluster size past 2**53, before anything is allocated
usage_error 'cluster_size.hi must be at most 2\*\*53' \
  zipcrt samplesize --config design.json --set cluster_size.hi=1e200
design tp-hi 1.0 0.03 '{"kind": "truncated_poisson", "rate": 45, "lo": 20, "hi": 4611686018427387904}'
usage_error 'cluster_size.hi must be at most 2\*\*53' zipcrt samplesize --config tp-hi.json
# a truncated Poisson with about 1e-9 of its Poisson mass on the support
# draws as fast as any other law
design fartail 1.0 0.05 '{"kind": "truncated_poisson", "rate": 45, "lo": 90, "hi": 100}'
timeout 60 zipcrt simulate --config fartail.json --clusters 200 --seed 1 --out fartail.csv
timeout 60 zipcrt study --config fartail.json --reps 300 --sizing t --seed 1 > fartail.study
# a DU(1,400) law has 80,600 cells (m, k), more than the 2**15 a law
# tabulates, so it draws the sizes, the shared zeros and one binomial per
# cluster instead of inverting the law of (m, K)
design wide 1.0 0.05 '{"kind": "discrete_uniform", "lo": 1, "hi": 400}'
zipcrt simulate --config wide.json --clusters 200 --seed 2 --out wide.csv
zipcrt fit --data wide.csv > wide.fit
zipcrt study --config wide.json --reps 20 --seed 2 > wide.study
# DU(1,254) is the widest DU(1, hi) whose 32,639 cells (m, k) are tabulated:
# each design's table holds both arms' rows near the cap, read by a short
# draw and by a study of more than one chunk
design nearcap 1.0 0.05 '{"kind": "discrete_uniform", "lo": 1, "hi": 254}'
zipcrt simulate --config nearcap.json --clusters 6 --seed 2 --out nearcap.csv
zipcrt study --config nearcap.json --reps 520 --sizing t --seed 3 --out nearcap-study.csv
# a UTF-8 byte-order mark, as spreadsheet programs write, is accepted
{ printf '\357\273\277'; cat design.csv; } > bom.csv
zipcrt fit --data bom.csv > bom.fit
# a Latin-1 byte is a usage error that names its line, not a traceback
printf 'cluster_id,arm,y\n0,0,1\n1,1,\351\n' > latin1.csv
usage_error 'latin1.csv:3: not UTF-8 text' zipcrt fit --data latin1.csv

# with --reps the table1 and table2 rows run the study engine
zipcrt tables --which table1,table2,table3-icc --reps 200 --seed 4 --out seeded
mkdir solo
# each arm's law of (m, Y) is built once per process: table2 drawn in a fresh
# process matches table2 drawn after table1 warmed the cache
zipcrt tables --which table2 --reps 200 --seed 4 --out solo/seeded
cmp solo/seeded.table2.csv seeded.table2.csv
# and each arm's law of (m, K): table3-icc's datasets drawn in a fresh process
# match those drawn after the studies' laws of (m, Y) filled the same caches
zipcrt tables --which table3-icc --seed 4 --out solo/seeded
cmp solo/seeded.table3-icc.csv seeded.table3-icc.csv
# the north star's artifact, pinned: four chunks a study, so every study
# concatenates its chunks
zipcrt tables --which table1,table2 --reps 1000 --seed 4 --out pinned
printf '%s  %s\n' \
  3ac4a3be78af2147ce0db720c011de2383a0a2c74c3b5496a836b031f303b07c pinned.table1.csv \
  e3985561973d32b6302b05b4d50c4979184667567448b84f96fdc89a1cc9d7a4 pinned.table2.csv \
  | sha256sum -c -

# usage_error itself fails on an exit 0, on an exit 3 (a fit on an all-zero
# arm) and on a wrong message, also where bash ignores errexit in it
printf 'cluster_id,arm,y\n0,0,1\n1,0,2\n2,1,0\n3,1,0\n' > allzero.csv
if usage_error '' zipcrt fit --data design.csv > /dev/null \
  || usage_error '' zipcrt fit --data allzero.csv \
  || usage_error 'no such message' zipcrt fit --data malformed.csv; then
  echo "smoke.sh: usage_error passed a command that is not that usage error" >&2
  exit 1
fi
