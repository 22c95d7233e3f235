#!/usr/bin/env bash
# Console-script smoke test: runs every CLI command end to end and checks
# its result files, printed verdicts and exit codes.  The arguments are the
# entry point to run:
#
#   bash .github/cli-smoke.sh orbital-mcmc                      # installed script
#   PYTHONPATH=src bash .github/cli-smoke.sh python -m orbitalmcmc.cli
#
# Outputs go under $RUNNER_TEMP/smoke, or a fresh temporary directory.
# Any failing command or check stops the run with a non-zero exit.
set -e
if [ "$#" -eq 0 ]; then
  echo "usage: $0 ENTRY-POINT [ARG...]" >&2
  exit 2
fi
cli=("$@")
out="${RUNNER_TEMP:-$(mktemp -d)}/smoke"
"${cli[@]}" mix --model grid --k 3 --chain id,orbital-id --out "$out/mix"
# the second epsilon reads the squares the first one made on the same kernel
"${cli[@]}" mix --model grid --k 4 --chain id --epsilon 0.1,0.01 \
  --out "$out/mix_grid4" > "$out/mix_grid4.txt"
cat "$out/mix_grid4.txt"
for line in "id eps=0.1: tau=192" "id eps=0.01: tau=405"; do
  grep -qx "$line" "$out/mix_grid4.txt" \
    || { echo "mix grid 4: missing line: $line"; exit 1; }
done
"${cli[@]}" sample --model grid --k 3 --steps 200 --record-every 2 --out "$out/sample"
# the bound step loop records every third state in both sampler modes:
# each trace is its header and 101 states
for mode in exact pr; do
  "${cli[@]}" sample --model grid --k 3 --chain id,orbital-id --record-every 3 \
    --steps 300 --mode "$mode" --out "$out/sample_every3_$mode"
  for kind in id orbital-id; do
    lines=$(wc -l < "$out/sample_every3_$mode/trace_${kind}_seed0.csv")
    test "$lines" = 102 \
      || { echo "sample --record-every 3 ($mode, $kind): $lines lines, want 102"; exit 1; }
  done
done
"${cli[@]}" exact --model grid --k 3 --chain id,orbital-id --out "$out/exact"
"${cli[@]}" tvcurve --model grid --k 3 --steps 500 --out "$out/tvcurve"
"${cli[@]}" coupling --model grid --k 3 --trials 500 --out "$out/coupling" > "$out/coupling.txt"
cat "$out/coupling.txt"
grep -Eq '^measured drift .* vs bound .*: ok$' "$out/coupling.txt" \
  || { echo "coupling: no drift-within-bound verdict"; exit 1; }
# connected cliques 3, the third graph family: all five coupling cases occur
"${cli[@]}" coupling --model cliques --k 3 --trials 2000 --out "$out/coupling_cliques" \
  > "$out/coupling_cliques.txt"
cat "$out/coupling_cliques.txt"
grep -Eq '^measured drift .* vs bound .*: ok$' "$out/coupling_cliques.txt" \
  || { echo "coupling cliques 3: no drift-within-bound verdict"; exit 1; }
# K_9: the drift draws from a group of 362,880 elements without listing them
"${cli[@]}" coupling --model complete --k 3 --trials 2000 --out "$out/coupling_k9" > "$out/coupling_k9.txt"
cat "$out/coupling_k9.txt"
grep -Eq '^measured drift .* vs bound .*: ok$' "$out/coupling_k9.txt" \
  || { echo "coupling K_9: no drift-within-bound verdict"; exit 1; }
# K_9 in EXACT mode: every orbit draw reads the 362,880-element array
"${cli[@]}" sample --model complete --k 3 --chain orbital-id --mode exact \
  --steps 2000 --out "$out/sample_k9"
"${cli[@]}" detect --model grid --k 3 --out "$out/detect" > "$out/detect.txt"
cat "$out/detect.txt"
grep -Eq '^burnside cross-check: [0-9]+ \(agrees\)$' "$out/detect.txt" \
  || { echo "detect: no agreeing burnside cross-check"; exit 1; }
# the largest cube a shipped family reaches under the default cap: 2^16
# configurations of K_16 in one StateSpace, 15 generators
"${cli[@]}" detect --model complete --k 4 > "$out/detect_k16.txt"
grep -q '^configuration orbits: 17 (' "$out/detect_k16.txt" \
  || { echo "detect complete 4: configuration orbits not 17"; exit 1; }
"${cli[@]}" gen --model fs --people 4 --evidence-fraction 0.5 --seed 1 --out "$out/fs4"
"${cli[@]}" detect --model clauses --clauses "$out/fs4/model.clauses.txt" \
  --evidence "$out/fs4/model.evidence.txt" > "$out/detect_fs4.txt"
cat "$out/detect_fs4.txt"
for line in "group order: 4" "variable orbits: 8" "feature orbits: 22"; do
  grep -qx "$line" "$out/detect_fs4.txt" \
    || { echo "detect clauses: missing line: $line"; exit 1; }
done
# Gibbs chains on a clause model with evidence, base and orbital in PR mode
fs4=(--model clauses --clauses "$out/fs4/model.clauses.txt" --chain gibbs,orbital-gibbs
     --evidence "$out/fs4/model.evidence.txt" --mode pr --steps 2000)
"${cli[@]}" sample "${fs4[@]}" --out "$out/sample_fs4"
# one process runs every chain on one model: conditional tables that seed 0
# filled must leave seed 1's traces byte for byte as a run of seed 1 alone
# (a bare --seeds N means seeds 0..N-1, so seed 1 alone is "1,")
"${cli[@]}" sample "${fs4[@]}" --seeds 0,1 --out "$out/sample_fs4_seeds01"
"${cli[@]}" sample "${fs4[@]}" --seeds 1, --out "$out/sample_fs4_seed1"
for kind in gibbs orbital-gibbs; do
  cmp "$out/sample_fs4_seeds01/trace_${kind}_seed1.csv" "$out/sample_fs4_seed1/trace_${kind}_seed1.csv" \
    || { echo "sample fs4: seed 1's $kind trace differs after seed 0"; exit 1; }
done
# the exact Gibbs kernels of a clause model with evidence, base and orbital:
# both matrices written, and each detailed-balance violation at most 1e-10
"${cli[@]}" gen --model fs --people 3 --evidence-fraction 0.3 --seed 1 --out "$out/fs3"
"${cli[@]}" exact --model clauses --clauses "$out/fs3/model.clauses.txt" \
  --evidence "$out/fs3/model.evidence.txt" --chain gibbs,orbital-gibbs \
  --out "$out/exact_fs3" > "$out/exact_fs3.txt"
cat "$out/exact_fs3.txt"
awk '/detailed balance violation/ { gsub(/.*violation |\)/, ""); n++; if ($0 + 0 > 1e-10) bad = 1 }
     END { exit !(n == 2 && !bad) }' "$out/exact_fs3.txt" \
  || { echo "exact clauses fs3: want two violations at most 1e-10"; exit 1; }
# the same model's mixing time runs on its lumped orbit quotient
"${cli[@]}" mix --model clauses --clauses "$out/fs3/model.clauses.txt" \
  --evidence "$out/fs3/model.evidence.txt" --chain orbital-gibbs --epsilon 0.1,0.01 \
  --out "$out/mix_fs3" > "$out/mix_fs3.txt"
cat "$out/mix_fs3.txt"
for line in "orbital-gibbs eps=0.1: tau=59" "orbital-gibbs eps=0.01: tau=116"; do
  grep -qx "$line" "$out/mix_fs3.txt" \
    || { echo "mix clauses fs3: missing line: $line"; exit 1; }
done
# product replacement on tuple images: fs16 has 272 variables, past 255 points
"${cli[@]}" gen --model fs --people 16 --out "$out/fs16"
"${cli[@]}" sample --model clauses --clauses "$out/fs16/model.clauses.txt" \
  --chain orbital-gibbs --mode pr --steps 500 --out "$out/sample_fs16"
# product replacement on bytes images, K_9 with 8 generators and 17 slots
"${cli[@]}" sample --model complete --k 3 --chain orbital-id --mode pr \
  --steps 2000 --out "$out/sample_k9_pr"
# grid 16 has 256 vertices, the largest domain whose images are bytes
for mode in pr exact; do
  "${cli[@]}" sample --model grid --k 16 --chain orbital-id --mode "$mode" \
    --steps 2000 --out "$out/sample_grid16_$mode"
done
# the order of a group past the enumeration cap comes from its stabilizer chain
"${cli[@]}" gen --model fs --people 12 --out "$out/fs12"
"${cli[@]}" detect --model clauses --clauses "$out/fs12/model.clauses.txt" \
  > "$out/detect_fs12.txt"
grep -qx "group order: 479001600" "$out/detect_fs12.txt" \
  || { echo "detect clauses: fs12 group order missing"; exit 1; }
# K_49 lies far past the brute-force corpus: Schreier-Sims on its 48
# detected generators must give 49!
"${cli[@]}" detect --model complete --k 7 > "$out/detect_k49.txt"
want="group order: $(python3 -c 'import math; print(math.factorial(49))')"
grep -qx "$want" "$out/detect_k49.txt" \
  || { echo "detect complete 7: missing line: $want"; exit 1; }
# detection past 2,000 vertices: fs20 with 6 people pinned, 14! 4! 2!
"${cli[@]}" gen --model fs --people 20 --evidence-fraction 0.3 --seed 1 --out "$out/fs20"
"${cli[@]}" detect --model clauses --clauses "$out/fs20/model.clauses.txt" \
  --evidence "$out/fs20/model.evidence.txt" > "$out/detect_fs20.txt"
cat "$out/detect_fs20.txt"
for line in "group order: 4184557977600" "variable orbits: 15"; do
  grep -qx "$line" "$out/detect_fs20.txt" \
    || { echo "detect clauses fs20: missing line: $line"; exit 1; }
done
# a chain kind that does not run on the model is a usage error before any output
code=0
"${cli[@]}" sample --model grid --k 3 --chain gibbs --out "$out/bad" || code=$?
test "$code" = 1 || { echo "sample --chain gibbs on grid: exit $code, want 1"; exit 1; }
test ! -e "$out/bad" || { echo "sample --chain gibbs on grid wrote $out/bad"; exit 1; }
code=0
"${cli[@]}" sample --model clauses --clauses "$out/fs4/model.clauses.txt" \
  --chain id --out "$out/bad_clauses" || code=$?
test "$code" = 1 || { echo "sample --chain id on clauses: exit $code, want 1"; exit 1; }
test ! -e "$out/bad_clauses" \
  || { echo "sample --chain id on clauses wrote $out/bad_clauses"; exit 1; }
# a chain list with no kind in it runs nothing: a usage error before any output
code=0
"${cli[@]}" sample --model grid --k 3 --chain , --out "$out/no_chain" || code=$?
test "$code" = 1 || { echo "sample --chain ,: exit $code, want 1"; exit 1; }
test ! -e "$out/no_chain" || { echo "sample --chain , wrote $out/no_chain"; exit 1; }
# a soft weight of 10^400 is inf as a float: a's Gibbs conditional would be
# NaN, so the model is an input error before any output
printf 'vars: a b\n1%s :: a\n1 :: b\n' "$(printf '%0400d' 0)" > "$out/huge.txt"
code=0
"${cli[@]}" sample --model clauses --clauses "$out/huge.txt" --chain gibbs \
  --out "$out/huge" 2> "$out/huge.err" || code=$?
cat "$out/huge.err"
test "$code" = 1 || { echo "weight 10^400: exit $code, want 1"; exit 1; }
grep -q '^error: ' "$out/huge.err" || { echo "weight 10^400: no error line"; exit 1; }
test ! -e "$out/huge" || { echo "weight 10^400 wrote $out/huge"; exit 1; }
# a fugacity must be finite: an infinite one is a usage error before any output
code=0
"${cli[@]}" sample --model grid --k 3 --lambda inf --out "$out/bad_lambda" || code=$?
test "$code" = 1 || { echo "sample --lambda inf: exit $code, want 1"; exit 1; }
test ! -e "$out/bad_lambda" || { echo "sample --lambda inf wrote $out/bad_lambda"; exit 1; }
# a dense kernel past its guard exits 2 before --out is created
code=0
ORBITAL_GUARD=2000 "${cli[@]}" exact --model grid --k 4 --out "$out/guarded" || code=$?
test "$code" = 2 || { echo "guarded exact on grid 4: exit $code, want 2"; exit 1; }
test ! -e "$out/guarded" || { echo "guarded exact on grid 4 wrote $out/guarded"; exit 1; }
# --out appears with the first result file: a guard exit before it leaves none
code=0
ORBITAL_GUARD=1000 "${cli[@]}" sample --model complete --k 3 --chain id,orbital-id \
  --mode exact --out "$out/guarded_sample" || code=$?
test "$code" = 2 || { echo "guarded exact sample on K_9: exit $code, want 2"; exit 1; }
test ! -e "$out/guarded_sample" \
  || { echo "guarded exact sample on K_9 wrote $out/guarded_sample"; exit 1; }
code=0
ORBITAL_GUARD=100 "${cli[@]}" coupling --model grid --k 4 --seeds 1, \
  --out "$out/guarded_coupling" || code=$?
test "$code" = 2 || { echo "guarded coupling on grid 4: exit $code, want 2"; exit 1; }
test ! -e "$out/guarded_coupling" \
  || { echo "guarded coupling on grid 4 wrote $out/guarded_coupling"; exit 1; }
# --evidence is for --model clauses only: on a graph model it is a usage
# error before detection and before --out
printf 'a=true\n' > "$out/evidence.txt"
code=0
"${cli[@]}" detect --model grid --k 3 --evidence "$out/evidence.txt" \
  2> "$out/detect_evidence.err" || code=$?
test "$code" = 1 || { echo "detect --evidence on grid: exit $code, want 1"; exit 1; }
grep -qx -- '--evidence is for --model clauses only, not grid' \
  "$out/detect_evidence.err" || { echo "detect --evidence on grid: no usage error"; exit 1; }
code=0
"${cli[@]}" sample --model grid --k 3 --evidence "$out/evidence.txt" \
  --out "$out/bad_evidence" || code=$?
test "$code" = 1 || { echo "sample --evidence on grid: exit $code, want 1"; exit 1; }
test ! -e "$out/bad_evidence" || { echo "sample --evidence on grid wrote $out/bad_evidence"; exit 1; }
# weights that all underflow are an input error: exit 1 with no numpy warning
printf 'vars: a\n-740 :: a\n-740.5 :: !a\n' > "$out/underflow.txt"
code=0
PYTHONWARNINGS=error "${cli[@]}" exact --model clauses --clauses "$out/underflow.txt" \
  --chain gibbs --out "$out/underflow" 2> "$out/underflow.err" || code=$?
cat "$out/underflow.err"
test "$code" = 1 || { echo "underflowing weights: exit $code, want 1"; exit 1; }
grep -q '^error: state weights underflow' "$out/underflow.err" \
  || { echo "underflowing weights: no underflow error line"; exit 1; }
test ! -e "$out/underflow" || { echo "underflowing weights wrote $out/underflow"; exit 1; }
for f in mix/mix.csv sample/trace_id_seed0.csv sample_k9/trace_orbital-id_seed0.csv \
         sample_fs16/trace_orbital-gibbs_seed0.csv sample_k9_pr/trace_orbital-id_seed0.csv \
         sample_fs4/trace_gibbs_seed0.csv sample_fs4/trace_orbital-gibbs_seed0.csv \
         sample_grid16_pr/trace_orbital-id_seed0.csv \
         sample_grid16_exact/trace_orbital-id_seed0.csv \
         exact/pi.csv exact/matrix_id.csv exact/matrix_orbital-id.csv \
         exact_fs3/matrix_gibbs.csv exact_fs3/matrix_orbital-gibbs.csv \
         tvcurve/tvcurve.csv coupling/coupling.csv detect/generators.txt; do
  test -s "$out/$f" || { echo "missing or empty: $f"; exit 1; }
done
