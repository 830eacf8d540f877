#!/bin/sh
# Same-host A/B of the benchmark of record (perf/, BENCHMARK.json) between
# two revisions of this repository.
#
#   sh bench/ab.sh [--rounds N] [--seconds S] [--seed0 K] [--workloads "W ..."]
#                  [--out DIR] BASE CHANGE
#
# BASE and CHANGE are git revisions.  CHANGE may also be WORKTREE: the
# current checkout's tracked and untracked (not ignored) files, so an
# uncommitted change can be compared against its parent.
#
# Each side is extracted into DIR/base and DIR/change (git archive) and
# builds its own perf with its own perf/run.sh.  Round r (1..N) runs every
# workload on both sides with seed K+r, base first on odd rounds and change
# first on even rounds, so drift on the host lands on both arms alike.
#
# For every end-to-end metric BENCHMARK.json declares, on every workload,
# it prints the median (IQR) of each side, the change's wins out of N
# paired rounds, the median's relative change, whether that stays inside
# the metric's BENCHMARK.json bound, and a verdict.  The verdict says
# "better" or "worse" only when the change wins (or loses) at least 9 of
# every 10 rounds AND its median differs from the base's by more than the
# base's IQR; anything else is "-": a difference inside the spread is not
# a result.  Fewer than 10 rounds give no verdict at all.  Runs that
# report correct=false or failed ops are listed.
#
# Defaults: 10 rounds, 20 s per run (BENCHMARK.json's run_seconds), seeds
# 101..110, every workload, DIR = .bench_build/ab.  A full default A/B of
# three workloads takes about 10 x 3 x 2 x 30 s = 30 min.
set -eu

rounds=10
seconds=20
seed0=100
workloads=""
out=".bench_build/ab"

usage() {
  sed -n '4,7p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

while [ $# -gt 0 ]; do
  case "$1" in
    --rounds) rounds="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --seed0) seed0="$2"; shift 2 ;;
    --workloads) workloads="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    -h|--help) usage ;;
    -*) echo "bench/ab.sh: unknown option $1" >&2; usage ;;
    *) break ;;
  esac
done
[ $# -eq 2 ] || usage
base_rev="$1"
change_rev="$2"

root=$(git rev-parse --show-toplevel)
cd "$root"
if [ -z "$workloads" ]; then
  workloads=$(awk '/"workloads"/ { w = 1 } w && /"name"/ { gsub(/[",]/, "", $2); print $2 }
                   w && /^  \]/ { exit }' BENCHMARK.json)
fi
# name:better:bound for every end-to-end metric.
metrics=$(awk '/"end_to_end"/ { e = 1; next }
               e && /"name"/ { gsub(/[",]/, "", $2); n = $2 }
               e && /"better"/ { gsub(/[",]/, "", $2); b = $2 }
               e && /"bound"/ { gsub(/[",]/, "", $2); print n ":" b ":" $2 }
               e && /^  \]/ { exit }' BENCHMARK.json)

mkdir -p "$out"
out=$(cd "$out" && pwd)
rm -rf "$out/base" "$out/change" "$out/runs"
mkdir -p "$out/base" "$out/change" "$out/runs"

git archive "$base_rev" | tar -x -C "$out/base"
if [ "$change_rev" = WORKTREE ]; then
  git ls-files -co --exclude-standard -z | xargs -0 tar -cf - | tar -x -C "$out/change"
else
  git archive "$change_rev" | tar -x -C "$out/change"
fi
printf 'base   %s\nchange %s\n' "$(git rev-parse --short "$base_rev")" \
  "$([ "$change_rev" = WORKTREE ] && echo "working tree" || git rev-parse --short "$change_rev")" \
  > "$out/revisions.txt"

# Build both sides before the first measured run (perf/run.sh with no
# arguments builds, then exits with its usage message).
for side in base change; do
  (cd "$out/$side" && sh perf/run.sh > /dev/null 2> "$out/$side-build.log") || true
  if [ ! -x "$out/$side/.bench_build/dune/default/perf/main.exe" ]; then
    echo "bench/ab.sh: $side does not build; see $out/$side-build.log" >&2
    exit 1
  fi
done

run() { # side workload round seed
  (cd "$out/$1" && sh perf/run.sh --workload "$2" --seed "$4" --seconds "$seconds" --trace 0) \
    > "$out/runs/$2-$1-$3.json" 2> "$out/runs/$2-$1-$3.log"
}

r=1
while [ "$r" -le "$rounds" ]; do
  seed=$((seed0 + r))
  for w in $workloads; do
    if [ $((r % 2)) -eq 1 ]; then
      run base "$w" "$r" "$seed"; run change "$w" "$r" "$seed"
    else
      run change "$w" "$r" "$seed"; run base "$w" "$r" "$seed"
    fi
  done
  echo "round $r/$rounds done (seed $seed)" >&2
  r=$((r + 1))
done

# One line per run: workload side round metric value, from the run's
# final JSON line; plus a "correct" pseudo-metric.
for f in "$out"/runs/*.json; do
  b=$(basename "$f" .json)
  tail -n 1 "$f" | awk -v id="$b" -v metrics="$metrics" '
    {
      n = split(id, p, "-"); rd = p[n]; side = p[n - 1]; w = p[1]
      for (i = 2; i <= n - 2; i++) w = w "-" p[i]
      ok = ($0 ~ /"correct":true/ && $0 ~ /"failed":0[,}]/) ? 1 : 0
      print w, side, rd, "correct", ok
      m = split(metrics, ms, /[ \n]+/)
      for (i = 1; i <= m; i++) {
        split(ms[i], f, ":")
        if (match($0, "\"" f[1] "\":\\{\"value\":[-0-9.eE+]+")) {
          v = substr($0, RSTART, RLENGTH); sub(/.*:/, "", v)
          print w, side, rd, f[1], v
        }
      }
    }'
done > "$out/values.txt"

{
  cat "$out/revisions.txt"
  echo "rounds $rounds, $seconds s per run, seeds $((seed0 + 1))..$((seed0 + rounds)), order alternated per round"
  awk -v metrics="$metrics" -v wl="$workloads" '
    function sort(a, n,   i, j, t) {
      for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
    }
    # Quantile with linear interpolation between order statistics.
    function q(a, n, p,   h, lo) {
      if (n == 0) return 0
      h = (n - 1) * p + 1; lo = int(h)
      return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    { v[$1, $2, $3, $4] = $5; if ($3 > maxr) maxr = $3 }
    $4 == "correct" && $5 == 0 { bad = bad sprintf("  %s %s round %s: correct=false or failed ops\n", $1, $2, $3) }
    END {
      nw = split(wl, ws, /[ \n]+/); nm = split(metrics, ms, /[ \n]+/)
      printf "%-9s %-13s %22s %22s %6s %8s %6s %s\n", "workload", "metric", "base median (IQR)",
        "change median (IQR)", "wins", "delta", "bound", "verdict"
      for (i = 1; i <= nw; i++) for (k = 1; k <= nm; k++) {
        split(ms[k], f, ":"); m = f[1]; lower = (f[2] == "lower"); bound = f[3]
        nb = 0; nc = 0; wins = 0; losses = 0; pairs = 0
        for (r = 1; r <= maxr; r++) {
          hb = ((ws[i], "base", r, m) in v); hc = ((ws[i], "change", r, m) in v)
          if (hb) b[++nb] = v[ws[i], "base", r, m]
          if (hc) c[++nc] = v[ws[i], "change", r, m]
          if (hb && hc) {
            pairs++; d = v[ws[i], "change", r, m] - v[ws[i], "base", r, m]
            if (lower ? d < 0 : d > 0) wins++; else if (d != 0) losses++
          }
        }
        if (nb == 0 || nc == 0) continue
        sort(b, nb); sort(c, nc)
        mb = q(b, nb, 0.5); mc = q(c, nc, 0.5); iqr = q(b, nb, 0.75) - q(b, nb, 0.25)
        rel = mb == 0 ? 0 : (mc - mb) / mb
        worse = lower ? rel : -rel
        verdict = pairs < 10 ? "(<10 rounds)" : "-"
        if (pairs >= 10 && 10 * wins >= 9 * pairs && (lower ? mb - mc : mc - mb) > iqr) verdict = "better"
        if (pairs >= 10 && 10 * losses >= 9 * pairs && (lower ? mc - mb : mb - mc) > iqr) verdict = "worse"
        printf "%-9s %-13s %12.4g (%7.3g) %12.4g (%7.3g) %3d/%-2d %+7.1f%% %6s %s\n", ws[i], m, mb,
          iqr, mc, q(c, nc, 0.75) - q(c, nc, 0.25), wins, pairs, 100 * rel,
          (worse > bound ? "OVER" : "ok"), verdict
      }
      if (bad != "") printf "runs that failed the correctness gate:\n%s", bad
    }' "$out/values.txt"
} | tee "$out/summary.txt"
