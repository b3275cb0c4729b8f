#!/usr/bin/env bash
# Alternating parent/change pairs of the repository's benchmark — the
# procedure a claimed gain is judged by (benchmark/README.md, ROADMAP
# item 6), as one command:
#
#   make bench-pairs PARENT=<sha> [N=10] [WORKLOAD="terasort_osu ..."] [SEED=1]
#
# The parent commit is unpacked under .bench_build/parent and the change is
# the working tree; each side is built by its own benchmark/run.sh into its
# own .bench_build/, so both are measured by the benchmark code they carry.
# Pair i runs the parent first when i is odd and the change first when it is
# even: host speed drifts by several percent over minutes and only
# alternation cancels that. Per workload and end-to-end metric it prints
# both medians, the parent's quartiles, the change relative to the parent,
# and in how many pairs the change read better (ties count for neither
# side) — what the rules need: a gain may be claimed when the change wins at
# least nine pairs in ten and the medians differ by more than the parent's
# interquartile range; a metric has regressed when the change's median is
# worse than the parent's by more than its bound in BENCHMARK.json.
# Workloads, metrics, directions and the run length are read from
# BENCHMARK.json. The result line of every run is kept under
# .bench_build/pairs/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

parent=${PARENT:?usage: make bench-pairs PARENT=<sha> [N=10] [WORKLOAD=\"w1 w2\"] [SEED=1]}
pairs=${N:-10}
seed=${SEED:-1}

# spec <section> prints one line per entry of a top-level array of
# BENCHMARK.json: name, then unit and better where the entry has them.
spec() {
	awk -v want="$1" '
		/^  "[a-z_]+": \[/ { section = $1; gsub(/[":]/, "", section) }
		section != want { next }
		{ val = $2; gsub(/[",]/, "", val) }
		$1 == "\"name\":" { name = val; unit = better = "-" }
		$1 == "\"unit\":" { unit = val }
		$1 == "\"better\":" { better = val }
		/^    }/ { print name, unit, better }
	' BENCHMARK.json
}
seconds=$(awk '$1 == "\"run_seconds\":" { gsub(/[^0-9.]/, "", $2); print $2 }' BENCHMARK.json)
workloads=${WORKLOAD:-$(spec workloads | cut -d' ' -f1)}

sha=$(git rev-parse --verify "$parent^{commit}")
pdir=.bench_build/parent
if [[ "$(cat "$pdir/.sha" 2>/dev/null)" != "$sha" ]]; then
	rm -rf "$pdir"
	mkdir -p "$pdir"
	git archive "$sha" | tar -x -C "$pdir"
	echo "$sha" >"$pdir/.sha"
fi
out=.bench_build/pairs
mkdir -p "$out"

# run <side> <checkout> <workload>: one benchmark run, its result line
# appended to the side's file. A run that is not correct stops everything.
run() {
	local line
	line=$(bash "$2/benchmark/run.sh" --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
	if [[ $line != *'"correct":true'* || $line != *'"failed":0,'* ]]; then
		echo "bench-pairs: $1 run of $3 failed: $line" >&2
		exit 1
	fi
	echo "$line" >>"$out/$3.seed$seed.$1"
}

for w in $workloads; do
	rm -f "$out/$w.seed$seed.parent" "$out/$w.seed$seed.change"
	for ((i = 1; i <= pairs; i++)); do
		echo "bench-pairs: $w seed $seed pair $i/$pairs" >&2
		if ((i % 2)); then
			run parent "$pdir" "$w"
			run change . "$w"
		else
			run change . "$w"
			run parent "$pdir" "$w"
		fi
	done

	echo
	echo "$w: seed $seed, $pairs pairs of ${seconds}s runs, parent ${sha:0:7} against the working tree"
	printf '%-16s %-6s %12s %25s %12s %8s %6s\n' metric unit parent '[parent q1 .. q3]' change delta wins
	spec end_to_end | while read -r metric unit better; do
		paste -d'\n' "$out/$w.seed$seed.parent" "$out/$w.seed$seed.change" |
			awk -v metric="$metric" -v unit="$unit" -v better="$better" '
			function value(line) {
				if (!match(line, "\"" metric "\":\\{\"value\":[-+0-9.eE]+")) {
					print "bench-pairs: no " metric " in: " line > "/dev/stderr"
					exit 1
				}
				line = substr(line, RSTART, RLENGTH)
				sub(/.*:/, "", line)
				return line + 0
			}
			# quantile of the sorted v[1..n], linear between neighbours
			function quantile(v, n, q,    h, lo) {
				h = (n - 1) * q + 1
				lo = int(h)
				return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
			}
			function sorted(src, dst, n,    i, j, x) {
				for (i = 1; i <= n; i++) {
					x = src[i]
					for (j = i - 1; j >= 1 && dst[j] > x; j--) dst[j + 1] = dst[j]
					dst[j + 1] = x
				}
			}
			NR % 2 == 1 { p[++n] = value($0) }
			NR % 2 == 0 { c[n] = value($0) }
			END {
				sign = better == "higher" ? 1 : -1
				for (i = 1; i <= n; i++) if ((c[i] - p[i]) * sign > 0) wins++
				sorted(p, ps, n); sorted(c, cs, n)
				pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
				q1 = quantile(ps, n, 0.25); q3 = quantile(ps, n, 0.75)
				printf "%-16s %-6s %12.4g %25s %12.4g %+7.1f%% %3d/%-2d\n", metric, unit, pm,
					sprintf("[%.4g .. %.4g]", q1, q3), cm, pm ? 100 * (cm - pm) / pm : 0, wins, n
			}'
	done
done
