#!/usr/bin/env bash
# Paired runs of the repository benchmark: a parent commit against the working
# tree, the procedure of the choosing-metrics guide's section 8.
#
#   bash scripts/bench-pairs.sh <parent-ref> <workload> [pairs] [seconds]
#   make bench-pairs PARENT=<ref> W=<workload> N=10
#
# The parent's committed files are unpacked (git archive) into
# $BENCH_PAIRS_DIR/parent — a fresh temporary directory unless set — and both
# sides run through their own unmodified benchmark/run.sh, which builds from
# the source beside it. Pair i runs both sides on seed i, the parent first on
# odd pairs and the working tree first on even ones. For every end-to-end
# metric BENCHMARK.json declares it prints each side's median and quartiles,
# how many pairs the working tree won, and whether that is a gain by the
# guide's rule: at least nine tenths of the pairs won (ties count for neither
# side) and medians further apart than the parent's own quartiles.
set -euo pipefail

parent=${1:?usage: bench-pairs.sh <parent-ref> <workload> [pairs] [seconds]}
workload=${2:?usage: bench-pairs.sh <parent-ref> <workload> [pairs] [seconds]}
pairs=${3:-10}
root=$(git rev-parse --show-toplevel)
seconds=${4:-$(awk -F'[:,]' '/"run_seconds"/ { print $2 + 0 }' "$root/BENCHMARK.json")}
dir=${BENCH_PAIRS_DIR:-$(mktemp -d)}
mkdir -p "$dir/parent"
git -C "$root" archive "$parent" | tar -x -C "$dir/parent"
runs="$dir/runs.txt"
: >"$runs"

# one <side> <checkout> <pair>: a run's metric lines as "side pair name value".
one() {
	(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) |
		awk -v side="$1" -v pair="$3" '/^   [a-z0-9_.]+ +-?[0-9.]+ / { print side, pair, $1, $2 }' >>"$runs"
}

for ((i = 1; i <= pairs; i++)); do
	echo "pair $i of $pairs" >&2
	if ((i % 2)); then
		one parent "$dir/parent" "$i"
		one change "$root" "$i"
	else
		one change "$root" "$i"
		one parent "$dir/parent" "$i"
	fi
done

# The end-to-end metrics and which way is better, in BENCHMARK.json's order.
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && /"name"/ { split($0, a, "\""); name = a[4] }
	on && /"better"/ { split($0, a, "\""); print name, a[4] }' "$root/BENCHMARK.json" >"$dir/metrics.txt"

echo "workload $workload, $pairs pairs, ${seconds}s passes, parent $parent ($(git -C "$root" rev-parse --short "$parent"))"
printf '%-22s %33s %33s %10s  %s\n' metric "parent median [q1, q3]" "change median [q1, q3]" "wins/ties" gain
awk -v pairs="$pairs" '
	function quantile(v, n, p,    h, lo) {
		h = (n - 1) * p; lo = int(h)
		return lo + 1 < n ? v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1]) : v[n]
	}
	function summary(side, name, out,    n, i, j, t, v) {
		n = 0
		for (i = 1; i <= pairs; i++) if ((side, i, name) in val) v[++n] = val[side, i, name]
		if (n == 0) return 0
		for (i = 2; i <= n; i++) # insertion sort: asort is gawk only
			for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
		out["q1"] = quantile(v, n, 0.25); out["med"] = quantile(v, n, 0.5); out["q3"] = quantile(v, n, 0.75)
		return n
	}
	NR == FNR { better[$1] = $2; order[++m] = $1; next }
	{ val[$1, $2, $3] = $4 }
	END {
		for (k = 1; k <= m; k++) {
			name = order[k]
			if (!summary("parent", name, p) || !summary("change", name, c)) continue
			wins = ties = 0
			for (i = 1; i <= pairs; i++) {
				a = val["parent", i, name]; b = val["change", i, name]
				if (a == b) ties++
				else if ((better[name] == "lower") == (b < a)) wins++
			}
			d = better[name] == "lower" ? p["med"] - c["med"] : c["med"] - p["med"]
			gain = (wins >= 0.9 * pairs && d > p["q3"] - p["q1"]) ? "yes" : "no"
			printf "%-22s %12.4f [%8.4f, %8.4f] %12.4f [%8.4f, %8.4f] %7d/%-2d  %s\n",
				name, p["med"], p["q1"], p["q3"], c["med"], c["q1"], c["q3"], wins, ties, gain
		}
	}' "$dir/metrics.txt" "$runs"
echo "every run: $runs"
