package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json compare and the tests read.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// compareMain judges a change against its parent, per workload and
// end-to-end metric, from two sets of -out files (runs pair up by seed).
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("vsperf compare", flag.ExitOnError)
	boundsPath := fs.String("bounds", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: vsperf compare [-bounds BENCHMARK.json] PARENT.json[,PARENT2.json…] CHANGE.json[,CHANGE2.json…]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	var def benchDef
	if err := readJSON(*boundsPath, &def); err != nil {
		fmt.Fprintf(os.Stderr, "vsperf compare: %v\n", err)
		return 1
	}
	var sides [2][]result
	for i := range sides {
		for _, path := range strings.Split(fs.Arg(i), ",") {
			var rf runFile
			if err := readJSON(path, &rf); err != nil {
				fmt.Fprintf(os.Stderr, "vsperf compare: %v\n", err)
				return 1
			}
			sides[i] = append(sides[i], rf.Runs...)
		}
	}
	regressed := false
	fmt.Fprintf(w, "%-18s %-14s %28s %28s %7s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range def.Workloads {
		tally := map[string]int{}
		for _, m := range def.EndToEnd {
			p, c, pairs := collect(sides[0], sides[1], wl.Name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v, wins := judge(m.Better == "higher", m.Bound, p, c, pairs)
			tally[v]++
			fmt.Fprintf(w, "%-18s %-14s %28s %28s %3d/%-3d  %s\n", wl.Name, m.Name,
				quartileText(p), quartileText(c), wins, len(pairs), v)
		}
		var parts []string
		for _, v := range []string{"regressed", "unresolved", "improved", "no-worse"} {
			if tally[v] > 0 {
				parts = append(parts, fmt.Sprintf("%d %s", tally[v], v))
			}
		}
		fmt.Fprintf(w, "%-18s %s\n", wl.Name+":", strings.Join(parts, ", "))
		regressed = regressed || tally["regressed"] > 0
	}
	if regressed {
		return 1
	}
	return 0
}

// collect gathers one workload's untraced values of a metric from both
// sides, and pairs the runs that share a seed.
func collect(parent, change []result, workload, metric string) (p, c []float64, pairs [][2]float64) {
	bySeed := map[int64][]float64{}
	for _, r := range parent {
		if mv, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			p = append(p, mv.Value)
			bySeed[r.Seed] = append(bySeed[r.Seed], mv.Value)
		}
	}
	for _, r := range change {
		if mv, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			c = append(c, mv.Value)
			if q := bySeed[r.Seed]; len(q) > 0 {
				pairs = append(pairs, [2]float64{q[0], mv.Value})
				bySeed[r.Seed] = q[1:]
			}
		}
	}
	return p, c, pairs
}

// judge returns the verdict on one metric and the pairs the change won.
// improved: at least ten pairs, 9/10 of them won, and the medians differ
// by more than the parent's interquartile range. unresolved: either
// side's relative spread exceeds the bound, unless every change run is
// better (or every one worse) than every parent run. regressed: the
// change's median is worse than the parent's by more than the bound.
// Otherwise no-worse.
func judge(higherBetter bool, bound float64, p, c []float64, pairs [][2]float64) (string, int) {
	gain := func(parent, change float64) float64 {
		if higherBetter {
			return change - parent
		}
		return parent - change
	}
	wins := 0
	for _, pr := range pairs {
		if gain(pr[0], pr[1]) > 0 {
			wins++
		}
	}
	pq, cq := quartiles(p), quartiles(c)
	pm, cm := pq[1], cq[1]
	if len(pairs) >= 10 && 10*wins >= 9*len(pairs) && gain(pm, cm) > pq[2]-pq[0] {
		return "improved", wins
	}
	// Worst change run against best parent run, and the other way round.
	allBetter := gain(extreme(p, higherBetter), extreme(c, !higherBetter)) > 0
	allWorse := gain(extreme(p, !higherBetter), extreme(c, higherBetter)) < 0
	worse := -gain(pm, cm) / math.Abs(pm)
	spread := math.Max((pq[2]-pq[0])/math.Abs(pm), (cq[2]-cq[0])/math.Abs(cm))
	switch {
	case spread > bound && allWorse && worse > bound:
		return "regressed", wins
	case spread > bound && allBetter:
		return "no-worse", wins
	case spread > bound:
		return "unresolved", wins
	case worse > bound:
		return "regressed", wins
	}
	return "no-worse", wins
}

// extreme returns the largest value when hi is set, else the smallest.
func extreme(xs []float64, hi bool) float64 {
	v := xs[0]
	for _, x := range xs[1:] {
		if (hi && x > v) || (!hi && x < v) {
			v = x
		}
	}
	return v
}

// quartiles returns q1, median and q3 the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

func quartileText(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
