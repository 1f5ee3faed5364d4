package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"vstat/bench/hostspeed"
)

func readDef(t *testing.T) benchDef {
	t.Helper()
	var def benchDef
	if err := readJSON("../BENCHMARK.json", &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestMetricsMatchBenchmarkJSON pins the metric and workload names and
// units the program reports to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	def := readDef(t)
	var e2e, layers, names []string
	for _, m := range def.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range def.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	text := func(ds []metricDef) []string {
		var s []string
		for _, d := range ds {
			s = append(s, d.name+" "+d.unit)
		}
		return s
	}
	if got, want := strings.Join(text(endToEnd), ", "), strings.Join(e2e, ", "); got != want {
		t.Errorf("end-to-end metrics %s; BENCHMARK.json has %s", got, want)
	}
	if got, want := strings.Join(text(perLayer), ", "), strings.Join(layers, ", "); got != want {
		t.Errorf("per-layer metrics %s; BENCHMARK.json has %s", got, want)
	}
	if got, want := workloadNames(), strings.Join(names, ", "); got != want {
		t.Errorf("workloads %s; BENCHMARK.json has %s", got, want)
	}
}

// TestSmoke runs every workload at 16 samples, untraced and traced: each
// run must pass its output checks (the traced one includes bit-identity
// of traced and untraced rounds) and print every metric of its kind with
// its unit.
func TestSmoke(t *testing.T) {
	def := readDef(t)
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			res, err := runOne(runOpts{w: w, seed: defaultSeed, samples: 16, trace: traced, workdir: t.TempDir(), log: &log})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || len(res.Findings) > 0 || res.Attempted != 16*(1+boolInt(traced)) {
				t.Errorf("%s trace=%v: correct=%v attempted=%d checks=%q findings=%q",
					w.name, traced, res.Correct, res.Attempted, res.Checks, res.Findings)
			}
			want := map[string]string{}
			for _, m := range def.EndToEnd {
				if !traced {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range def.PerLayer {
				if traced {
					want[m.Name] = m.Unit
				}
			}
			for _, line := range strings.Split(log.String(), "\n") {
				f := strings.Fields(line)
				if len(f) == 4 && f[0] == w.name && want[f[1]] == f[3] {
					delete(want, f[1])
				}
			}
			if len(want) > 0 {
				t.Errorf("%s trace=%v: metrics not printed with their units: %v", w.name, traced, want)
			}
		}
	}
	t.Logf("all workloads at 16 samples, untraced and traced: %v", time.Since(start))
}

// TestPerturbedReferenceFails checks that the output checks catch a moved
// reference: the population mean, the population σ, and (with the round
// size matched to the run) the tight round-0 mean.
func TestPerturbedReferenceFails(t *testing.T) {
	w := findWorkload("inv_delay")
	g, err := newRig(w, defaultSeed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, rounds, err := g.measure(budget{samples: 16}, defaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := references.Workloads[w.ref]
	if bad := checkOutputs(w, defaultSeed, rounds, ref); len(bad) > 0 {
		t.Fatalf("recorded reference fails: %q", bad)
	}
	round0 := rounds[0].sum[0].Mean() * w.outputs[0].scale
	for _, tc := range []struct {
		name  string
		edit  func(*outputRef, *workloadRef)
		fails bool
	}{
		{"mean+10sigma", func(o *outputRef, _ *workloadRef) { o.Mean += 10 * o.Sigma }, true},
		{"sigma/3", func(o *outputRef, _ *workloadRef) { o.Sigma /= 3 }, true},
		{"round0 mean +2e-3", func(o *outputRef, r *workloadRef) { r.Round, o.Round0Mean = 16, round0*(1+2e-3) }, true},
		{"round0 mean +5e-4", func(o *outputRef, r *workloadRef) {
			r.Round, o.Round0Mean, o.Round0Sigma = 16, round0*(1+5e-4), rounds[0].sum[0].Std()*w.outputs[0].scale
		}, false},
	} {
		p := ref
		p.Outputs = append([]outputRef(nil), ref.Outputs...)
		tc.edit(&p.Outputs[0], &p)
		if bad := checkOutputs(w, defaultSeed, rounds, p); (len(bad) > 0) != tc.fails {
			t.Errorf("%s: check failures %q, want failing=%v", tc.name, bad, tc.fails)
		}
	}
}

// TestHostSpeedNormalization checks the pass arithmetic: samples timed on
// a host slowed by 2 report half their wall time and twice the wall rate.
func TestHostSpeedNormalization(t *testing.T) {
	if got := hostspeed.Slowdown(hostspeed.Ref, 3*hostspeed.Ref); got != 2 {
		t.Fatalf("slowdown(ref, 3·ref) = %v, want 2", got)
	}
	ps := newPass(nil)
	t0 := ps.base
	ps.addSample(t0, t0.Add(10*time.Millisecond), 2)
	ps.addSample(t0.Add(10*time.Millisecond), t0.Add(30*time.Millisecond), 2)
	if ps.norm[0] != 5 || ps.norm[1] != 10 {
		t.Errorf("normalized sample times %v ms, want [5 10]", ps.norm)
	}
	if got, want := ps.samplesPerS(), 2*ps.wallSamplesPerS(); got != want {
		t.Errorf("samples/s %v, want twice the wall rate %v", got, want)
	}
	if d := hostspeed.Probe(); d <= 0 {
		t.Errorf("host probe took %v", d)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	seq := func(base, step float64) []float64 {
		var xs []float64
		for i := 0; i < 10; i++ {
			xs = append(xs, base+step*float64(i%5))
		}
		return xs
	}
	pair := func(p, c []float64) [][2]float64 {
		var out [][2]float64
		for i := range p {
			out = append(out, [2]float64{p[i], c[i]})
		}
		return out
	}
	for _, tc := range []struct {
		name         string
		higherBetter bool
		p, c         []float64
		want         string
	}{
		{"same", true, seq(100, 1), seq(100, 1), "no-worse"},
		{"faster", true, seq(100, 1), seq(120, 1), "improved"},
		{"slower", true, seq(100, 1), seq(80, 1), "regressed"},
		{"lower-better slower", false, seq(100, 1), seq(120, 1), "regressed"},
		{"noisy", true, seq(100, 10), seq(101, 10), "unresolved"},
	} {
		if got, _ := judge(tc.higherBetter, 0.1, tc.p, tc.c, pair(tc.p, tc.c)); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
