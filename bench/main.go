// Command vsperf is the repository benchmark: closed-loop Monte Carlo on
// the paper's Table IV cells (INV FO3 delay, DFF setup time, SRAM SNM)
// over the extracted statistical VS model, with output checks and a
// separate traced pass that attributes the time to layers. Its timings are
// normalized to a reference host speed by a probe timed around each sample.
//
// Usage:
//
//	vsperf [-workload W] [-seed S] [-seconds T] [-trace 0|1] [-repeat R]
//	       [-out run.json] [-trace-out trace.json] [-workdir DIR]
//	vsperf compare [-bounds BENCHMARK.json] PARENT.json[,…] CHANGE.json[,…]
//	vsperf reference [-out reference.json]
//
// With -workload the run happens in this process: it prints every metric
// as "<workload> <metric> <value> <unit>" and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Without -workload
// every workload runs R times, each run in a fresh child process, one
// after another; repeat i uses seed S+i. bench/run.sh builds the binary
// and runs it; README.md has the details.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// defaultSeed is the MC seed the recorded references were taken at. The
// extraction suite always runs at this seed too (suiteSeed).
const defaultSeed = 20130318

// metricDef names one reported metric and its unit; BENCHMARK.json lists
// the same names and units (bench_test.go pins the two together).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a run reports with tracing off. Their timings
// are taken at the reference host speed (package hostspeed); a run also prints
// them as the wall clock read them, as wall.<metric> lines.
var endToEnd = []metricDef{
	{"samples_per_s", "1/s"},
	{"sample_ms_p50", "ms"},
	{"sample_ms_p90", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics a traced run reports. Metrics of a layer a
// workload never enters (the shard layer outside inv_delay_sharded, the
// measure layer on dff_setup) read 0: every one is a count, a time or a
// share summed over that layer's work.
var perLayer = []metricDef{
	{"experiments.suite_s", "s"},
	{"circuits.template_ms", "ms"},
	{"circuits.restat_us", "us"},
	{"vsmodel.evals_per_sample", "count"},
	{"vsmodel.eval_ns", "ns"},
	{"vsmodel.ms_per_sample", "ms"},
	{"vsmodel.share_pct", "%"},
	{"spice.ms_per_sample", "ms"},
	{"spice.newton_iters_per_sample", "count"},
	{"spice.newton_iters_per_step", "count"},
	{"spice.tran_steps_per_sample", "count"},
	{"spice.rescues_per_sample", "count"},
	{"spice.model_evals_per_sample", "count"},
	{"linalg.matrix_n", "count"},
	{"linalg.matrix_nnz", "count"},
	{"linalg.lu_factors_per_sample", "count"},
	{"linalg.solves_per_sample", "count"},
	{"measure.ms_per_sample", "ms"},
	{"montecarlo.worker_busy_pct", "%"},
	{"runtime.allocs_per_sample", "count"},
	{"runtime.alloc_bytes_per_sample", "B"},
	{"runtime.gc_cpu_pct", "%"},
	{"shard.dispatch_ms_per_sample", "ms"},
	{"shard.exec_ms_per_sample", "ms"},
	{"shard.wire_ms_per_sample", "ms"},
	{"shard.commit_latency_ms_per_sample", "ms"},
	{"shard.fold_us_per_sample", "us"},
	{"shard.template_builds_per_sample", "count"},
	{"shard.journal_commits_per_sample", "count"},
	{"shard.retries", "count"},
	{"shard.peak_live_envelopes", "count"},
	{"shard.overhead_pct", "%"},
	{"trace.coverage_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the last line of a single run's standard output.
type summaryLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runFile is what -out writes and compare reads.
type runFile struct {
	Runs []result `json:"runs"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "reference":
			os.Exit(referenceMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("vsperf", flag.ExitOnError)
	var o runOpts
	wl := fs.String("workload", "", "workload to run in this process (empty: every workload, each in a child process)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "Monte Carlo seed; repeat i of the all-workload mode uses seed+i")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured time per run, in seconds (whole MC rounds run until it has passed)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: an untraced pass, then a traced pass over the same rounds, reporting per-layer metrics")
	repeat := fs.Int("repeat", 1, "with no -workload: runs per workload")
	out := fs.String("out", "", "write every run's metrics, checks and round summaries to this JSON file (the input of compare)")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the traced pass as Chrome trace-event JSON here (Perfetto, vstrace summarize)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the shard journals and child-process result files")
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "vsperf: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "vsperf: -trace must be 0 or 1")
		return 2
	}
	o.trace = *traced == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "vsperf: -seconds must be positive")
		return 2
	}
	if *wl == "" {
		return runAll(o, *repeat, *out)
	}
	w := findWorkload(*wl)
	if w == nil {
		fmt.Fprintf(os.Stderr, "vsperf: unknown workload %q (have %s)\n", *wl, workloadNames())
		return 2
	}
	o.w = w
	o.log = os.Stdout
	res, err := runOne(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vsperf: %s: %v\n", w.name, err)
		return 1
	}
	if *out != "" {
		if err := writeJSON(*out, runFile{Runs: []result{res}}); err != nil {
			fmt.Fprintf(os.Stderr, "vsperf: %v\n", err)
			return 1
		}
	}
	blob, err := json.Marshal(summaryLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "vsperf: %v\n", err)
		return 1
	}
	fmt.Println(string(blob))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload repeat times, each run in a fresh child
// process, so setup and peak RSS are measured per workload.
func runAll(o runOpts, repeat int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "vsperf: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "vsperf: %v\n", err)
		return 1
	}
	var all runFile
	ok := true
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloads {
			seed := o.seed + int64(rep)
			child := filepath.Join(o.workdir, fmt.Sprintf("child-%s-%d.json", w.name, rep))
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(o.seconds), "-trace", boolDigit(o.trace),
				"-workdir", o.workdir, "-out", child}
			if o.traceOut != "" {
				args = append(args, "-trace-out", suffixed(o.traceOut, fmt.Sprintf("%s-%d", w.name, seed)))
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "vsperf: %s seed %d: %v\n", w.name, seed, err)
				ok = false
			}
			var rf runFile
			if err := readJSON(child, &rf); err != nil {
				fmt.Fprintf(os.Stderr, "vsperf: %s seed %d: %v\n", w.name, seed, err)
				ok = false
				continue
			}
			os.Remove(child)
			all.Runs = append(all.Runs, rf.Runs...)
		}
	}
	if out != "" {
		if err := writeJSON(out, all); err != nil {
			fmt.Fprintf(os.Stderr, "vsperf: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func boolDigit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// suffixed inserts tag before path's extension: t.json → t-tag.json.
func suffixed(path, tag string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-" + tag + ext
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
