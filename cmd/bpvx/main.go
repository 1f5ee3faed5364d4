// Command bpvx runs the backward-propagation-of-variance statistical
// extraction in isolation: golden Monte Carlo over the extraction
// geometries, then the per-geometry and joint solves, printing the measured
// variances, the sensitivity matrices and the resulting α coefficients
// (paper Sec. III / Table II).
//
// Usage:
//
//	bpvx [-kind nmos|pmos] [-n 1500] [-seed N] [-individual]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"vstat/internal/bpv"
	"vstat/internal/core"
	"vstat/internal/device"
	"vstat/internal/experiments"
	"vstat/internal/extract"
	"vstat/internal/montecarlo"
	"vstat/internal/obs/trace"
	"vstat/internal/stats"
)

func main() {
	kindFlag := flag.String("kind", "nmos", "device polarity")
	n := flag.Int("n", 1500, "Monte Carlo samples per geometry")
	seed := flag.Int64("seed", 1, "random seed")
	individual := flag.Bool("individual", false, "also print per-geometry solves (Fig. 2 mode)")
	vdd := flag.Float64("vdd", 0.9, "supply voltage")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file of the golden MC runs to this path")
	traceK := flag.Int("trace-k", 0, "with -trace-out, keep the K worst samples per geometry run (0 = default 8)")
	flag.Parse()

	var kind device.Kind
	switch *kindFlag {
	case "nmos":
		kind = device.NMOS
	case "pmos":
		kind = device.PMOS
	default:
		fatal(fmt.Errorf("bad -kind %q", *kindFlag))
	}

	golden := core.DefaultStatGolden()
	vs := core.DefaultStatVS()

	// Nominal fit first (the BPV sensitivities live on the fitted card).
	ref := golden.Card(kind, 300e-9, 40e-9)
	ds := extract.SampleDevice(&ref, *vdd)
	fitted, _, err := extract.FitVS(vs.Card(kind, 300e-9, 40e-9), ds)
	if err != nil {
		fatal(err)
	}
	ref44 := golden.Card(kind, 300e-9, 44e-9)
	if cal, err := extract.CalibrateLDelta(fitted, &ref44, *vdd); err == nil {
		fitted = cal
	}

	var rec *trace.Recorder
	var runSpan *trace.Span
	if *traceOut != "" {
		rec = trace.New("bpvx", *traceK)
		runSpan = rec.Start("bpvx "+*kindFlag, trace.CatRun, 0)
	}

	tg := bpv.Targets{Vdd: *vdd}
	var data []bpv.GeometryVariance
	fmt.Printf("golden MC variances (N=%d per geometry):\n", *n)
	fmt.Printf("%10s %8s %14s %14s %14s\n", "W (nm)", "L (nm)", "sIdsat (uA)", "sLog10Ioff", "sCgg (aF)")
	for gi, g := range experiments.ExtractionGeometries {
		var opts montecarlo.RunOpts
		var gSpan *trace.Span
		if rec != nil {
			gSpan = rec.Start(fmt.Sprintf("golden-mc W=%.0fnm L=%.0fnm", g[0]*1e9, g[1]*1e9),
				trace.CatMCRun, runSpan.ID())
			opts.Trace = trace.NewMC(rec, fmt.Sprintf("golden-%d", gi), gSpan.ID(), *traceK)
		}
		samples, _, err := montecarlo.MapPooledReportCtx(context.Background(), *n, *seed+int64(gi)*7919, 0, opts,
			func(int) (struct{}, error) { return struct{}{}, nil },
			func(_ struct{}, idx int, rng *rand.Rand) ([]float64, error) {
				return tg.EvalVec(golden.SampleDevice(rng, kind, g[0], g[1])), nil
			})
		if opts.Trace != nil {
			opts.Trace.Finish()
		}
		gSpan.End()
		if err != nil {
			fatal(err)
		}
		gv := bpv.GeometryVariance{
			W: g[0], L: g[1],
			SigmaIdsat:   stats.StdDev(montecarlo.Column(samples, 0)),
			SigmaLogIoff: stats.StdDev(montecarlo.Column(samples, 1)),
			SigmaCgg:     stats.StdDev(montecarlo.Column(samples, 2)),
		}
		data = append(data, gv)
		fmt.Printf("%10.0f %8.0f %14.3f %14.4f %14.3f\n",
			g[0]*1e9, g[1]*1e9, gv.SigmaIdsat*1e6, gv.SigmaLogIoff, gv.SigmaCgg*1e18)
	}

	ex := &bpv.Extraction{Card: fitted, Kind: kind, Vdd: *vdd, Alpha5: golden.Alphas(kind).A5}
	al, err := ex.SolveJoint(data)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\njoint solve: %s\n", al)

	if *individual {
		fmt.Println("\nper-geometry solves:")
		for _, gv := range data {
			ind, err := ex.SolveIndividual(gv)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  W=%4.0f nm: %s\n", gv.W*1e9, ind)
		}
	}

	if rec != nil {
		runSpan.End()
		if err := rec.WriteFile(*traceOut); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
		fmt.Printf("\ntrace written to %s (inspect with 'vstrace summarize %s')\n", *traceOut, *traceOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bpvx:", err)
	os.Exit(1)
}
