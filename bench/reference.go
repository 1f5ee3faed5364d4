package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"vstat/internal/montecarlo"
	"vstat/internal/stats"
)

// reference holds the recorded output statistics the checks compare
// against (reference.json, written by "vsperf reference").
type reference struct {
	Seed      int64                  `json:"seed"`
	Workloads map[string]workloadRef `json:"workloads"`
}

// workloadRef is one workload's population at the reference seed: Samples
// samples in rounds of Round.
type workloadRef struct {
	Round   int         `json:"round"`
	Samples int         `json:"samples"`
	Outputs []outputRef `json:"outputs"`
}

// outputRef summarizes one output, in the output's unit: the whole
// population's mean, σ and excess kurtosis, and round 0's mean and σ.
type outputRef struct {
	Name           string  `json:"name"`
	Unit           string  `json:"unit"`
	Mean           float64 `json:"mean"`
	Sigma          float64 `json:"sigma"`
	ExcessKurtosis float64 `json:"excess_kurtosis"`
	Round0Mean     float64 `json:"round0_mean"`
	Round0Sigma    float64 `json:"round0_sigma"`
}

//go:embed reference.json
var referenceJSON []byte

var references = func() reference {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		panic("reference.json: " + err.Error())
	}
	return r
}()

// referenceRounds is how many full rounds a reference population holds.
const referenceRounds = 32

// referenceMain records reference.json: every workload with its own
// population (the sharded one shares inv_delay's) run for referenceRounds
// full rounds at the reference seed on the local engine.
func referenceMain(args []string) int {
	fs := flag.NewFlagSet("vsperf reference", flag.ExitOnError)
	out := fs.String("out", "reference.json", "where to write the reference")
	fs.Parse(args)
	ref := reference{Seed: defaultSeed, Workloads: map[string]workloadRef{}}
	for _, w := range workloads {
		if w.ref != w.name {
			continue
		}
		g, err := newRig(w, defaultSeed, "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "vsperf reference: %s: %v\n", w.name, err)
			return 1
		}
		_, rs, err := g.measure(budget{samples: referenceRounds * w.round}, defaultSeed, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vsperf reference: %s: %v\n", w.name, err)
			return 1
		}
		wr := workloadRef{Round: w.round}
		for k, o := range w.outputs {
			var tot montecarlo.StreamSummary
			var xs []float64
			for i := range rs {
				tot.Merge(&rs[i].sum[k])
				for _, v := range rs[i].vals {
					xs = append(xs, v[k])
				}
			}
			wr.Samples = len(xs)
			wr.Outputs = append(wr.Outputs, outputRef{
				Name: o.name, Unit: o.unit,
				Mean: tot.Mean() * o.scale, Sigma: tot.Std() * o.scale,
				ExcessKurtosis: stats.ExcessKurtosis(xs),
				Round0Mean:     rs[0].sum[k].Mean() * o.scale,
				Round0Sigma:    rs[0].sum[k].Std() * o.scale,
			})
		}
		ref.Workloads[w.name] = wr
		fmt.Printf("%s: %d samples\n", w.name, wr.Samples)
	}
	if err := writeJSON(*out, ref); err != nil {
		fmt.Fprintf(os.Stderr, "vsperf reference: %v\n", err)
		return 1
	}
	return 0
}
