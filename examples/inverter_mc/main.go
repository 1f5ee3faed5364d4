// inverter_mc runs the full statistical flow on a fanout-of-3 inverter:
// extract the statistical VS model from the golden kit, then Monte Carlo the
// gate delay with both models and compare the distributions — a compact
// version of paper Fig. 5.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/experiments"
	"vstat/internal/measure"
	"vstat/internal/montecarlo"
	"vstat/internal/spice"
	"vstat/internal/stats"
)

func main() {
	n := flag.Int("n", 300, "Monte Carlo samples per model")
	flag.Parse()

	fmt.Println("building statistical VS model (fit + BPV extraction)...")
	suite, err := experiments.NewSuite(experiments.Config{
		Seed: 42, Scale: 0.3, Vdd: 0.9,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("extracted coefficients: %s\n\n", suite.VS.AlphaN)

	sz := circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
	run := func(m core.StatModel, seed int64) []float64 {
		out, err := montecarlo.MapCtx(context.Background(), *n, seed, 0, func(idx int, rng *rand.Rand) (float64, error) {
			b := circuits.InverterFO(3, 0.9, sz, m.Statistical(rng))
			res, err := b.Ckt.Transient(spice.TranOpts{Stop: 560e-12, Step: 1.5e-12})
			if err != nil {
				return 0, err
			}
			return measure.PairDelay(res, b.In, b.Out, 0.9)
		})
		if err != nil {
			panic(err)
		}
		return out
	}

	golden := run(suite.Golden, 1)
	vs := run(suite.VS, 2)
	fmt.Printf("INV FO3 delay over %d samples:\n", *n)
	fmt.Printf("  golden: mean %.2f ps, sd %.2f ps\n", stats.Mean(golden)*1e12, stats.StdDev(golden)*1e12)
	fmt.Printf("  VS    : mean %.2f ps, sd %.2f ps\n", stats.Mean(vs)*1e12, stats.StdDev(vs)*1e12)

	// ASCII histogram of the VS distribution.
	fmt.Println("\nVS delay histogram:")
	for _, b := range stats.Histogram(vs, 12) {
		fmt.Printf("  %6.2f-%6.2f ps %s\n", b.Lo*1e12, b.Hi*1e12, bar(b.Count))
	}
}

func bar(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += "#"
	}
	return s
}
