// dvfs_nand2 demonstrates the paper's low-power claim (Fig. 7): with purely
// Gaussian VS parameter variations, NAND2 gate-delay distributions stay
// Gaussian at nominal Vdd but turn visibly non-Gaussian under dynamic
// voltage scaling — and no re-extraction is needed, because the statistical
// VS model is bias-independent.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/measure"
	"vstat/internal/montecarlo"
	"vstat/internal/spice"
	"vstat/internal/stats"
	"vstat/internal/variation"
)

func main() {
	n := flag.Int("n", 300, "Monte Carlo samples per supply point")
	flag.Parse()

	stat := core.DefaultStatVS()
	stat.AlphaN = variation.FromPaperUnits(2.3, 3.71, 3.71, 944, 0.29)
	stat.AlphaP = variation.FromPaperUnits(2.86, 3.66, 3.66, 781, 0.81)

	sz := circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
	fmt.Printf("%8s %12s %10s %10s %12s %12s\n",
		"Vdd (V)", "mean (ps)", "sd (ps)", "sd/mean", "skewness", "QQ nonlin")
	for _, vdd := range []float64{0.9, 0.7, 0.55} {
		delays, err := montecarlo.MapCtx(context.Background(), *n, int64(vdd*1000), 0,
			func(idx int, rng *rand.Rand) (float64, error) {
				b := circuits.NAND2FO(3, vdd, sz, stat.Statistical(rng))
				res, err := b.Ckt.Transient(spice.TranOpts{Stop: 560e-12, Step: 1.5e-12})
				if err != nil {
					return 0, err
				}
				return measure.PairDelay(res, b.In, b.Out, vdd)
			})
		if err != nil {
			panic(err)
		}
		mean := stats.Mean(delays)
		sd := stats.StdDev(delays)
		fmt.Printf("%8.2f %12.2f %10.2f %10.3f %12.3f %12.4f\n",
			vdd, mean*1e12, sd*1e12, sd/mean, stats.Skewness(delays), stats.QQNonlinearity(delays))
	}
	fmt.Println("\nThe rising skewness/QQ columns show the non-Gaussian onset at low Vdd")
	fmt.Println("even though every sampled parameter is an independent Gaussian (paper Fig. 7).")
}
