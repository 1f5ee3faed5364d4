// sram_snm draws the 6T SRAM butterfly curves and Monte Carlos the static
// noise margin with the statistical Virtual Source model — the core of
// paper Fig. 9, including the slightly non-Gaussian HOLD SNM tail.
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
	"vstat/internal/stats"
	"vstat/internal/variation"
)

func main() {
	n := flag.Int("n", 400, "Monte Carlo samples")
	flag.Parse()

	stat := core.DefaultStatVS()
	// Paper Table II coefficients (skip re-extraction for this example).
	stat.AlphaN = variation.FromPaperUnits(2.3, 3.71, 3.71, 944, 0.29)
	stat.AlphaP = variation.FromPaperUnits(2.86, 3.66, 3.66, 781, 0.81)

	// Nominal butterfly curves.
	cell := circuits.NewSRAMCell(0.9, circuits.DefaultSRAMSizing(), stat.Nominal())
	for _, mode := range []struct {
		name string
		read bool
	}{{"HOLD", false}, {"READ", true}} {
		l, r, err := cell.Butterfly(mode.read, 41)
		if err != nil {
			panic(err)
		}
		res, err := measure.SNM(l, r)
		if err != nil {
			panic(err)
		}
		fmt.Printf("nominal %s SNM = %.1f mV (lobes %.1f / %.1f)\n",
			mode.name, res.SNM*1e3, res.Upper*1e3, res.Lower*1e3)
	}

	// Monte Carlo HOLD SNM.
	snms, err := montecarlo.MapCtx(context.Background(), *n, 7, 0, func(idx int, rng *rand.Rand) (float64, error) {
		c := circuits.NewSRAMCell(0.9, circuits.DefaultSRAMSizing(), stat.Statistical(rng))
		l, r, err := c.Butterfly(false, 41)
		if err != nil {
			return 0, err
		}
		res, err := measure.SNM(l, r)
		return res.SNM, err
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nHOLD SNM over %d Monte Carlo cells: mean %.1f mV, sd %.1f mV\n",
		*n, stats.Mean(snms)*1e3, stats.StdDev(snms)*1e3)
	fmt.Printf("skewness %.3f, QQ nonlinearity %.4f (slightly non-Gaussian, Fig. 9f)\n",
		stats.Skewness(snms), stats.QQNonlinearity(snms))
	q := stats.Quantiles(snms, []float64{0.001, 0.01, 0.5, 0.99, 0.999})
	fmt.Printf("quantiles: 0.1%%=%.1f 1%%=%.1f 50%%=%.1f 99%%=%.1f 99.9%%=%.1f mV\n",
		q[0]*1e3, q[1]*1e3, q[2]*1e3, q[3]*1e3, q[4]*1e3)
}
