package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/measure"
	"vstat/internal/montecarlo"
	"vstat/internal/spice"
)

// Table4Row is one benchmark row of paper Table IV.
type Table4Row struct {
	Cell                 string
	Samples              int
	VSTime, GoldenTime   time.Duration
	VSBytes, GoldenBytes uint64 // total heap allocated during the run
	Speedup              float64
	MemRatio             float64
}

// Table4Result is paper Table IV: Monte Carlo runtime and memory of the VS
// model versus the golden model on the same engine. The paper compares
// Verilog-A VS against hand-optimized BSIM4 C code and still sees 4.2×; our
// two models share one implementation language and engine, so the measured
// ratio isolates the pure model-evaluation cost.
type Table4Result struct {
	Rows []Table4Row
}

// table4Counts are the paper's sample counts per row.
var table4Counts = map[string]int{"NAND2": 2000, "DFF": 250, "SRAM": 2000}

// Table4 times the three Monte Carlo workloads for both models,
// single-threaded (Workers=1) so the comparison is a clean per-eval ratio.
func (s *Suite) Table4() (Table4Result, error) {
	var res Table4Result
	type workload struct {
		name string
		run  func(m core.StatModel, n int, seed int64) error
	}
	workloads := []workload{
		{"NAND2", s.table4NAND2},
		{"DFF", s.table4DFF},
		{"SRAM", s.table4SRAM},
	}
	for wi, w := range workloads {
		n := s.Cfg.samples(table4Counts[w.name])
		row := Table4Row{Cell: w.name, Samples: n}
		var err error
		row.VSTime, row.VSBytes, err = timed(func() error {
			return w.run(s.VS, n, s.Cfg.Seed+int64(400+wi))
		})
		if err != nil {
			return res, fmt.Errorf("table4 %s VS: %w", w.name, err)
		}
		row.GoldenTime, row.GoldenBytes, err = timed(func() error {
			return w.run(s.Golden, n, s.Cfg.Seed+int64(400+wi))
		})
		if err != nil {
			return res, fmt.Errorf("table4 %s golden: %w", w.name, err)
		}
		row.Speedup = float64(row.GoldenTime) / float64(row.VSTime)
		if row.VSBytes > 0 {
			row.MemRatio = float64(row.GoldenBytes) / float64(row.VSBytes)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// timed runs fn and reports wall time and heap bytes allocated.
func timed(fn func() error) (time.Duration, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	dt := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return dt, m1.TotalAlloc - m0.TotalAlloc, err
}

func (s *Suite) table4NAND2(m core.StatModel, n int, seed int64) error {
	sz := circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
	for i := 0; i < n; i++ {
		rng := table4RNG(seed, i)
		b := circuits.NAND2FO(3, s.Cfg.Vdd, sz, m.Statistical(rng))
		tr, err := b.Ckt.Transient(spice.TranOpts{Stop: gateTranStop, Step: gateTranStep})
		if err != nil {
			return err
		}
		if _, err := measure.PairDelay(tr, b.In, b.Out, s.Cfg.Vdd); err != nil {
			return err
		}
	}
	return nil
}

func (s *Suite) table4DFF(m core.StatModel, n int, seed int64) error {
	opts := measure.DefaultSetupOpts()
	for i := 0; i < n; i++ {
		rng := table4RNG(seed, i)
		ff := circuits.NewDFF(s.Cfg.Vdd, circuits.DefaultDFFSizing(), m.Statistical(rng))
		if _, err := measure.SetupTime(ff, opts); err != nil {
			return err
		}
	}
	return nil
}

func (s *Suite) table4SRAM(m core.StatModel, n int, seed int64) error {
	for i := 0; i < n; i++ {
		rng := table4RNG(seed, i)
		cell := circuits.NewSRAMCell(s.Cfg.Vdd, circuits.DefaultSRAMSizing(), m.Statistical(rng))
		l, r, err := cell.Butterfly(false, butterflyPoints)
		if err != nil {
			return err
		}
		if _, err := measure.SNM(l, r); err != nil {
			return err
		}
	}
	return nil
}

// table4RNG is sample idx's PRNG: the stream of rand.NewSource at a
// per-sample seed, from the lazily seeded source so the allocation columns
// do not count a PRNG register per sample.
func table4RNG(seed int64, idx int) *rand.Rand {
	return rand.New(montecarlo.NewSource(seed*1000003 + int64(idx)))
}

// String renders the runtime/memory table.
func (r Table4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV: Monte Carlo runtime and allocation, VS vs golden (same engine)\n")
	fmt.Fprintf(&b, "%-8s %8s %12s %12s %9s %12s %12s %9s\n",
		"cell", "samples", "VS time", "golden time", "speedup", "VS alloc", "golden alloc", "memratio")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %8d %12s %12s %8.2fx %9.1f MB %9.1f MB %8.2fx\n",
			row.Cell, row.Samples,
			row.VSTime.Round(time.Millisecond), row.GoldenTime.Round(time.Millisecond),
			row.Speedup,
			float64(row.VSBytes)/1e6, float64(row.GoldenBytes)/1e6, row.MemRatio)
	}
	fmt.Fprintf(&b, "  (paper: 4.2x speedup, 8.7x memory for Verilog-A VS vs BSIM4 C code)\n")
	return b.String()
}
