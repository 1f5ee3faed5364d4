// Package hostspeed times a fixed probe that tells how fast the host runs
// right now, so the benchmark can report its timings at a reference host
// speed.
//
// The benchmark runs on a shared host whose speed drifts: on the 2-vCPU
// calibration guest the same sample runs 20-40% slower in bursts of a
// second or two on one vCPU, and over minutes on both. The slowdown shows
// in the thread's CPU time as much as in its wall time, so neither clock
// cancels it, and no run length or median over a run removes the
// minutes-long part. The benchmark times Probe right before and right
// after each sample on the sample's goroutine, and ProbeAll before and
// after each set-up. The interval's slowdown is the mean of the two probe
// times over Ref, and its normalized time is its wall time divided by that
// slowdown.
//
// The probe mixes two kinds of work in equal time. A dependent chain of
// exp and log1p calls alone moves less than the samples do when the host
// slows (about 1/1.5 of it, in log terms), and repeated dense solves of a
// small system alone move more; their sum follows the samples of all four
// workloads.
//
// No change to the program may change the probe's time. The probe lives in
// its own package, which imports nothing of the program, but the linker
// still lays it out after some of the program's packages, so a change to
// the program can move it by any multiple of 32 bytes. The probe's time
// depends on that: with the probe compiled into the main package, adding
// one function to the benchmark moved every normalized timing by 9-10%.
// So each kernel runs in two copies, one of which is always on a 64-byte
// boundary (CheckLayout).
package hostspeed

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Ref is the reference probe time, near the probe's median on the
// calibration host: on a host where the probe takes Ref, normalized times
// read as wall times.
const Ref = 50 * time.Microsecond

// The probe runs chunks timed chunks, each chainSteps steps of the
// exp/log1p chain and solves solves, half of each in either copy of its
// kernel.
const (
	chunks     = 5
	chainSteps = 100
	solves     = 6
)

// Probe times the probe. It reports the median chunk, scaled to the whole
// probe, so an interrupt that lands in one chunk does not move it.
func Probe() time.Duration {
	var d [chunks]time.Duration
	x, s := 0.5, 0.0
	for c := range d {
		t0 := time.Now()
		x = chainB(chainA(x, chainSteps/2), chainSteps/2)
		for r := 0; r < solves/2; r++ {
			k := c*solves + 2*r
			s += solveA(k) + solveB(k+1)
		}
		d[c] = time.Since(t0)
	}
	// Using the results keeps the compiler from dropping the work; both
	// stay finite.
	if math.IsNaN(x + s) {
		panic("host probe diverged")
	}
	slices.Sort(d[:])
	return chunks * d[chunks/2]
}

// ProbeAll runs Probe on n goroutines at once and returns the mean time,
// for work that runs on n workers: the host can slow one vCPU and not the
// other.
func ProbeAll(n int) time.Duration {
	d := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := range d {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d[i] = Probe()
		}(i)
	}
	wg.Wait()
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / time.Duration(n)
}

// Slowdown is the host's slowdown over an interval bracketed by the probe
// times before and after: 1 where the probe takes Ref.
func Slowdown(before, after time.Duration) float64 {
	return float64(before+after) / float64(2*Ref)
}

// The probe's kernels come in two identical copies whose code starts 32
// bytes apart modulo 64 (CheckLayout; the order chainA, solveA, chainB,
// solveB gives that with this toolchain), and the probe runs half its work
// in each. Functions start on 32-byte boundaries, so whatever the package's
// place in the binary, one copy of each kernel sits on a 64-byte boundary
// and the other halfway between two: the probe's time does not depend on
// where the linker put it. One copy of the solve, placed off a 64-byte
// boundary, ran 17% slower than the same code on one.

// chainA runs n steps of the dependent exp/log1p chain from x.
//
//go:noinline
func chainA(x float64, n int) float64 {
	for i := 0; i < n; i++ {
		x = math.Exp(-0.7*x) + math.Log1p(x)/(1+x*x)
	}
	return x
}

// solveA solves a 12×12 diagonally dominant dense system, varied by k, by
// elimination without pivoting, and returns the first unknown.
//
//go:noinline
func solveA(k int) float64 {
	const n = 12
	var m [n][n]float64
	var b [n]float64
	for i := range m {
		for j := range m[i] {
			m[i][j] = 1 / float64(1+i+j+k)
		}
		m[i][i] += n
		b[i] = float64(i + k)
	}
	for p := 0; p < n; p++ {
		for i := p + 1; i < n; i++ {
			f := m[i][p] / m[p][p]
			for j := p; j < n; j++ {
				m[i][j] -= f * m[p][j]
			}
			b[i] -= f * b[p]
		}
	}
	for i := n - 1; i >= 0; i-- {
		x := b[i]
		for j := i + 1; j < n; j++ {
			x -= m[i][j] * b[j]
		}
		b[i] = x / m[i][i]
	}
	return b[0]
}

// chainB is chainA's second copy.
//
//go:noinline
func chainB(x float64, n int) float64 {
	for i := 0; i < n; i++ {
		x = math.Exp(-0.7*x) + math.Log1p(x)/(1+x*x)
	}
	return x
}

// solveB is solveA's second copy.
//
//go:noinline
func solveB(k int) float64 {
	const n = 12
	var m [n][n]float64
	var b [n]float64
	for i := range m {
		for j := range m[i] {
			m[i][j] = 1 / float64(1+i+j+k)
		}
		m[i][i] += n
		b[i] = float64(i + k)
	}
	for p := 0; p < n; p++ {
		for i := p + 1; i < n; i++ {
			f := m[i][p] / m[p][p]
			for j := p; j < n; j++ {
				m[i][j] -= f * m[p][j]
			}
			b[i] -= f * b[p]
		}
	}
	for i := n - 1; i >= 0; i-- {
		x := b[i]
		for j := i + 1; j < n; j++ {
			x -= m[i][j] * b[j]
		}
		b[i] = x / m[i][i]
	}
	return b[0]
}

// CheckLayout reports an error unless each kernel's two copies start 32
// bytes apart modulo 64 in this binary.
func CheckLayout() error {
	for _, k := range []struct {
		name string
		a, b any
	}{{"chain", chainA, chainB}, {"solve", solveA, solveB}} {
		a, b := entry(k.a), entry(k.b)
		if d := (b - a) % 64; d != 32 {
			return fmt.Errorf("hostspeed: the %s copies start %d bytes apart modulo 64, want 32", k.name, d)
		}
	}
	return nil
}

func entry(f any) uintptr { return runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Entry() }
