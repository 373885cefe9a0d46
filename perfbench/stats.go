package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (0 <= q <= 1), interpolating
// linearly between order statistics. xs is sorted in place. NaN when xs
// is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(xs) {
		hi = len(xs) - 1
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// trimmedMean is the mean of xs without its smallest and its largest
// value when it has three or more; NaN when xs is empty.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	return average(s)
}

// average is the arithmetic mean of xs; NaN when xs is empty.
func average(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// probeSink keeps the calibration loop's result live so the compiler
// cannot drop the loop.
var probeSink uint64

// calibrate times a fixed pure-CPU loop that uses no code of the system
// under test: a change to the system cannot move it, so a shift in its
// time between runs is the host, not the code.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x
	return time.Since(start)
}

// splitmix64 is the stateless mixer that derives every per-request input
// from (seed, index), so request i is the same whichever client sends it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw is a deterministic stream of uniform values for one request.
type draw struct{ s uint64 }

func newDraw(seed uint64, i int) *draw {
	return &draw{s: splitmix64(seed ^ splitmix64(uint64(i)+1))}
}

func (d *draw) next() uint64 {
	d.s = splitmix64(d.s)
	return d.s
}

// intn returns a value in [0, n).
func (d *draw) intn(n int) int { return int(d.next() % uint64(n)) }

// chance returns true with probability pct/100.
func (d *draw) chance(pct int) bool { return d.intn(100) < pct }
