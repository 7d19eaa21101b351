package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// tailLadder lists, in tenths of a percent and highest first, the
// percentiles a tail may be reported at. The tail of a sample is the highest
// of these with at least minBeyond samples above it.
var tailLadder = []int{999, 990, 980, 950, 900, 800, 750, 500}

const minBeyond = 10

// tailPercentile picks the reported tail percentile for n samples.
func tailPercentile(n int) float64 {
	for _, pm := range tailLadder {
		if n*(1000-pm) >= minBeyond*1000 {
			return float64(pm) / 10
		}
	}
	return 50
}

// quantile returns the p-th percentile of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// phase is the outcome of one timed loop: the time to report of each
// correct report in the order they came, in ms, and the tally.
type phase struct {
	ttr       []float64
	events    int64 // events of correct reports
	attempted int64
	failed    int64
	errs      []string // the first few failures
	wall      time.Duration
	cpu       time.Duration
}

func (ph *phase) fail(err error) {
	ph.failed++
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, err.Error())
	}
}

// latency summarises a timing sample as its median and tail.
type latency struct {
	p50, tail float64
	tailPct   float64
	n         int
}

func summarize(xs []float64) latency { return summarizeAt(xs, 100) }

// summarizeAt takes the tail at percentile p, or at the highest lower one
// with enough samples beyond it.
func summarizeAt(xs []float64, p float64) latency {
	if float64(len(xs))*(100-p) < minBeyond*100 {
		p = tailPercentile(len(xs))
	}
	return latency{p50: median(xs), tail: quantile(xs, p), tailPct: p, n: len(xs)}
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
