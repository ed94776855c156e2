package main

import (
	"context"
	"log"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule;
// xs is sorted in place. Zero for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// durations converts samples to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// warnSamples notes on stderr when a latency percentile rests on fewer
// than 1000 samples, so its p99 has fewer than ten samples beyond it.
func warnSamples(what string, n int) {
	if n < 1000 {
		log.Printf("warning: only %d %s samples; p99 is not a tail", n, what)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// warmup is how long a workload runs before measuring starts, so that
// heaps, connections and worker schedules settle first.
const warmup = 2 * time.Second

// phases paces a run: a warm-up, then the measured period. Clients read
// measuring to decide whether to record samples and stop to end their
// loops.
type phases struct {
	measuring, stop atomic.Bool
}

// sleep waits d or until ctx is done, reporting whether d elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
