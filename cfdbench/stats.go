package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// median of xs; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank is the q-quantile by the nearest-rank rule, ceil(q·n),
// the definition the service's own latency summaries use.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// tally counts every operation the run attempts — writes, reads,
// scrapes, recoveries and correctness checks — and the ones that failed.
// A failed operation or check makes the run incorrect.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// op records one attempted operation; a non-nil err counts it failed.
func (t *tally) op(err error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 20 {
			t.errs = append(t.errs, err.Error())
		}
	}
	return err
}

// check records one correctness gate.
func (t *tally) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf("check failed: "+format, args...)
	}
	t.op(err)
}

// latencySummary states a latency sample the way the report gives it:
// median, p90, p99 and max by nearest rank, the sample count, and the
// highest percentile with at least ten samples beyond it.
func latencySummary(xs []float64) map[string]float64 {
	n := float64(len(xs))
	return map[string]float64{
		"count": n,
		"p50":   nearestRank(xs, 0.50),
		"p90":   nearestRank(xs, 0.90),
		"p99":   nearestRank(xs, 0.99),
		"max":   nearestRank(xs, 1),
		// The largest q with n·(1−q) ≥ 10.
		"q_with_10_beyond": max(0, 1-10/n),
	}
}
