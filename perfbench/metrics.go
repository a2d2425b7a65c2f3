package main

import (
	"math"
	"regexp"
	"sort"
)

// metricSpec is one metric as BENCHMARK.json lists it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are measured with telemetry off. fail_rate is reported as its
// complement verified_frac, so that the metric is never 0.
var endToEnd = []metricSpec{
	{Name: "solve_rate", Unit: "ratio", Better: "higher", Bound: 0.1},
	{Name: "verified_frac", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "tts_wall_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "tts_wall_tail_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "tts_dyn_p50", Unit: "circuit_time", Better: "lower", Bound: 0.1},
	{Name: "solves_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "sim_time_per_s", Unit: "circuit_time/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// perLayer come from the traced run. Each comment names the end-to-end
// metric the layer metric should move.
var perLayer = []metricSpec{
	// setup_s.
	{Name: "boolcirc.build_ms", Unit: "ms", Better: "lower"},
	{Name: "solc.compile_ms", Unit: "ms", Better: "lower"},
	// Sizes that explain solc.compile_ms and la.refactor_us.
	{Name: "circuit.state_dim", Unit: "count", Better: "lower"},
	{Name: "la.nnz", Unit: "count", Better: "lower"},
	{Name: "la.factor_nnz", Unit: "count", Better: "lower"},
	{Name: "la.fill_ratio", Unit: "ratio", Better: "lower"},
	// tts_wall_* (failed restarts) and solves_per_s (speculative waste).
	{Name: "solc.attempts_per_solve", Unit: "count", Better: "lower"},
	{Name: "solc.attempts_launched", Unit: "count", Better: "lower"},
	{Name: "solc.attempts_cancelled", Unit: "count", Better: "lower"},
	{Name: "solc.useful_step_frac", Unit: "ratio", Better: "higher"},
	// tts_wall_p50_s while tts_dyn_p50 holds.
	{Name: "ode.steps_per_solve", Unit: "count", Better: "lower"},
	{Name: "ode.steps_rejected", Unit: "count", Better: "lower"},
	// sim_time_per_s.
	{Name: "circuit.step_us", Unit: "us", Better: "lower"},
	// Per accepted step self times of the IMEX step phases.
	{Name: "circuit.cond_fill_us", Unit: "us", Better: "lower"},
	{Name: "circuit.stamp_us", Unit: "us", Better: "lower"},
	{Name: "la.refactor_us", Unit: "us", Better: "lower"},
	{Name: "la.solve_us", Unit: "us", Better: "lower"},
	{Name: "la.refine_us", Unit: "us", Better: "lower"},
	{Name: "circuit.slow_update_us", Unit: "us", Better: "lower"},
	{Name: "ode.bookkeep_us", Unit: "us", Better: "lower"},
	{Name: "la.refactors_per_step", Unit: "ratio", Better: "lower"},
	{Name: "la.factor_hits_per_step", Unit: "ratio", Better: "higher"},
	{Name: "la.refines_per_step", Unit: "ratio", Better: "lower"},
	{Name: "par.busy_frac", Unit: "ratio", Better: "higher"},
	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := i * (n + 1)
		j := max(1, min(m/4, n-1))
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailPercentile returns the highest integer nearest-rank percentile of
// n sorted samples that leaves at least minBeyond samples above it, and
// false when n is too small for any percentile from 50 up.
func tailPercentile(n, minBeyond int) (int, bool) {
	for p := 99; p >= 50; p-- {
		rank := (p*n + 99) / 100 // ceil(p·n/100)
		if n-rank >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// nearestRank returns the nearest-rank p-th percentile of xs.
func nearestRank(xs []float64, p int) float64 {
	s := sortedCopy(xs)
	rank := max(1, (p*len(s)+99)/100)
	return s[rank-1]
}
