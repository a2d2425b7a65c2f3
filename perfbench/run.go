package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
)

// A run builds and compiles its whole instance list once before solving
// and again after every setupEvery solves, at least setupRounds times in
// all; setup_s is the median round. Spreading the rounds over the run
// keeps one burst of load on the machine from setting the median.
const (
	setupRounds = 25
	setupEvery  = 4
)

// tailBeyond is the number of solved samples the tail percentile must
// leave above it.
const tailBeyond = 10

// maxFailureNotes bounds the failure messages kept in a result.
const maxFailureNotes = 8

// runResult is what one run measured.
type runResult struct {
	Attempted int
	Failed    int
	Failures  []string
	Metrics   map[string]metricValue
	// TailPercentile and TailSamples say which percentile
	// tts_wall_tail_s is and over how many solved pairs.
	TailPercentile int
	TailSamples    int
	FailRate       float64
}

// measure solves whole passes of the workload until seconds have passed,
// verifying every answer and setting the workload up again between
// solves. With trace set, every pair is solved a second time with
// telemetry and span profiling on, and the per-layer metrics are
// reported instead of the end-to-end ones.
func measure(w *workload, seconds float64, trace bool) (*runResult, error) {
	rr := &runResult{Metrics: map[string]metricValue{}}
	su := newSetups(len(w.Instances))
	cs, err := su.round(w)
	if err != nil {
		return nil, err
	}

	// plain holds the untraced solves of whole passes only, so every run
	// weighs the reference ensemble alike; all and allTraced hold every
	// solve, and failures count wherever they happen.
	var plain, all, allTraced []outcome
	spans := obs.NewSpans()
	var tc traceCounts
	var failures []string
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for k, ps := range w.Passes {
		var pass []outcome
		for _, p := range ps {
			if k > 0 && !time.Now().Before(deadline) {
				break
			}
			if len(all)%setupEvery == setupEvery-1 {
				if cs, err = su.round(w); err != nil {
					return nil, err
				}
			}
			in := w.Instances[p.Inst]
			o := solvePair(w, cs[p.Inst], in, p, nil)
			if trace {
				t, err := solveTraced(w, cs[p.Inst], in, p, spans, &tc)
				if err != nil {
					return nil, err
				}
				if t.Failure == "" && (t.Solved != o.Solved || t.Res.Attempts != o.Res.Attempts || t.Res.T != o.Res.T) {
					t.Failure = "traced solve took another trajectory than the untraced one"
				}
				if o.Failure == "" {
					o.Failure = t.Failure
				}
				allTraced = append(allTraced, t)
			}
			if o.Failure != "" {
				failures = append(failures, fmt.Sprintf("instance %d (%s) seed %d: %s", p.Inst, in.Kind, p.Seed, o.Failure))
			}
			all = append(all, o)
			pass = append(pass, o)
		}
		if len(pass) < len(ps) {
			break
		}
		plain = append(plain, pass...)
		if !time.Now().Before(deadline) {
			break
		}
	}
	for len(su.rounds) < setupRounds {
		if _, err := su.round(w); err != nil {
			return nil, err
		}
	}
	rr.Attempted = len(all)
	rr.Failed = len(failures)
	rr.FailRate = float64(rr.Failed) / float64(rr.Attempted)
	rr.Failures = failures[:min(len(failures), maxFailureNotes)]

	units := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		units[m.Name] = m.Unit
	}
	put := func(name string, v float64) {
		if units[name] == "" {
			panic("perfbench: unlisted metric " + name)
		}
		rr.Metrics[name] = metricValue{Value: v, Unit: units[name]}
	}
	if trace {
		perLayerMetrics(put, w, cs, su, all, allTraced, spans.Snapshot(), tc)
		return rr, nil
	}

	var wall, dyn float64
	var ttsWall, ttsDyn []float64
	solvable := 0
	for _, o := range plain {
		wall += o.Wall.Seconds()
		dyn += o.DynTTS
		if o.Satisfiable {
			solvable++
		}
		if o.Solved && o.Failure == "" {
			ttsWall = append(ttsWall, o.Wall.Seconds())
			ttsDyn = append(ttsDyn, o.DynTTS)
		}
	}
	pct, ok := tailPercentile(len(ttsWall), tailBeyond)
	if !ok {
		return nil, fmt.Errorf("only %d solved pairs; the tail needs %d beyond the median", len(ttsWall), tailBeyond)
	}
	rr.TailPercentile, rr.TailSamples = pct, len(ttsWall)
	setup, _, _ := su.medians()
	put("solve_rate", float64(len(ttsWall))/float64(solvable))
	put("verified_frac", 1-rr.FailRate)
	put("tts_wall_p50_s", median(ttsWall))
	put("tts_wall_tail_s", nearestRank(ttsWall, pct))
	put("tts_dyn_p50", median(ttsDyn))
	put("solves_per_s", float64(len(ttsWall))/wall)
	put("sim_time_per_s", dyn/wall)
	put("setup_s", setup)
	put("peak_rss_mb", peakRSSMB())
	return rr, nil
}

// perLayerMetrics computes the traced run's metrics from every untraced
// solve (plain) and its traced twin (traced), which solved the same pair.
func perLayerMetrics(put func(string, float64), w *workload, cs []*compiled, su *setups,
	plain, traced []outcome, snap *obs.SpansSnapshot, tc traceCounts) {
	_, buildMs, compileMs := su.medians()
	var dims, nnzs, fnnzs, fills []float64
	for _, c := range cs {
		dims = append(dims, float64(c.dim))
		nnzs = append(nnzs, float64(c.nnz))
		fnnzs = append(fnnzs, float64(c.fnnz))
		fills = append(fills, float64(c.fnnz)/float64(c.nnz))
	}
	put("boolcirc.build_ms", median(buildMs))
	put("solc.compile_ms", median(compileMs))
	put("circuit.state_dim", median(dims))
	put("la.nnz", median(nnzs))
	put("la.factor_nnz", median(fnnzs))
	put("la.fill_ratio", median(fills))

	var attempts, steps []float64
	var launched, cancelled, plainSteps int
	var plainWall, plainDyn, tracedWall, tracedDyn float64
	for i, o := range plain {
		launched += o.Res.Launched
		cancelled += o.Res.Cancelled
		plainSteps += o.Res.Steps
		plainWall += o.Wall.Seconds()
		plainDyn += o.DynTTS
		tracedWall += traced[i].Wall.Seconds()
		tracedDyn += traced[i].DynTTS
		if o.Solved {
			attempts = append(attempts, float64(o.Res.Attempts))
			steps = append(steps, float64(o.Res.Steps))
		}
	}
	n := float64(len(plain))
	put("solc.attempts_per_solve", mean(attempts))
	put("solc.attempts_launched", float64(launched)/n)
	put("solc.attempts_cancelled", float64(cancelled)/n)
	put("solc.useful_step_frac", float64(tc.winnerSteps)/float64(tc.steps))
	put("ode.steps_per_solve", median(steps))
	put("ode.steps_rejected", float64(tc.rejected)/n)
	put("circuit.step_us", plainWall/float64(plainSteps)*1e6)

	perStepUs := func(phase string) float64 {
		return float64(snap.PhaseNs(phase)) / 1e3 / float64(tc.steps)
	}
	put("circuit.cond_fill_us", perStepUs("conductance-fill"))
	put("circuit.stamp_us", perStepUs("stamp"))
	put("la.refactor_us", perStepUs("classify/refactor"))
	put("la.solve_us", perStepUs("solve"))
	put("la.refine_us", perStepUs("refine"))
	put("circuit.slow_update_us", perStepUs("memristor-advance"))
	put("ode.bookkeep_us", perStepUs("bookkeeping"))
	put("la.refactors_per_step", float64(tc.refactors)/float64(tc.steps))
	put("la.factor_hits_per_step", float64(tc.factorHits)/float64(tc.steps))
	put("la.refines_per_step", float64(tc.refines)/float64(tc.steps))
	put("par.busy_frac", tc.attemptWall/(tracedWall*float64(w.Config.Parallelism)))
	put("obs.trace_overhead_frac", 1-(tracedDyn/tracedWall)/(plainDyn/plainWall))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// setups records the set-up rounds of a run.
type setups struct {
	rounds []float64
	// build and compile hold each instance's times in ms, one per round.
	build, compile [][]float64
}

func newSetups(n int) *setups {
	return &setups{build: make([][]float64, n), compile: make([][]float64, n)}
}

// round builds and compiles every instance of w once, timing the whole
// round and each instance's layers.
func (su *setups) round(w *workload) ([]*compiled, error) {
	runtime.GC()
	cs := make([]*compiled, len(w.Instances))
	start := time.Now()
	for i, in := range w.Instances {
		c, err := compileInstance(in)
		if err != nil {
			return nil, err
		}
		cs[i] = c
	}
	su.rounds = append(su.rounds, time.Since(start).Seconds())
	for i, c := range cs {
		su.build[i] = append(su.build[i], float64(c.build)/1e6)
		su.compile[i] = append(su.compile[i], float64(c.compile)/1e6)
	}
	return cs, nil
}

// medians returns the median round in seconds and each instance's
// median build and compile time in ms.
func (su *setups) medians() (float64, []float64, []float64) {
	buildMs := make([]float64, len(su.build))
	compileMs := make([]float64, len(su.compile))
	for i := range su.build {
		buildMs[i] = median(su.build[i])
		compileMs[i] = median(su.compile[i])
	}
	return median(su.rounds), buildMs, compileMs
}

// traceCounts accumulates the telemetry of every traced solve.
type traceCounts struct {
	steps, rejected, refactors, factorHits, refines int64
	winnerSteps                                     int64
	attemptWall                                     float64
}

// solveTraced solves p with the solver's own telemetry on: step and
// factor counters, span profiling into spans, and lifecycle events, from
// which the winning attempt's steps are read.
func solveTraced(w *workload, c *compiled, in instance, p pair, spans *obs.Spans, tc *traceCounts) (outcome, error) {
	var events bytes.Buffer
	tl := obs.NewTelemetry()
	tl.Spans = spans
	tl.Tracer = obs.NewTracer(&events)
	o := solvePair(w, c, in, p, tl)
	if err := tl.Tracer.Flush(); err != nil {
		return o, fmt.Errorf("telemetry events: %w", err)
	}
	tc.steps += tl.Steps.Value()
	tc.rejected += tl.Rejected.Value()
	tc.refactors += tl.Refactors.Value()
	tc.factorHits += tl.FactorHits.Value()
	tc.refines += tl.Refines.Value()
	tc.attemptWall += tl.Registry.Snapshot().Histograms["attempt.wall_seconds"].Sum
	if !o.Solved {
		return o, nil
	}
	dec := json.NewDecoder(&events)
	for {
		var ev obs.Event
		err := dec.Decode(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			return o, fmt.Errorf("telemetry events: %w", err)
		}
		if ev.Ev == obs.EvConverged && ev.Attempt == o.Res.WinnerAttempt {
			tc.winnerSteps += int64(ev.Steps)
		}
	}
	return o, nil
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kB
}
