package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ode"
	"repro/internal/solc"
)

// mult6 compiles the 6-bit multiplier SOLC (12-bit product pinned to
// 2021 = 43 × 47) — the instance bench_test.go's BenchmarkIMEXStep
// measures.
func mult6() *circuit.Circuit {
	bc := boolcirc.New()
	p := bc.NewSignals(6)
	q := bc.NewSignals(6)
	prod := bc.Multiplier(p, q)
	pins := map[boolcirc.Signal]bool{}
	for i, s := range prod {
		pins[s] = 2021&(1<<uint(i)) != 0
	}
	return solc.Compile(bc, pins, circuit.Default()).Eng.(*circuit.Circuit)
}

// ladderStats is one configuration's measurements in
// BENCH_imex_ladder.json.
type ladderStats struct {
	// NsPerStep is SolveWallNs/Steps of the fastest fixed-horizon
	// repetition, so baseline and ladder are compared over the identical
	// 20k-step trajectory window. AllocsPerStep and BytesPerStep are
	// steady-state audits from testing.Benchmark (0 for configurations
	// measured only via the fixed-horizon run).
	NsPerStep     int64 `json:"ns_per_step"`
	AllocsPerStep int64 `json:"allocs_per_step"`
	BytesPerStep  int64 `json:"bytes_per_step"`
	// SolveWallNs, Steps and the factor counters cover one fixed-horizon
	// integration of 20k steps.
	SolveWallNs int64 `json:"solve_wall_ns"`
	Steps       int   `json:"steps"`
	Refactors   int   `json:"refactors"`
	FactorHits  int   `json:"factor_hits"`
	Refines     int   `json:"refines"`
}

// refactorFrac is the gate numerator: refactorizations per accepted step.
func (s ladderStats) refactorFrac() float64 {
	if s.Steps == 0 {
		return 1
	}
	return float64(s.Refactors) / float64(s.Steps)
}

// ladderBench is the BENCH_imex_ladder.json document.
type ladderBench struct {
	Name     string `json:"name"`
	Instance string `json:"instance"`
	// Ratio, StaleMax, RefineTol, CacheCap record the configuration the
	// ladder path ran with.
	Ratio     float64 `json:"ratio"`
	HQuant    float64 `json:"h_quantized"`
	StaleMax  float64 `json:"stale_max"`
	RefineTol float64 `json:"refine_tol"`
	CacheCap  int     `json:"cache_cap"`
	Gates     int     `json:"gates"`
	StateDim  int     `json:"state_dim"`
	// Baseline is the seed behavior (refactor on every conductance drift
	// past RefactorTol) at the quantized step; Ladder adds the factor
	// cache with stale-factor refinement; Oscillate additionally cycles
	// the step size across four ladder rungs to exercise the LRU.
	Baseline  ladderStats `json:"baseline"`
	Ladder    ladderStats `json:"ladder"`
	Oscillate ladderStats `json:"oscillate"`
	// MaxStepVoltageDelta is the largest per-step infinity-norm deviation
	// of the refined-reuse voltage solve from the refactor-on-drift
	// reference in a 20k-step lockstep comparison (both steppers advance
	// the same pre-step state each step; the reference trajectory is
	// authoritative, so deltas never compound).
	MaxStepVoltageDelta float64 `json:"max_step_voltage_delta"`
	// Equiv records full solution-mode equivalence on the 3-bit (15 = 3×5)
	// and 6-bit (35 = 5×7) product instances: at the same quantized step
	// size the ladder path must solve and decode the identical factor
	// pair as the exact path. Whether it solved on the same attempt is
	// recorded but not gated — attempt count is a chaotic basin property,
	// while the acceptance criterion is the final factor assignment.
	Equiv    []ladderEquiv `json:"equiv"`
	Failures []string      `json:"failures,omitempty"`
}

// ladderEquiv is one instance's solution-mode equivalence record: the
// exact path's decoded factors against the ladder path's.
type ladderEquiv struct {
	N           uint64 `json:"n"`
	Solved      bool   `json:"solved"`
	SameAttempt bool   `json:"same_attempt"`
	P           uint64 `json:"p"`
	Q           uint64 `json:"q"`
	LadderP     uint64 `json:"ladder_p"`
	LadderQ     uint64 `json:"ladder_q"`
	SameFactors bool   `json:"same_factors"`
}

// runFixed integrates 20k fixed steps of size h on a fresh 6-bit
// multiplier instance, cycling the step across the rungs in hs (one
// value = fixed step), and reports the factor counters.
func runFixed(hs []float64, staleMax float64, cacheCap int) ladderStats {
	c := mult6()
	x := c.InitialState(rand.New(rand.NewSource(1)))
	stats := &ode.Stats{}
	s := circuit.NewIMEX(c, stats)
	s.StaleMax = staleMax
	s.FactorCacheCap = cacheCap
	const switchEvery = 64
	t := 0.0
	start := time.Now()
	for i := 0; i < 20000; i++ {
		h := hs[(i/switchEvery)%len(hs)]
		if _, err := s.Step(c, t, h, x); err != nil {
			break
		}
		t += h
		c.ClampState(x)
	}
	return ladderStats{
		SolveWallNs: time.Since(start).Nanoseconds(),
		Steps:       stats.Steps,
		Refactors:   stats.Refactors,
		FactorHits:  stats.FactorHits,
		Refines:     stats.Refines,
	}
}

// benchPerStep audits steady-state per-step allocations at fixed
// quantized h via testing.Benchmark (the alloc gate's source of truth;
// its timing runs far past the 20k-step window, so ns/step is taken
// from the fixed-horizon runs instead).
func benchPerStep(h, staleMax float64, cacheCap int) (ns, allocs, bytes int64) {
	res := testing.Benchmark(func(b *testing.B) {
		c := mult6()
		x := c.InitialState(rand.New(rand.NewSource(1)))
		s := circuit.NewIMEX(c, nil)
		s.StaleMax = staleMax
		s.FactorCacheCap = cacheCap
		if _, err := s.Step(c, 0, h, x); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Step(c, float64(i+1)*h, h, x); err != nil {
				b.Fatal(err)
			}
			c.ClampState(x)
		}
	})
	return res.NsPerOp(), res.AllocsPerOp(), res.AllocedBytesPerOp()
}

// lockstepDelta advances an exact reference stepper (refactor on every
// step) and a ladder stepper (cached factors + refinement) from the
// identical pre-step state for 20k steps and returns the largest
// single-step voltage deviation. The reference state is authoritative
// each step, so the measurement isolates the per-step solve error of
// refined reuse from chaotic trajectory divergence.
func lockstepDelta(h float64, staleMax float64, cacheCap int) float64 {
	cRef := mult6()
	cLad := mult6()
	xRef := cRef.InitialState(rand.New(rand.NewSource(1)))
	xLad := xRef.Clone()
	ref := circuit.NewIMEX(cRef, nil)
	ref.RefactorTol = 0
	lad := circuit.NewIMEX(cLad, nil)
	lad.StaleMax = staleMax
	lad.FactorCacheCap = cacheCap
	maxDelta := 0.0
	t := 0.0
	for i := 0; i < 20000; i++ {
		xLad.CopyFrom(xRef)
		if _, err := lad.Step(cLad, t, h, xLad); err != nil {
			break
		}
		if _, err := ref.Step(cRef, t, h, xRef); err != nil {
			break
		}
		if d := xLad.MaxAbsDiff(xRef); d > maxDelta {
			maxDelta = d
		}
		t += h
		cRef.ClampState(xRef)
	}
	return maxDelta
}

// solveFactor runs one factorization instance through solution mode at
// step h, with or without the ladder/refinement path, and returns the
// decoded factors.
func solveFactor(n uint64, h float64, ladder bool) (core.FactorResult, error) {
	cfg := core.DefaultConfig()
	cfg.StepH = h
	cfg.Seed = 7
	cfg.Parallelism = 1
	if ladder {
		cfg.HLadder = ode.DefaultLadderRatio
	}
	return core.NewFactorizer(cfg).Factor(n)
}

// equivFactor compares the exact and ladder solution-mode runs on one
// instance.
func equivFactor(n uint64, h float64) (ladderEquiv, error) {
	exact, err := solveFactor(n, h, false)
	if err != nil {
		return ladderEquiv{}, err
	}
	lad, err := solveFactor(n, h, true)
	if err != nil {
		return ladderEquiv{}, err
	}
	return ladderEquiv{
		N:           n,
		Solved:      exact.Solved && lad.Solved,
		SameAttempt: exact.Metrics.Attempts == lad.Metrics.Attempts,
		P:           exact.P,
		Q:           exact.Q,
		LadderP:     lad.P,
		LadderQ:     lad.Q,
		SameFactors: exact.Solved && lad.Solved && exact.P == lad.P && exact.Q == lad.Q,
	}, nil
}

// imexLadder measures the step-size-ladder factor cache on the 6-bit
// multiplier, verifies trajectory and assignment equivalence against the
// refactor-on-drift baseline, prints a table, optionally writes
// BENCH_imex_ladder.json, and returns an error when a gate fails:
// refactors/steps must stay ≤ 5%, the steady-state step must not
// allocate, and the equivalence checks must hold.
func imexLadder(writeJSON bool) error {
	ladder, err := ode.NewHLadder(ode.DefaultLadderRatio)
	if err != nil {
		return err
	}
	hq := ladder.Quantize(1e-3)
	c := mult6()
	doc := ladderBench{
		Name:      "imex_ladder",
		Instance:  "6-bit multiplier (12-bit product pinned to 2021 = 43*47)",
		Ratio:     ode.DefaultLadderRatio,
		HQuant:    hq,
		StaleMax:  circuit.DefaultStaleMax,
		RefineTol: circuit.DefaultRefineTol,
		CacheCap:  circuit.DefaultFactorCacheCap,
		Gates:     c.NumGates(),
		StateDim:  c.Dim(),
	}

	// Fixed-horizon runs: interleave repetitions of the baseline and
	// ladder configurations and keep each one's fastest wall time, so
	// clock-frequency drift across the measurement cannot bias the
	// comparison one way (the counters are deterministic, so any
	// repetition's counters serve). ns/step comes from these runs — baseline and
	// ladder then cover the identical 20k-step trajectory window rather
	// than whatever horizon testing.Benchmark converges to.
	for rep := 0; rep < 3; rep++ {
		if s := runFixed([]float64{hq}, 0, doc.CacheCap); rep == 0 || s.SolveWallNs < doc.Baseline.SolveWallNs {
			doc.Baseline = s
		}
		if s := runFixed([]float64{hq}, doc.StaleMax, doc.CacheCap); rep == 0 || s.SolveWallNs < doc.Ladder.SolveWallNs {
			doc.Ladder = s
		}
	}
	doc.Baseline.NsPerStep = doc.Baseline.SolveWallNs / int64(doc.Baseline.Steps)
	doc.Ladder.NsPerStep = doc.Ladder.SolveWallNs / int64(doc.Ladder.Steps)
	// Steady-state allocation audit (the alloc gate's source of truth).
	_, doc.Baseline.AllocsPerStep, doc.Baseline.BytesPerStep = benchPerStep(hq, 0, doc.CacheCap)
	_, doc.Ladder.AllocsPerStep, doc.Ladder.BytesPerStep = benchPerStep(hq, doc.StaleMax, doc.CacheCap)
	rungs := []float64{
		ladder.Value(ladder.Rung(hq)),
		ladder.Value(ladder.Rung(hq) - 1),
		ladder.Value(ladder.Rung(hq) - 2),
		ladder.Value(ladder.Rung(hq) - 3),
	}
	doc.Oscillate = runFixed(rungs, doc.StaleMax, doc.CacheCap)
	doc.MaxStepVoltageDelta = lockstepDelta(hq, doc.StaleMax, doc.CacheCap)

	for _, n := range []uint64{15, 35} {
		eq, err := equivFactor(n, hq)
		if err != nil {
			return err
		}
		doc.Equiv = append(doc.Equiv, eq)
	}

	if f := doc.Ladder.refactorFrac(); f > 0.05 {
		doc.Failures = append(doc.Failures,
			fmt.Sprintf("ladder refactors/steps = %.4f > 0.05 (%d/%d)", f, doc.Ladder.Refactors, doc.Ladder.Steps))
	}
	if doc.Ladder.AllocsPerStep != 0 {
		doc.Failures = append(doc.Failures,
			fmt.Sprintf("ladder path allocates %d allocs/step (want 0)", doc.Ladder.AllocsPerStep))
	}
	// Documented per-step equivalence tolerance, 1e-3: the reference
	// refactors on every step (RefactorTol=0); refined solves satisfy
	// the current system to RefineTol·‖rhs‖∞, which the shifted system's
	// conditioning amplifies to ≲5e-4 in voltage on this instance
	// (measured ~4.8e-4) — ~0.05% of the O(1) voltage range and far
	// below the per-step voltage motion the integrator itself commits.
	if doc.MaxStepVoltageDelta > 1e-3 {
		doc.Failures = append(doc.Failures,
			fmt.Sprintf("lockstep per-step voltage delta %.3g > 1e-3", doc.MaxStepVoltageDelta))
	}
	// The oscillation scenario revisits each rung only after 192 steps on
	// other rungs, so every revisit legitimately refreshes a far-stale
	// factor; its budget is therefore looser than the fixed-rung gate.
	if f := doc.Oscillate.refactorFrac(); f > 0.10 {
		doc.Failures = append(doc.Failures,
			fmt.Sprintf("rung-oscillation refactors/steps = %.4f > 0.10 (%d/%d)", f, doc.Oscillate.Refactors, doc.Oscillate.Steps))
	}
	// Gross-regression backstop, not a strict speed race: interleaved
	// min-of-3 still leaves a few percent of run-to-run wall-clock noise
	// on shared machines, while the refine economics that actually prove
	// the win (refactors, sweeps, allocs) are deterministic and gated
	// hard above. A ladder path costing >10% over refactor-on-drift means
	// refinement sweeps got structurally more expensive than the
	// factorizations they replace — that is a real regression.
	if doc.Ladder.NsPerStep > doc.Baseline.NsPerStep+doc.Baseline.NsPerStep/10 {
		doc.Failures = append(doc.Failures,
			fmt.Sprintf("ladder ns/step %d more than 10%% above refactor-on-drift baseline %d",
				doc.Ladder.NsPerStep, doc.Baseline.NsPerStep))
	}
	for _, eq := range doc.Equiv {
		if !eq.Solved || !eq.SameFactors {
			doc.Failures = append(doc.Failures,
				fmt.Sprintf("n=%d equivalence: solved=%v factors %d×%d vs ladder %d×%d",
					eq.N, eq.Solved, eq.P, eq.Q, eq.LadderP, eq.LadderQ))
		}
	}

	fmt.Printf("IMEX shifted-factor cache: step-size ladder + stale-factor refinement\n")
	fmt.Printf("instance: %s\n", doc.Instance)
	fmt.Printf("ratio=%.6f h=%.6g stale_max=%.2f refine_tol=%.0e cache=%d\n\n",
		doc.Ratio, doc.HQuant, doc.StaleMax, doc.RefineTol, doc.CacheCap)
	fmt.Printf("%-10s %14s %10s %14s %8s %10s %10s %9s\n",
		"config", "ns/step", "allocs/op", "solve wall", "steps", "refactors", "hits", "refines")
	for _, row := range []struct {
		name string
		p    ladderStats
	}{{"baseline", doc.Baseline}, {"ladder", doc.Ladder}, {"oscillate", doc.Oscillate}} {
		fmt.Printf("%-10s %14d %10d %14s %8d %10d %10d %9d\n",
			row.name, row.p.NsPerStep, row.p.AllocsPerStep,
			time.Duration(row.p.SolveWallNs).Round(time.Millisecond),
			row.p.Steps, row.p.Refactors, row.p.FactorHits, row.p.Refines)
	}
	fmt.Printf("\nmax per-step voltage delta vs refactor-on-drift reference: %.3g\n", doc.MaxStepVoltageDelta)
	for _, eq := range doc.Equiv {
		fmt.Printf("n=%d solve equivalence: solved=%v same_attempt=%v factors=%d×%d ladder=%d×%d\n",
			eq.N, eq.Solved, eq.SameAttempt, eq.P, eq.Q, eq.LadderP, eq.LadderQ)
	}

	if writeJSON {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		name := "BENCH_imex_ladder.json"
		if err := os.WriteFile(name, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", name)
	}
	for _, f := range doc.Failures {
		fmt.Fprintln(os.Stderr, "imex-ladder GATE FAILED:", f)
	}
	if len(doc.Failures) > 0 {
		return fmt.Errorf("%d imex-ladder gate(s) failed", len(doc.Failures))
	}
	return nil
}
