package solc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/ode"
)

// compileProduct builds the factorization instance for n with the given
// factor word widths, pinned to the product's bits. pBits=3, qBits=2 is
// the shape core.Factorizer assigns a 4-bit product such as 15 = 3 × 5.
func compileProduct(t *testing.T, pBits, qBits int, n uint64) *Compiled {
	t.Helper()
	bc := boolcirc.New()
	p := bc.NewSignals(pBits)
	q := bc.NewSignals(qBits)
	prod := bc.Multiplier(p, q)
	pins := map[boolcirc.Signal]bool{}
	for i, s := range prod {
		pins[s] = n&(1<<uint(i)) != 0
	}
	return Compile(bc, pins, circuit.Default())
}

func ladderOpts(t *testing.T, seed int64) Options {
	t.Helper()
	opts := DefaultOptions()
	opts.TEnd = 150
	opts.Seed = seed
	opts.Parallelism = 1
	opts.HLadderRatio = ode.DefaultLadderRatio
	// Pin the step to the quantized rung so the exact comparator (ladder
	// disabled) integrates the identical trajectory: quantization itself
	// changes h, which is a legitimate but separate effect.
	ladder, err := ode.NewHLadder(ode.DefaultLadderRatio)
	if err != nil {
		t.Fatal(err)
	}
	opts.H = ladder.Quantize(1e-3)
	return opts
}

// TestLadderSameAssignment is the end-to-end equivalence check for the
// factor-cache path: the 3-bit factorization instance (product pinned to
// 15 = 3 × 5) must converge to the identical winning attempt
// and gate assignment whether the IMEX solve refactors on drift (the
// exact path) or runs the step-size ladder with stale-factor refinement.
func TestLadderSameAssignment(t *testing.T) {
	solve := func(ladder bool) Result {
		cs := compileProduct(t, 3, 2, 15)
		opts := ladderOpts(t, 7)
		if !ladder {
			opts.HLadderRatio = 0
		}
		res, err := cs.Solve(opts)
		if err != nil {
			t.Fatalf("ladder=%v: %v", ladder, err)
		}
		if !res.Solved {
			t.Fatalf("ladder=%v not solved: %s", ladder, res.Reason)
		}
		return res
	}

	exact := solve(false)
	lad := solve(true)

	if exact.Attempts != lad.Attempts {
		t.Fatalf("winning attempt differs: exact %d, ladder %d", exact.Attempts, lad.Attempts)
	}
	if len(exact.Assignment) != len(lad.Assignment) {
		t.Fatalf("assignment sizes differ: %d vs %d", len(exact.Assignment), len(lad.Assignment))
	}
	for sig, v := range exact.Assignment {
		if lad.Assignment[sig] != v {
			t.Errorf("signal %v: exact=%v ladder=%v", sig, v, lad.Assignment[sig])
		}
	}
}

// TestLadderSeedDeterminism requires the ladder path to be bit-reproducible:
// two runs with the same seed must decode identical assignments on the
// identical attempt, and so must a 4-way portfolio of the same attempts —
// attempt k derives its initial condition from Seed+k regardless of which
// clone integrates it, and the factor cache is per-clone state.
func TestLadderSeedDeterminism(t *testing.T) {
	run := func(parallelism int) Result {
		cs := compileProduct(t, 3, 2, 15)
		opts := ladderOpts(t, 7)
		opts.Parallelism = parallelism
		res, err := cs.Solve(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solved {
			t.Fatalf("parallelism %d not solved: %s", parallelism, res.Reason)
		}
		return res
	}
	a, b, par := run(1), run(1), run(4)
	if a.Attempts != b.Attempts {
		t.Fatalf("same-seed reruns won on different attempts: %d vs %d", a.Attempts, b.Attempts)
	}
	for sig, v := range a.Assignment {
		if b.Assignment[sig] != v {
			t.Fatalf("same-seed reruns decode differently at %v", sig)
		}
	}
	if par.Attempts != a.Attempts {
		t.Fatalf("portfolio won on attempt %d, sequential on %d", par.Attempts, a.Attempts)
	}
	for sig, v := range a.Assignment {
		if par.Assignment[sig] != v {
			t.Fatalf("portfolio decodes differently at %v", sig)
		}
	}
}

// TestLadderLockstepTrajectory is the per-step equivalence harness at the
// stepper level: refactor-every-step and ladder steppers advance the
// identical pre-step state (the exact trajectory is authoritative) and
// every single-step deviation of the ladder path must stay within the
// residual-controlled refinement error (≤ 1e-3, see DESIGN.md
// "Shifted-system factor reuse").
func TestLadderLockstepTrajectory(t *testing.T) {
	mk := func() (*circuit.Circuit, *circuit.IMEXStepper) {
		cs := compileProduct(t, 3, 2, 15)
		c, ok := cs.Eng.(*circuit.Circuit)
		if !ok {
			t.Fatalf("engine is %T, want *circuit.Circuit", cs.Eng)
		}
		return c, circuit.NewIMEX(c, nil)
	}
	cRef, ref := mk()
	cLad, lad := mk()
	ref.RefactorTol = 0
	lad.StaleMax = circuit.DefaultStaleMax

	ladder, err := ode.NewHLadder(ode.DefaultLadderRatio)
	if err != nil {
		t.Fatal(err)
	}
	h := ladder.Quantize(1e-3)
	xRef := cRef.InitialState(rand.New(rand.NewSource(7)))
	xLad := xRef.Clone()

	maxLad := 0.0
	tNow := 0.0
	for k := 0; k < 4000; k++ {
		xLad.CopyFrom(xRef)
		if _, err := lad.Step(cLad, tNow, h, xLad); err != nil {
			t.Fatalf("ladder step %d: %v", k, err)
		}
		if _, err := ref.Step(cRef, tNow, h, xRef); err != nil {
			t.Fatalf("sparse step %d: %v", k, err)
		}
		maxLad = math.Max(maxLad, xLad.MaxAbsDiff(xRef))
		tNow += h
		cRef.ClampState(xRef)
	}
	if maxLad > 1e-3 {
		t.Fatalf("ladder vs exact per-step delta %.3g exceeds documented tolerance 1e-3", maxLad)
	}
}
