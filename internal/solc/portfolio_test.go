package solc

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/la"
	"repro/internal/leaktest"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

// unsatProblem is AND(a, const-0) pinned to 1: no assignment satisfies it,
// so every restart attempt runs to its time horizon.
func unsatProblem() (*boolcirc.Circuit, map[boolcirc.Signal]bool) {
	bc := boolcirc.New()
	a := bc.NewSignal()
	o := bc.And(a, bc.Const(false))
	return bc, map[boolcirc.Signal]bool{o: true}
}

// handicappedPortfolio pairs a member that cannot solve (explicit Euler on
// the quasi-static form with a wildly unstable step) with the IMEX solver,
// so attempt 0 deterministically fails and attempt 1 deterministically wins.
func handicappedPortfolio() []PortfolioMember {
	return []PortfolioMember{
		{Name: "handicap", Mode: ModeQuasiStatic, Stepper: "euler", H: 5e-2},
		{Name: "imex", Mode: ModeCapacitive, Stepper: "imex"},
	}
}

func solveXORPortfolio(t *testing.T, parallelism int) Result {
	t.Helper()
	bc, pins, _ := xorProblem(true)
	pf := CompilePortfolio(bc, pins, circuit.Default(), handicappedPortfolio())
	opts := DefaultOptions()
	opts.TEnd = 5
	opts.MaxAttempts = 4
	opts.Parallelism = parallelism
	res, err := pf.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelDeterminism is the seed-derivation contract: with the default
// WinnerLowestAttempt policy, the winning attempt, its seed, and the decoded
// assignment are identical whether restarts run sequentially or race on
// four workers.
func TestParallelDeterminism(t *testing.T) {
	seq := solveXORPortfolio(t, 1)
	par := solveXORPortfolio(t, 4)
	if !seq.Solved || !par.Solved {
		t.Fatalf("solved: sequential=%v parallel=%v", seq.Solved, par.Solved)
	}
	if seq.WinnerAttempt != par.WinnerAttempt {
		t.Fatalf("winner attempt: sequential=%d parallel=%d", seq.WinnerAttempt, par.WinnerAttempt)
	}
	if seq.Attempts != par.Attempts {
		t.Fatalf("attempts: sequential=%d parallel=%d", seq.Attempts, par.Attempts)
	}
	if seq.WinnerSeed != par.WinnerSeed {
		t.Fatalf("winner seed: sequential=%d parallel=%d", seq.WinnerSeed, par.WinnerSeed)
	}
	if seq.WinnerMember != par.WinnerMember {
		t.Fatalf("winner member: sequential=%q parallel=%q", seq.WinnerMember, par.WinnerMember)
	}
	if len(seq.Assignment) != len(par.Assignment) {
		t.Fatalf("assignment lengths differ: %d vs %d", len(seq.Assignment), len(par.Assignment))
	}
	for s := range seq.Assignment {
		if seq.Assignment[s] != par.Assignment[s] {
			t.Fatalf("assignment differs at signal %d: sequential=%v parallel=%v",
				s, seq.Assignment[s], par.Assignment[s])
		}
	}
	// The handicapped member 0 must have failed, making attempt 1 the winner.
	if seq.WinnerAttempt != 1 || seq.WinnerMember != "imex" {
		t.Fatalf("expected imex member to win attempt 1, got attempt %d member %q",
			seq.WinnerAttempt, seq.WinnerMember)
	}
}

// TestWinnerSeedReproduces replays the winning attempt alone: seeding a
// single-attempt solve with Result.WinnerSeed must reproduce the winning
// assignment on attempt 0.
func TestWinnerSeedReproduces(t *testing.T) {
	bc, pins, _ := xorProblem(true)
	cs := Compile(bc, pins, circuit.Default())
	opts := DefaultOptions()
	opts.TEnd = 100
	opts.MaxAttempts = 3
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %s", res.Reason)
	}
	replay := DefaultOptions()
	replay.TEnd = 100
	replay.MaxAttempts = 1
	replay.Seed = res.WinnerSeed
	res2, err := cs.Solve(replay)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Solved || res2.WinnerAttempt != 0 {
		t.Fatalf("replay of seed %d: solved=%v winner=%d", res.WinnerSeed, res2.Solved, res2.WinnerAttempt)
	}
	for s := range res.Assignment {
		if res.Assignment[s] != res2.Assignment[s] {
			t.Fatalf("replay assignment differs at signal %d", s)
		}
	}
}

// TestParallelRaceStress integrates eight cloned engines concurrently on an
// unsatisfiable problem, so every attempt runs its full horizon. Run under
// `go test -race` this is the data-race check for Engine.Clone, the shared
// pool, and the aggregation path.
func TestParallelRaceStress(t *testing.T) {
	bc, pins := unsatProblem()
	cs := Compile(bc, pins, circuit.Default())
	opts := DefaultOptions()
	opts.TEnd = 3
	opts.MaxAttempts = 8
	opts.Parallelism = 4
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Fatal("unsatisfiable problem reported as solved")
	}
	if res.Launched != 8 || res.Attempts != 8 {
		t.Fatalf("launched=%d attempts=%d, want 8/8", res.Launched, res.Attempts)
	}
	if res.Cancelled != 0 {
		t.Fatalf("no attempt should be cancelled without a winner, got %d", res.Cancelled)
	}
	if res.Steps == 0 || res.FEvals == 0 {
		t.Fatalf("aggregate counters empty: steps=%d fevals=%d", res.Steps, res.FEvals)
	}
}

// TestConcurrentSolvesRace shares one compiled portfolio between two
// goroutines calling Solve at once — the dmm-serve shape, where request
// handlers reuse the compiled circuit and each attempt clones its engine.
// Under `go test -race` this guards the read-only compile state against
// mutation by a concurrent solve, and since the portfolio is handicapped
// both callers must land on the same deterministic winner.
func TestConcurrentSolvesRace(t *testing.T) {
	bc, pins, _ := xorProblem(true)
	pf := CompilePortfolio(bc, pins, circuit.Default(), handicappedPortfolio())
	opts := DefaultOptions()
	opts.TEnd = 5
	opts.MaxAttempts = 4
	opts.Parallelism = 2
	var wg sync.WaitGroup
	results := make([]Result, 2)
	errs := make([]error, 2)
	for k := range results {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k], errs[k] = pf.Solve(opts)
		}(k)
	}
	wg.Wait()
	for k := range results {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		if !results[k].Solved {
			t.Fatalf("caller %d not solved: %s", k, results[k].Reason)
		}
	}
	if results[0].WinnerAttempt != results[1].WinnerAttempt ||
		results[0].WinnerSeed != results[1].WinnerSeed {
		t.Fatalf("concurrent solves diverged: attempt %d/%d seed %d/%d",
			results[0].WinnerAttempt, results[1].WinnerAttempt,
			results[0].WinnerSeed, results[1].WinnerSeed)
	}
}

// TestPortfolioHeterogeneous races the repository's default member pair and
// verifies whichever configuration wins decodes a correct assignment.
func TestPortfolioHeterogeneous(t *testing.T) {
	bc, pins, in := xorProblem(true)
	pf := CompilePortfolio(bc, pins, circuit.Default(), nil) // nil → DefaultPortfolio
	if len(pf.Members()) != 2 {
		t.Fatalf("default portfolio has %d members, want 2", len(pf.Members()))
	}
	opts := DefaultOptions()
	opts.TEnd = 100
	opts.MaxAttempts = 4
	opts.Parallelism = 2
	res, err := pf.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %s", res.Reason)
	}
	if res.WinnerMember != "imex-capacitive" && res.WinnerMember != "rk45-quasistatic" {
		t.Fatalf("unexpected winner member %q", res.WinnerMember)
	}
	if res.Assignment[in[0]] == res.Assignment[in[1]] {
		t.Fatal("XOR=1 needs unequal inputs")
	}
	if !bc.Satisfied(res.Assignment) {
		t.Fatal("winning assignment does not satisfy the circuit")
	}
}

// TestFirstDonePolicy checks the nondeterministic racing policy still
// returns a verified assignment and accounts for cancelled attempts.
func TestFirstDonePolicy(t *testing.T) {
	bc, pins, _ := xorProblem(true)
	cs := Compile(bc, pins, circuit.Default())
	opts := DefaultOptions()
	opts.TEnd = 100
	opts.MaxAttempts = 4
	opts.Parallelism = 4
	opts.Policy = WinnerFirstDone
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %s", res.Reason)
	}
	if res.WinnerAttempt < 0 || res.WinnerAttempt >= 4 {
		t.Fatalf("winner attempt %d out of range", res.WinnerAttempt)
	}
	if !bc.Satisfied(res.Assignment) {
		t.Fatal("winning assignment does not satisfy the circuit")
	}
	if res.WinnerSeed != opts.Seed+int64(res.WinnerAttempt) {
		t.Fatalf("winner seed %d inconsistent with attempt %d", res.WinnerSeed, res.WinnerAttempt)
	}
}

// TestDeadlineCancelsAttempts bounds an unsolvable solve by wall clock:
// the pool must come back quickly with the in-flight attempts cancelled.
func TestDeadlineCancelsAttempts(t *testing.T) {
	bc, pins := unsatProblem()
	cs := Compile(bc, pins, circuit.Default())
	opts := DefaultOptions()
	opts.TEnd = 1e6 // far beyond any wall-clock budget
	opts.MaxAttempts = 4
	opts.Parallelism = 2
	opts.Deadline = 50 * time.Millisecond
	start := time.Now()
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: solve took %v", elapsed)
	}
	if res.Solved {
		t.Fatal("unsatisfiable problem reported as solved")
	}
	if res.Reason != "deadline exceeded" {
		t.Fatalf("reason = %q, want \"deadline exceeded\"", res.Reason)
	}
	if res.Cancelled == 0 {
		t.Fatal("expected at least one cancelled attempt")
	}
}

// TestSolveCancelledContext feeds an already-cancelled context: nothing
// may launch and the result must say so.
func TestSolveCancelledContext(t *testing.T) {
	bc, pins, _ := xorProblem(true)
	cs := Compile(bc, pins, circuit.Default())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Ctx = ctx
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Fatal("cancelled solve reported as solved")
	}
	if res.Launched != 0 {
		t.Fatalf("launched %d attempts under a cancelled context", res.Launched)
	}
	if res.Reason != "cancelled" {
		t.Fatalf("reason = %q, want \"cancelled\"", res.Reason)
	}
}

// TestObserveForcesSequential confirms a trajectory callback is never run
// concurrently: a non-nil Observe degrades the pool to one worker even when
// Parallelism asks for more, keeping user callbacks race-free.
func TestObserveForcesSequential(t *testing.T) {
	bc, pins := unsatProblem()
	cs := Compile(bc, pins, circuit.Default())
	opts := DefaultOptions()
	opts.TEnd = 2
	opts.MaxAttempts = 3
	opts.Parallelism = 4
	var active int32
	calls := 0
	opts.Observe = func(float64, la.Vector) {
		if atomic.AddInt32(&active, 1) != 1 {
			t.Error("Observe entered concurrently")
		}
		calls++
		atomic.AddInt32(&active, -1)
	}
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 3 {
		t.Fatalf("launched %d attempts, want 3", res.Launched)
	}
	if calls == 0 {
		t.Fatal("Observe never called")
	}
}
