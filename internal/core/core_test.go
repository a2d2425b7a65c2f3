package core

import (
	"strings"
	"testing"

	"repro/internal/classical"
)

func TestWordSizes(t *testing.T) {
	// Sec. VII-A: np = nn-1, nq = ⌊nn/2⌋.
	np, nq := WordSizes(6)
	if np != 5 || nq != 3 {
		t.Fatalf("WordSizes(6) = %d,%d, want 5,3", np, nq)
	}
	np, nq = WordSizes(8)
	if np != 7 || nq != 4 {
		t.Fatalf("WordSizes(8) = %d,%d, want 7,4", np, nq)
	}
}

func TestBitLen(t *testing.T) {
	cases := []struct {
		n    uint64
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {35, 6}, {255, 8}, {256, 9}}
	for _, c := range cases {
		if got := BitLen(c.n); got != c.want {
			t.Fatalf("BitLen(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPrecision(t *testing.T) {
	if p := Precision([]uint64{3, 5, 6}); p != 3 {
		t.Fatalf("Precision = %d, want 3", p)
	}
	if p := Precision([]uint64{1}); p != 1 {
		t.Fatalf("Precision = %d, want 1", p)
	}
}

func TestBuildCircuitGateCount(t *testing.T) {
	// Fig. 11 scaling check: the SOLC grows as O(nn²) gates.
	count := func(nn int) int {
		bc, _, _, _ := BuildCircuit(1<<uint(nn-1), nn)
		return len(bc.Gates)
	}
	g6, g12, g24 := count(6), count(12), count(24)
	// Quadratic growth: doubling nn should roughly quadruple gates.
	r1 := float64(g12) / float64(g6)
	r2 := float64(g24) / float64(g12)
	if r1 < 2.5 || r1 > 6 || r2 < 2.5 || r2 > 6 {
		t.Fatalf("gate growth not ~quadratic: %d, %d, %d (ratios %.2f, %.2f)",
			g6, g12, g24, r1, r2)
	}
}

func TestFactorizerRejectsTiny(t *testing.T) {
	f := NewFactorizer(DefaultConfig())
	if _, err := f.Factor(3); err == nil {
		t.Fatal("n < 4 should error")
	}
}

// TestFactorThreeBitInfeasible pins every 3-bit product: the (2, 1)-bit
// words hold no product with bit 2 set, so the pin on the multiplier's
// constant-0 top bit makes the problem infeasible. Factor must report an
// unsolved outcome without launching an attempt, never a bogus factor
// pair.
func TestFactorThreeBitInfeasible(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TEnd = 5
	cfg.MaxAttempts = 1
	for _, n := range []uint64{4, 5, 6, 7} {
		res, err := NewFactorizer(cfg).Factor(n)
		if err != nil {
			t.Fatalf("Factor(%d): %v", n, err)
		}
		if res.Solved || res.Metrics.Launched != 0 || !strings.HasPrefix(res.Reason, "infeasible") {
			t.Fatalf("Factor(%d) = solved %v, launched %d, reason %q; want an infeasible miss with no attempt",
				n, res.Solved, res.Metrics.Launched, res.Reason)
		}
	}
}

func TestFactor35(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamical run")
	}
	cfg := DefaultConfig()
	cfg.TEnd = 100
	cfg.MaxAttempts = 4
	f := NewFactorizer(cfg)
	res, err := f.Factor(35)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("35 not factored: %s (%s)", res.Reason, res.Metrics)
	}
	if res.P != 5 || res.Q != 7 {
		t.Fatalf("got %d×%d, want 5×7", res.P, res.Q)
	}
	if res.Metrics.ConvergenceTime <= 0 || res.Metrics.Gates == 0 {
		t.Fatalf("metrics not populated: %s", res.Metrics)
	}
	// Cross-check against the classical baseline.
	p, q := classical.FactorSemiprime(35)
	if p != res.P || q != res.Q {
		t.Fatalf("SOLC and classical disagree: %d×%d vs %d×%d", res.P, res.Q, p, q)
	}
}

func TestFactorTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamical run")
	}
	cfg := DefaultConfig()
	cfg.TEnd = 100
	cfg.MaxAttempts = 4
	cfg.TraceNodes = 4
	cfg.TraceEvery = 20
	f := NewFactorizer(cfg)
	res, err := f.Factor(35)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("trace requested but empty")
	}
}

func TestSubsetSumSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamical run")
	}
	cfg := DefaultConfig()
	cfg.TEnd = 100
	cfg.MaxAttempts = 4
	ss := NewSubsetSum(cfg)
	values := []uint64{3, 5, 6}
	res, err := ss.Solve(values, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("subset-sum not solved: %s (%s)", res.Reason, res.Metrics)
	}
	if classical.ApplyMask(values, res.Mask) != 8 {
		t.Fatalf("mask %b does not sum to 8", res.Mask)
	}
	// The DP baseline agrees that a solution exists.
	if _, ok := classical.SubsetSumDP(values, 8); !ok {
		t.Fatal("baseline disagrees")
	}
}

func TestSubsetSumValidation(t *testing.T) {
	ss := NewSubsetSum(DefaultConfig())
	if _, err := ss.Solve(nil, 5); err == nil {
		t.Fatal("empty instance should error")
	}
	if _, err := ss.Solve([]uint64{0, 3}, 3); err == nil {
		t.Fatal("zero values should error")
	}
	if _, err := ss.Solve([]uint64{1, 3}, 0); err == nil {
		t.Fatal("zero target should error (non-empty subset required)")
	}
}

func TestConfigPresets(t *testing.T) {
	d := DefaultConfig()
	if d.Stepper != "imex" || d.StepH <= 0 || d.MaxAttempts < 1 {
		t.Fatalf("bad default config: %+v", d)
	}
	p := PaperConfig()
	// Table II pins.
	if p.Params.Mem.Ron != 1e-2 || p.Params.Mem.Roff != 1 || p.Params.Mem.Alpha != 60 {
		t.Fatalf("paper preset wrong: %+v", p.Params.Mem)
	}
	if p.Params.DCG.Q != 10 || p.Params.DCG.IMax != 20 || p.Params.DCG.Gamma != 60 {
		t.Fatalf("paper preset DCG wrong: %+v", p.Params.DCG)
	}
}
