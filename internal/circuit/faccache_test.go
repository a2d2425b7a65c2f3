package circuit

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ode"
)

// TestFacCacheLookupLRU exercises the per-rung cache's replacement
// policy directly: hits touch the stamp, misses hand back an unused slot
// while one exists, and only then the least recently touched victim.
func TestFacCacheLookupLRU(t *testing.T) {
	fc := &facCache{slots: make([]facSlot, 2)}
	key := func(h float64) uint64 { return math.Float64bits(h) }
	install := func(hBits uint64) *facSlot {
		slot, hit := fc.lookup(hBits)
		if hit {
			t.Fatalf("unexpected hit for fresh key %x", hBits)
		}
		slot.hBits = hBits
		slot.used = true
		return slot
	}

	s1 := install(key(1e-3))
	if slot, hit := fc.lookup(key(1e-3)); !hit || slot != s1 {
		t.Fatalf("re-lookup of installed rung: hit=%v slot=%p want %p", hit, slot, s1)
	}
	// The second distinct rung must claim the unused slot, not evict s1.
	s2 := install(key(2e-3))
	if s2 == s1 {
		t.Fatal("second rung evicted a live slot while an unused one existed")
	}
	if fc.evictions != 0 {
		t.Fatalf("evictions = %d before the cache was full", fc.evictions)
	}
	// Touch s1 so s2 becomes the LRU; a third rung must then evict s2.
	fc.lookup(key(1e-3))
	s3 := install(key(3e-3))
	if s3 != s2 {
		t.Fatalf("third rung evicted %p, want the LRU slot %p", s3, s2)
	}
	if fc.evictions != 1 {
		t.Fatalf("evictions = %d after one capacity eviction, want 1", fc.evictions)
	}
	// The evicted rung is gone; the survivor still hits.
	if _, hit := fc.lookup(key(2e-3)); hit {
		t.Fatal("evicted rung still reported as cached")
	}
	if slot, hit := fc.lookup(key(1e-3)); !hit || slot != s1 {
		t.Fatal("surviving rung lost after eviction of its neighbor")
	}
	// The key is exact: a step size one ulp off a cached rung is a miss,
	// because any change of h changes the C/h diagonal shift.
	if _, hit := fc.lookup(key(math.Nextafter(1e-3, 1))); hit {
		t.Fatal("step size one ulp off a cached rung reported as cached")
	}
}

// TestClassifyReuseTable is the table test of the reuse ladder: miss and
// disabled staleness refactor; with refinement off (the seed semantics)
// the full RefactorTol band reuses exactly; with refinement on the exact
// band narrows by refineExactFrac, drift up to StaleMax refines, and
// anything beyond refactors.
func TestClassifyReuseTable(t *testing.T) {
	c := buildMixed(t)
	cases := []struct {
		name     string
		hit      bool
		tol      float64
		staleMax float64
		drift    float64
		want     facReuse
	}{
		{"cache miss", false, 5e-3, 0, 0, facRefactor},
		{"staleness disabled", true, 0, 0, 0, facRefactor},
		{"seed: drift within RefactorTol", true, 5e-3, 0, 3e-3, facExact},
		{"seed: drift beyond RefactorTol", true, 5e-3, 0, 8e-3, facRefactor},
		{"refine: drift within narrowed exact band", true, 5e-3, 4.0, 3e-4, facExact},
		{"refine: narrowed band excludes seed band", true, 5e-3, 4.0, 3e-3, facRefine},
		{"refine: drift within StaleMax", true, 5e-3, 4.0, 2.0, facRefine},
		{"refine: drift beyond StaleMax", true, 5e-3, 4.0, 5.0, facRefactor},
	}
	for _, tc := range cases {
		s := NewIMEX(c, nil)
		s.RefactorTol = tc.tol
		s.StaleMax = tc.staleMax
		slot := &facSlot{gAt: make([]float64, c.nm), used: true}
		for m := 0; m < c.nm; m++ {
			slot.gAt[m] = 1
			s.g[m] = 1
		}
		s.g[0] = 1 + tc.drift
		if got := s.classifyReuse(slot, tc.hit); got != tc.want {
			t.Errorf("%s: classifyReuse = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestFactorCacheRungCounters steps one stepper across step-size rungs
// and checks the refactor/hit counters against the cache capacity: a
// revisited rung hits, a capacity overflow evicts the LRU rung, and the
// evicted rung refactors on return. RefactorTol is set huge so every hit
// classifies as exact reuse and the counters depend only on cache
// behavior, not conductance drift.
func TestFactorCacheRungCounters(t *testing.T) {
	c := buildMixed(t)
	x := c.InitialState(rand.New(rand.NewSource(3)))
	stats := &ode.Stats{}
	s := NewIMEX(c, stats)
	s.RefactorTol = 1e18
	s.FactorCacheCap = 2

	h1, h2, h3 := 1e-3, 2e-3, 4e-3
	tNow := 0.0
	step := func(h float64) {
		t.Helper()
		if _, err := s.Step(c, tNow, h, x); err != nil {
			t.Fatal(err)
		}
		tNow += h
		c.ClampState(x)
	}
	check := func(stage string, refactors, hits int) {
		t.Helper()
		if stats.Refactors != refactors || stats.FactorHits != hits {
			t.Fatalf("%s: refactors=%d hits=%d, want %d/%d",
				stage, stats.Refactors, stats.FactorHits, refactors, hits)
		}
	}

	step(h1)
	check("first step factors", 1, 0)
	step(h1)
	check("same rung reuses", 1, 1)
	step(h2)
	check("new rung factors", 2, 1)
	step(h1)
	check("both rungs cached at cap 2", 2, 2)
	step(h3)
	check("third rung evicts the LRU (h2)", 3, 2)
	step(h2)
	check("evicted rung refactors on return", 4, 2)
	step(h3)
	check("h3 survived as most recent", 4, 3)
}

// TestLadderRefineAllocFreeStep extends the zero-allocation budget to the
// refinement path: with the stale-reuse band and the warm-started
// quadratic extrapolation active, a warm stepper must not allocate.
func TestLadderRefineAllocFreeStep(t *testing.T) {
	c := buildMixed(t)
	x := c.InitialState(rand.New(rand.NewSource(1)))
	s := NewIMEX(c, nil)
	s.StaleMax = DefaultStaleMax
	h := 1e-3
	if _, err := s.Step(c, 0, h, x); err != nil {
		t.Fatal(err)
	}
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		k++
		if _, err := s.Step(c, float64(k)*h, h, x); err != nil {
			t.Fatal(err)
		}
		c.ClampState(x)
	})
	if allocs != 0 {
		t.Fatalf("refine-path IMEX step allocated %v objects per run, want 0", allocs)
	}
}
