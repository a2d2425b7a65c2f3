package circuit

import (
	"math"

	"repro/internal/la"
	"repro/internal/obs"
)

// facSlot is one cached numeric factorization of the shifted voltage
// system (C/h·I + A(g)): the factor itself, the exact step size it was
// computed at (as raw bits — the cache key must be an exact match, not a
// float comparison), and the memristor conductances it was assembled
// from, against which staleness is judged.
type facSlot struct {
	hBits uint64     // math.Float64bits of the step size h
	fac   *la.Factor // numeric L/U values (lazily allocated)
	gAt   la.Vector  // memristor conductances at factorization time
	stamp int64      // last-touch time for LRU eviction
	used  bool       // false until the slot holds a valid factor
}

// facCache is a small LRU of facSlots, one per recently visited step-size
// rung. It is a plain slice scanned linearly: the capacity is a handful
// (the ladder controller oscillates among a few adjacent rungs), a scan
// beats a map at that size, and slices keep iteration deterministic for
// the detflow analyzer. All methods are allocation-free; slot storage is
// allocated lazily by the stepper's cold path.
type facCache struct {
	slots     []facSlot
	clock     int64
	evictions int
}

// lookup returns the slot for hBits and whether it holds a valid factor
// for exactly that step size. On a miss it returns the eviction victim —
// an unused slot if any, else the least recently touched — untouched;
// the caller refactors into it (which marks it used and re-keys it).
func (fc *facCache) lookup(hBits uint64) (*facSlot, bool) {
	fc.clock++
	var victim *facSlot
	for i := range fc.slots {
		sl := &fc.slots[i]
		if sl.used && sl.hBits == hBits {
			sl.stamp = fc.clock
			return sl, true
		}
		switch {
		case victim == nil:
			victim = sl
		case !sl.used && victim.used:
			victim = sl
		case sl.used == victim.used && sl.stamp < victim.stamp:
			victim = sl
		}
	}
	if victim.used {
		fc.evictions++
	}
	victim.stamp = fc.clock
	return victim, false
}

// facReuse classifies how a step may use a cache slot.
type facReuse int

const (
	// facRefactor: the slot holds no usable factor for this step (miss,
	// staleness disabled, or conductance drift beyond every tolerance) —
	// assemble and refactor.
	facRefactor facReuse = iota
	// facExact: drift since factorization is within RefactorTol — reuse
	// the factor as-is, exactly the staleness the seed predicate allowed.
	facExact
	// facRefine: drift is beyond RefactorTol but within StaleMax — reuse
	// the factor as a preconditioner and iteratively refine the solve
	// against the freshly assembled matrix.
	facRefine
)

// refineExactFrac narrows the unrefined-reuse band when refinement is
// enabled: exact reuse then requires drift within RefactorTol/10, so the
// uncorrected staleness error of the ladder path stays an order below
// what the seed predicate accepted — refined steps are residual-
// controlled anyway, and a one-sweep refine costs little more than an
// exact reuse.
const refineExactFrac = 0.1

// classifyReuse decides between refactoring, exact reuse, and refined
// reuse for the slot returned by lookup.
func (s *IMEXStepper) classifyReuse(slot *facSlot, hit bool) facReuse {
	if !hit || s.RefactorTol <= 0 {
		return facRefactor
	}
	gNow := s.g[:s.c.nm]
	refine := s.StaleMax > s.RefactorTol
	exactTol := s.RefactorTol
	if refine {
		exactTol *= refineExactFrac
	}
	if !conductanceDrift(gNow, slot.gAt, exactTol) {
		return facExact
	}
	if refine && !conductanceDrift(gNow, slot.gAt, s.StaleMax) {
		return facRefine
	}
	return facRefactor
}

// ensureCache allocates the slot array on first use. FactorCacheCap is a
// public field set after NewIMEX, so the allocation must wait until the
// first Step.
//
//dmmvet:coldpath — one slice allocation on the first step of a run; every later call returns immediately
func (s *IMEXStepper) ensureCache() {
	if s.cache.slots != nil {
		return
	}
	n := s.FactorCacheCap
	if n == 0 {
		n = DefaultFactorCacheCap
	}
	if n < 1 {
		n = 1
	}
	s.cache.slots = make([]facSlot, n)
}

// refactorSlot assembles shift·I + A(g) (unless the caller already assembled the current values into s.csr, signalled by
// assembled) and factors it into the slot's numeric storage, re-keying
// the slot to hBits.
//
//dmmvet:coldpath — runs only on refactor events (first visit of a rung, eviction, refresh past break-even); slot storage and the first sparse clone are allocated once and amortized across the run
func (s *IMEXStepper) refactorSlot(slot *facSlot, hBits uint64, shift float64, assembled bool) error {
	c := s.c
	if s.slu == nil {
		s.csr = c.plan.valCSR()
		slu, err := c.symb.CloneFor(s.csr)
		if err != nil {
			return err
		}
		// Self-time the private clone's Refactor/SolveInto. The shared
		// symbolic template c.symb keeps a nil hook: it is stepped by
		// every attempt, and the scalar hot path never solves on it.
		slu.Spans = s.Spans
		s.slu = slu
	}
	if slot.fac == nil {
		slot.fac = s.slu.NewFactor()
		slot.gAt = la.NewVector(c.nm)
	}
	if !assembled {
		tok := s.Spans.Begin()
		c.plan.assemble(s.csr.Val, shift, s.g)
		s.Spans.End(obs.PhaseStamp, tok)
	}
	s.slu.SetFactor(slot.fac)
	if err := s.slu.Refactor(); err != nil {
		slot.used = false
		return err
	}
	slot.gAt.CopyFrom(s.g[:c.nm])
	slot.hBits = hBits
	slot.used = true
	return nil
}

// refineBail aborts refinement when a sweep shrinks the residual by less
// than this factor: at contraction worse than ~0.7 reaching RefineTol
// from the warm-start residual takes on the order of a dozen more
// sweeps — about the price of the refactorization the caller falls back
// to (one sweep ≈ a tenth of a numeric refactor on the 6-bit
// multiplier). This bail, not StaleMax, is what ends a factor's
// economic lifetime in practice.
const refineBail = 0.7

// solveRefined solves the freshly assembled system in s.csr with the
// active (stale) factor as a preconditioner and an extrapolated warm
// start: iterative-refinement sweeps vNew += M_stale⁻¹·(rhs − M·vNew)
// until the residual drops below RefineTol·‖rhs‖∞ or the iteration
// stops paying (MaxRefine sweeps, or per-sweep contraction slower than
// refineBail). The warm start is what makes refinement cheap: it
// removes the O(per-step voltage motion) part of the initial residual
// that even a fresh factor would have to solve for, leaving only the
// staleness error, so most steps converge in a sweep or two. Returns
// the sweeps applied and whether the residual converged; on false the
// caller must refactor and re-solve. Allocation-free: the residual and
// correction scratch live on the stepper.
func (s *IMEXStepper) solveRefined() (sweeps int, ok bool) {
	tok := s.Spans.Begin()
	// Warm start by quadratic extrapolation of the last three accepted
	// solutions, v(t+h) ≈ 3v − 3v₋₁ + v₋₂: node voltages move smoothly
	// at fixed h, so the predicted iterate starts two to three orders
	// below a cold ‖rhs‖ residual — typically one full sweep cheaper
	// than the linear predictor. The same fused loop shifts the history
	// so vPrev/vPrev2 stay one/two steps behind vNew.
	for i, v := range s.vNew {
		s.vNew[i] = float64(3*(v-s.vPrev[i])) + s.vPrev2[i]
		s.vPrev2[i] = s.vPrev[i]
		s.vPrev[i] = v
	}
	bound := s.RefineTol * s.rhs.NormInf()
	prev := math.Inf(1)
	for it := 0; ; it++ {
		r := s.csr.ResidualNormInto(s.resid, s.rhs, s.vNew)
		if r <= bound {
			s.Obs.Residual(r)
			s.Spans.End(obs.PhaseRefine, tok)
			return it, true
		}
		if it >= s.MaxRefine || r > refineBail*prev {
			s.Spans.End(obs.PhaseRefine, tok)
			return it, false
		}
		prev = r
		tok = s.Spans.Lap(obs.PhaseRefine, tok)
		s.slu.SolveInto(s.delta, s.resid) // self-times into PhaseSolve
		tok = s.Spans.Begin()
		s.vNew.Add(s.delta)
	}
}
