package memristor

import "math"

// Model holds the device parameters for the paper's memristor (Eqs. 14-18,
// 26, 31, 40). The internal state x ∈ [0,1] interpolates the resistance
// between Ron (x=0) and Roff (x=1).
type Model struct {
	Ron  float64 // minimum resistance (x = 0)
	Roff float64 // maximum resistance (x = 1)
	// Alpha is the state-equation rate constant (Eq. 22); it sets the
	// memristor switching time scale τ_M ∝ 1/α.
	Alpha float64
	// K is the boundary-window steepness k in Eq. (31). math.Inf(1)
	// selects the hard window (Table II uses k = ∞); the circuit layer
	// then relies on exact clamping of x to [0,1] (Prop. VI.2).
	K float64
	// Vt is the threshold voltage in Eq. (40); Vt ≤ 0 reduces θ̃(v/2Vt)
	// to the Heaviside step θ(v), matching Table II's Vt = 0.
	Vt float64
	// Step is the smooth step θ̃_r used inside h. Nil means hard Heaviside.
	Step *SmoothStep
}

// Default returns the Table II device: Ron = 1e-2, Roff = 1, α = 60,
// k = ∞, Vt = 0, with a C¹ smooth step available for the threshold form.
func Default() Model {
	return Model{
		Ron:   1e-2,
		Roff:  1,
		Alpha: 60,
		K:     math.Inf(1),
		Vt:    0,
		Step:  NewSmoothStep(1),
	}
}

// R1 returns Roff - Ron (the state-dependent resistance span of Eq. 26).
func (m Model) R1() float64 { return m.Roff - m.Ron }

// M returns the memristance M(x) = Ron(1-x) + Roff·x (Eq. 18).
func (m Model) M(x float64) float64 { return float64(m.Ron*(1-x)) + float64(m.Roff*x) }

// G returns the conductance g(x) = 1/(R1·x + Ron) (Eq. 26). The
// float64(...) around the product is an explicit rounding barrier: it
// keeps R1·x from fusing into the add as an FMA on arm64, so g(x) is
// bit-identical across architectures; AdvanceAll takes this value as
// its g input.
func (m Model) G(x float64) float64 { return 1 / (float64(m.R1()*x) + m.Ron) }

// theta evaluates the voltage gate of Eq. (40): θ̃_r(v / 2Vt), reducing to
// the Heaviside θ(v) when Vt ≤ 0 or no smooth step is configured.
func (m Model) theta(v float64) float64 {
	if m.Vt <= 0 || m.Step == nil {
		if v > 0 {
			return 1
		}
		return 0
	}
	return m.Step.Eval(v / (2 * m.Vt))
}

// window returns the boundary factor 1 - e^{-k·d} where d is the distance
// from the blocking boundary; with K = ∞ it is the hard indicator d > 0.
// d = 0 short-circuits the exp: 1 - e^{-k·0} is exactly 0 in IEEE
// arithmetic, so the fast path is bit-identical. It is not a hot-loop
// saving: in the paper-small benchmark's IMEX solves only ~0.95% of
// window evaluations sit exactly at the blocking boundary (d = 0) and
// ~0.005% at d = 1, so AdvanceAll evaluates the exp for every device in
// one tight pass instead.
func (m Model) window(d float64) float64 {
	if math.IsInf(m.K, 1) {
		if d > 0 {
			return 1
		}
		return 0
	}
	if d == 0 {
		return 0
	}
	return 1 - math.Exp(-m.K*d)
}

// H evaluates the window function h(x, vM) of Eq. (31)/(40):
//
//	h = (1 - e^{-k·x})·θ̃(vM) + (1 - e^{-k(1-x)})·θ̃(-vM).
//
// For vM > 0 the state decreases toward 0, so the x-side factor blocks at
// x = 0; for vM < 0 the state increases toward 1 and the (1-x)-side factor
// blocks there. θ̃ vanishes on (-∞, 0], so at most one term is nonzero for
// any vM and the other window (an exp for finite k) need not be evaluated.
func (m Model) H(x, vM float64) float64 {
	if vM > 0 {
		return m.window(x) * m.theta(vM)
	}
	if vM < 0 {
		return m.window(1-x) * m.theta(-vM)
	}
	return 0
}

// DxDt returns the memristor state equation (Eq. 29):
//
//	dx/dt = -α · h(x, vM) · g(x) · vM ,
//
// where g(x)·vM is the current through the device (current-driven form).
func (m Model) DxDt(x, vM float64) float64 {
	return -m.Alpha * m.H(x, vM) * m.G(x) * vM
}

// AdvanceAll performs the explicit memristor update for a row of devices
// held as parallel arrays: for every j,
//
//	x[j] ← Clamp(x' + h·DxDt(x', sigma[j]·d[j])),  x' = Clamp(x[j]),
//
// where g[j] must be G(x') — the conductance the caller's voltage solve
// already evaluated from the same clamped state — and w is scratch of
// len(x) whose contents on entry are ignored. It reports false when some
// updated state is NaN; Clamp maps ±Inf into [0,1], so NaN is the only
// non-finite outcome.
//
// The row runs in three passes, so the exponential sits in a tight loop
// of its own instead of behind the per-device branches:
//
//  1. (finite K) the distance of each clamped state from its blocking
//     boundary — x' when vM ≥ 0, 1 − x' when vM < 0 — into w;
//  2. (finite K) w ← 1 − e^{−K·w}, the boundary window of Eq. (31);
//  3. the window, the θ̃ gate of Eq. (40), g and vM into the Euler update.
//
// Every value is bit-identical to the Clamp/DxDt composition (the
// property tests check it):
//
//   - Pass 2 has no d = 0 fast path: for any K but NaN and −∞, −K·0 is
//     ±0, e^{±0} is 1, and 1 − 1 is +0 — the value window returns there.
//   - The product (−α·hv)·g·vM keeps DxDt's association, and g[j] is the
//     same G(x') expression the scalar path evaluates.
//   - Above the gate (|vM| ≥ 2Vt) the correctly rounded |vM|/2Vt is ≥ 1,
//     so θ̃ returns exactly 1 and hv·1 ≡ hv: skipping Eval there is exact.
//     On the hard-threshold branches θ is 1 and is dropped the same way.
//
// The float64(...) barrier pins the FMA-fusable h·ẋ + x' to two
// roundings on every architecture.
//
//dmmvet:hotpath
func (m Model) AdvanceAll(h float64, sigma, d, g, x, w []float64) bool {
	n := len(x)
	sigma, d, g, w = sigma[:n], d[:n], g[:n], w[:n]
	hardK := math.IsInf(m.K, 1)
	if !hardK {
		for j := range x {
			dist := Clamp(x[j])
			if sigma[j]*d[j] < 0 {
				dist = 1 - dist
			}
			w[j] = dist
		}
		nk := -m.K
		for j := range w {
			w[j] = 1 - math.Exp(nk*w[j])
		}
	}
	softT := m.Vt > 0 && m.Step != nil
	vt2 := 2 * m.Vt
	step := m.Step
	na := -m.Alpha
	finite := true
	for j := range x {
		xi := Clamp(x[j])
		vM := sigma[j] * d[j]
		var hv float64
		if vM != 0 {
			if !hardK {
				hv = w[j]
			} else {
				dist := xi
				if vM < 0 {
					dist = 1 - xi
				}
				if dist > 0 {
					hv = 1
				}
			}
			if softT {
				av := math.Abs(vM)
				if av < vt2 {
					hv *= step.Eval(av / vt2)
				}
			}
		}
		xn := Clamp(xi + float64(h*(na*hv*g[j]*vM)))
		if math.IsNaN(xn) {
			finite = false
		}
		x[j] = xn
	}
	return finite
}

// Clamp returns x restricted to the invariant interval [0,1].
func Clamp(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
