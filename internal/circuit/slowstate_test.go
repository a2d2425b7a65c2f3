package circuit

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/boolcirc"
	"repro/internal/la"
	"repro/internal/memristor"
	"repro/internal/ode"
)

// buildCNFTree compiles a small 3-SAT formula through boolcirc.FromCNF
// (one OR tree per clause, every clause output pinned true).
func buildCNFTree(t *testing.T) *Circuit {
	t.Helper()
	f := boolcirc.CNF{NumVars: 6, Clauses: []boolcirc.Clause{
		{1, -2, 3}, {-1, 4, 5}, {2, -4, 6}, {-3, -5, -6}, {1, 5, -6}, {-2, 3, 4}, {2, -3, -5},
	}}
	bc, _, outs, err := boolcirc.FromCNF(f)
	if err != nil {
		t.Fatal(err)
	}
	pins := map[boolcirc.Signal]bool{}
	for _, s := range outs {
		pins[s] = true
	}
	return compileBool(t, bc, pins)
}

// refSlowStates is the reference slow-state update, written with the
// scalar memristor.Model API: from the pre-step state x0 and the step's
// solved node voltages nodeV it writes the expected post-step state into
// want and returns the dissipated power Σ g·d².
func refSlowStates(c *Circuit, nodeV la.Vector, h float64, x0, want la.Vector) float64 {
	p := &c.Params
	var power float64
	mb := &c.memBr
	for j := 0; j < mb.len(); j++ {
		d := nodeV[mb.node[j]] - mb.level(j, nodeV)
		xi := memristor.Clamp(x0[c.xOff()+j])
		power += float64(p.Mem.G(xi) * d * d)
		want[c.xOff()+j] = memristor.Clamp(xi + float64(h*p.Mem.DxDt(xi, mb.sigma[j]*d)))
	}
	rb := &c.resBr
	for j := 0; j < rb.len(); j++ {
		d := nodeV[rb.node[j]] - rb.level(j, nodeV)
		power += float64(d * d * (1 / p.R))
	}
	offset := p.DCG.FsOffset(x0[c.iOff() : c.iOff()+c.nd])
	for k, node := range c.dcgNodes {
		i, sv := x0[c.iOff()+k], x0[c.sOff()+k]
		want[c.iOff()+k] = i + float64(h*p.DCG.DiDt(nodeV[node], i, sv))
		want[c.sOff()+k] = sv + float64(h*p.DCG.Fs(sv, offset))
	}
	for n := 0; n < c.numNodes; n++ {
		if fi := c.freeIdx[n]; fi >= 0 {
			want[c.vOff()+fi] = nodeV[n]
		}
	}
	return power
}

// TestIMEXSlowStatesMatchScalarReference runs 5,000 IMEX steps on a
// multiplier SOLC and on a FromCNF OR-tree SOLC and checks every state
// word and the energy integral bitwise, step by step, against
// refSlowStates applied to the same solved voltages.
func TestIMEXSlowStatesMatchScalarReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*testing.T) *Circuit
	}{{"mult3", buildMult3}, {"cnf-or-tree", buildCNFTree}} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			var stats ode.Stats
			st := NewIMEX(c, &stats)
			x := c.InitialState(rand.New(rand.NewSource(7)))
			x0, want := x.Clone(), la.NewVector(len(x))
			const h, steps = 5e-3, 5000
			var energy float64
			interior := 0
			for k := 0; k < steps; k++ {
				x0.CopyFrom(x)
				if _, err := st.Step(c, float64(k)*h, h, x); err != nil {
					t.Fatalf("step %d: %v", k, err)
				}
				energy += float64(h * refSlowStates(c, st.nodeV, h, x0, want))
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
						t.Fatalf("step %d: state word %d = %v (%#x), reference %v (%#x)",
							k, i, x[i], math.Float64bits(x[i]), want[i], math.Float64bits(want[i]))
					}
				}
				if math.Float64bits(st.Energy()) != math.Float64bits(energy) {
					t.Fatalf("step %d: Energy() = %v, reference %v", k, st.Energy(), energy)
				}
				for _, xm := range c.MemStates(x) {
					if xm > 0 && xm < 1 {
						interior++
					}
				}
				c.ClampState(x)
			}
			if stats.Steps != steps || energy <= 0 || interior == 0 {
				t.Fatalf("degenerate run: steps=%d energy=%v interior memristor samples=%d", stats.Steps, energy, interior)
			}
		})
	}
}

// TestIMEXNaNStepCommitsNothing injects one NaN VCDCG current: Step
// must report ode.ErrNaNState and leave Energy() and the step counts
// exactly as they were, so the driver's reject-and-retry does not
// carry the failed step's energy or count forward.
func TestIMEXNaNStepCommitsNothing(t *testing.T) {
	c := buildMult3(t)
	var stats ode.Stats
	st := NewIMEX(c, &stats)
	x := c.InitialState(rand.New(rand.NewSource(3)))
	const h = 1e-3
	for k := 0; k < 20; k++ {
		if _, err := st.Step(c, float64(k)*h, h, x); err != nil {
			t.Fatal(err)
		}
		c.ClampState(x)
	}
	energy, steps, fevals := st.Energy(), stats.Steps, stats.FEvals
	x[c.iOff()] = math.NaN()
	_, err := st.Step(c, 20*h, h, x)
	if !errors.Is(err, ode.ErrNaNState) {
		t.Fatalf("Step on a NaN current: err = %v, want ode.ErrNaNState", err)
	}
	if math.Float64bits(st.Energy()) != math.Float64bits(energy) || stats.Steps != steps || stats.FEvals != fevals {
		t.Fatalf("rejected step committed: energy %v → %v, steps %d → %d, fevals %d → %d",
			energy, st.Energy(), steps, stats.Steps, fevals, stats.FEvals)
	}
}
