package circuit

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/boolcirc"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/solg"
)

// buildMixed returns a small capacitive circuit exercising every stamp
// case: 3-terminal gates, a NOT gate (unused v2 slot), pinned and free
// terminals.
func buildMixed(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder(Default())
	n := b.Nodes(5)
	b.AddGate(solg.AND, n[0], n[1], n[2])
	b.AddGate(solg.XOR, n[1], n[2], n[3])
	b.AddNot(n[3], n[4])
	b.PinBit(n[4], true)
	return b.Build()
}

// buildMult3 compiles the 3-bit multiplier SOLC (6-bit product pinned to
// 15 = 3 × 5) the way solc.Compile does: one node per boolean signal, one
// self-organizing gate per boolean gate, and the circuit constants plus
// the product bits pinned.
func buildMult3(t *testing.T) *Circuit {
	t.Helper()
	kinds := map[boolcirc.Op]solg.Kind{
		boolcirc.And: solg.AND, boolcirc.Or: solg.OR, boolcirc.Xor: solg.XOR,
		boolcirc.Nand: solg.NAND, boolcirc.Nor: solg.NOR, boolcirc.Xnor: solg.XNOR,
	}
	bc := boolcirc.New()
	prod := bc.Multiplier(bc.NewSignals(3), bc.NewSignals(3))
	pins := bc.Constants()
	for i, s := range prod {
		pins[s] = 15&(1<<uint(i)) != 0
	}
	b := NewBuilder(Default())
	nodes := b.Nodes(bc.NumSignals())
	for _, g := range bc.Gates {
		if g.Op == boolcirc.Not {
			b.AddNot(nodes[g.A], nodes[g.Out])
			continue
		}
		k, ok := kinds[g.Op]
		if !ok {
			t.Fatalf("unmapped boolean op %v", g.Op)
		}
		b.AddGate(k, nodes[g.A], nodes[g.B], nodes[g.Out])
	}
	for s, v := range pins {
		b.PinBit(nodes[s], v)
	}
	return b.Build()
}

// TestSparseLUMatchesDenseOracle is the differential oracle for the
// voltage solve: on stamped systems — the 3-bit multiplier SOLC and
// buildMixed, random memristor states, and every diagonal shift the
// engines factor (C/h at h = 1e-3 and at the step-size ladder's rungs
// around it for IMEX, g_leak for the quasi-static form) — the circuit's
// SparseLU clone must agree with the dense partial-pivoting LU to 1e-9
// relative.
func TestSparseLUMatchesDenseOracle(t *testing.T) {
	ladder, err := ode.NewHLadder(ode.DefaultLadderRatio)
	if err != nil {
		t.Fatal(err)
	}
	hs := []float64{1e-3}
	for k := ladder.Rung(1e-3) - 4; k <= ladder.Rung(1e-3)+4; k++ {
		hs = append(hs, ladder.Value(k))
	}
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name string
		c    *Circuit
	}{{"mult3", buildMult3(t)}, {"mixed", buildMixed(t)}} {
		c := tc.c
		shifts := []float64{defaultGLeak}
		for _, h := range hs {
			shifts = append(shifts, c.Params.C/h)
		}
		csr := c.plan.valCSR()
		slu, err := c.symb.CloneFor(csr)
		if err != nil {
			t.Fatal(err)
		}
		g := la.NewVector(c.memBr.len() + c.resBr.len())
		rhs := la.NewVector(c.nv)
		xs := la.NewVector(c.nv)
		for trial := 0; trial < 4; trial++ {
			x := c.InitialState(rng)
			c.fillConductances(g, x, c.xOff())
			nodeV := c.NodeVoltages(0.5, x, nil)
			for _, shift := range shifts {
				c.plan.assemble(csr.Val, shift, g)
				rhs.Zero()
				c.plan.assembleRHS(rhs, g, nodeV)
				for f := 0; f < c.nv; f++ {
					rhs[f] += shift * x[c.vOff()+f]
				}
				if err := slu.Refactor(); err != nil {
					t.Fatalf("%s trial %d shift %g: sparse refactor: %v", tc.name, trial, shift, err)
				}
				slu.SolveInto(xs, rhs)
				xd, err := la.SolveDense(csr.ToDense(), rhs)
				if err != nil {
					t.Fatalf("%s trial %d shift %g: dense solve: %v", tc.name, trial, shift, err)
				}
				if d, scale := xs.MaxAbsDiff(xd), xd.NormInf(); d > 1e-9*scale {
					t.Fatalf("%s trial %d shift %g: sparse vs dense differ by %.3g (‖x‖∞ = %.3g)",
						tc.name, trial, shift, d, scale)
				}
			}
		}
	}
}

// TestStampPlanMatchesDerivative cross-checks the stamp plan against the
// explicit Derivative: at any state, A·v + rhs-terms must reproduce the
// capacitive currents, i.e. the backward-Euler residual of a zero-size
// step vanishes. A direct way to test it: assemble A and b at shift=0 and
// verify A·v - b equals -C·v̇ on the free nodes.
func TestStampPlanMatchesDerivative(t *testing.T) {
	c := buildMixed(t)
	rng := rand.New(rand.NewSource(2))
	x := c.InitialState(rng)
	tNow := 0.7

	// Left side: A(g)·v - b via the stamp plan at shift 0.
	g := la.NewVector(c.memBr.len() + c.resBr.len())
	c.fillConductances(g, x, c.xOff())
	vals := make([]float64, c.plan.csr.NNZ())
	c.plan.assemble(vals, 0, g)
	a := &la.CSR{Rows: c.nv, Cols: c.nv, RowPtr: c.plan.csr.RowPtr, ColIdx: c.plan.csr.ColIdx, Val: vals}
	nodeV := c.NodeVoltages(tNow, x, nil)
	rhs := la.NewVector(c.nv)
	c.plan.assembleRHS(rhs, g, nodeV)
	for k, node := range c.dcgNodes {
		if fi := c.freeIdx[node]; fi >= 0 {
			rhs[fi] -= x[c.iOff()+k]
		}
	}
	v := la.NewVector(c.nv)
	for n := 0; n < c.numNodes; n++ {
		if fi := c.freeIdx[n]; fi >= 0 {
			v[fi] = nodeV[n]
		}
	}
	av := la.NewVector(c.nv)
	a.MulVec(av, v)

	// Right side: -C·v̇ from the explicit Derivative.
	dxdt := la.NewVector(c.Dim())
	c.Derivative(tNow, x, dxdt)
	for f := 0; f < c.nv; f++ {
		want := -c.Params.C * dxdt[c.vOff()+f]
		got := av[f] - rhs[f]
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("free node %d: plan residual %v, derivative %v", f, got, want)
		}
	}
}

// TestSparseDefaultAllocFreeStep verifies the production path allocates
// nothing per step once the factorization cache is warm.
func TestSparseDefaultAllocFreeStep(t *testing.T) {
	c := buildMixed(t)
	x := c.InitialState(rand.New(rand.NewSource(1)))
	s := NewIMEX(c, nil)
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
	})
	if allocs != 0 {
		t.Fatalf("sparse IMEX step allocated %v objects per run, want 0", allocs)
	}
}
