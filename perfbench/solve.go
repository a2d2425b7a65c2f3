package main

import (
	"fmt"
	"time"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solc"
)

// compiled is one instance built and compiled for solving, with the
// signals its answer is decoded from and the set-up cost of each layer.
type compiled struct {
	pf *solc.Portfolio
	// p, q are the factor words (kindFactor), sel the subset selectors
	// (kindSubsetSum), vars the CNF variables (kindSAT).
	p, q, sel, vars []boolcirc.Signal

	build, compile time.Duration
	dim, nnz, fnnz int
}

// compileInstance synthesizes one instance's boolean circuit and runs
// solc.CompilePortfolio on it, timing each.
func compileInstance(in instance) (*compiled, error) {
	c := &compiled{}
	start := time.Now()
	var bc *boolcirc.Circuit
	var pins map[boolcirc.Signal]bool
	switch in.Kind {
	case kindFactor:
		bc, c.p, c.q, pins = core.BuildCircuit(in.N, core.BitLen(in.N))
	case kindSubsetSum:
		bc, c.sel, pins = core.BuildSubsetSumCircuit(in.Values, core.Precision(in.Values), in.Target)
	case kindSAT:
		var outs []boolcirc.Signal
		var err error
		bc, c.vars, outs, err = boolcirc.FromCNF(*in.CNF)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", in, err)
		}
		pins = make(map[boolcirc.Signal]bool, len(outs))
		for _, o := range outs {
			pins[o] = true
		}
	default:
		return nil, fmt.Errorf("unknown instance kind %q", in.Kind)
	}
	c.build = time.Since(start)
	start = time.Now()
	c.pf = solc.CompilePortfolio(bc, pins, circuit.Default(),
		[]solc.PortfolioMember{{Mode: solc.ModeCapacitive, Stepper: "imex"}})
	c.compile = time.Since(start)
	ckt, ok := c.pf.Compiled(0).Eng.(*circuit.Circuit)
	if !ok {
		return nil, fmt.Errorf("compile %s: engine is not the capacitive circuit", in)
	}
	c.dim = ckt.Dim()
	_, c.nnz = ckt.NNZ()
	c.fnnz = ckt.FactorNNZ()
	return c, nil
}

// outcome is one solved (or not) pair.
type outcome struct {
	Solved bool
	// Satisfiable is the instance's label: a solution exists.
	Satisfiable bool
	// Failure is non-empty when the solve errored, returned an answer
	// that fails verification, or claimed a solution of an UNSAT formula.
	Failure string
	Wall    time.Duration
	// DynTTS is (attempts consumed − 1)·TEnd + t* for a solved pair and
	// attempts·TEnd otherwise: the dynamical time the result accounts for.
	DynTTS float64
	Res    solc.Result
}

// solvePair solves one pair through Portfolio.Solve and verifies the
// answer independently of the solver. tl, when non-nil, switches on the
// solver's telemetry for the traced run.
func solvePair(w *workload, c *compiled, in instance, p pair, tl *obs.Telemetry) outcome {
	opts := solc.DefaultOptions()
	opts.H = w.Config.H
	opts.TEnd = w.Config.TEnd
	opts.MaxAttempts = w.Config.Attempts
	opts.Parallelism = w.Config.Parallelism
	opts.Policy = solc.WinnerLowestAttempt
	opts.Seed = p.Seed
	opts.Telemetry = tl
	start := time.Now()
	res, err := c.pf.Solve(opts)
	out := outcome{Wall: time.Since(start), Res: res, Satisfiable: in.Satisfiable}
	if err != nil {
		out.Failure = fmt.Sprintf("solve error: %v", err)
		return out
	}
	if !res.Solved {
		out.DynTTS = float64(res.Attempts) * opts.TEnd
		return out
	}
	out.DynTTS = float64(res.Attempts-1)*opts.TEnd + res.T
	if err := verify(in, c, res.Assignment); err != nil {
		out.Failure = err.Error()
		return out
	}
	out.Solved = true
	return out
}

// verify checks a claimed solution against the problem itself, not
// against the circuit the solver ran.
func verify(in instance, c *compiled, a boolcirc.Assignment) error {
	switch in.Kind {
	case kindFactor:
		p := boolcirc.WordToUint(a, c.p)
		q := boolcirc.WordToUint(a, c.q)
		if p > q {
			p, q = q, p
		}
		if !(1 < p && p <= q && q < in.N && p*q == in.N) {
			return fmt.Errorf("factor %d: answer %d×%d is wrong", in.N, p, q)
		}
	case kindSubsetSum:
		var sum uint64
		picked := 0
		for j, s := range c.sel {
			if a[s] {
				sum += in.Values[j]
				picked++
			}
		}
		if picked == 0 || sum != in.Target {
			return fmt.Errorf("subset-sum %v→%d: answer picks %d values summing to %d", in.Values, in.Target, picked, sum)
		}
	case kindSAT:
		if !in.Satisfiable {
			return fmt.Errorf("3-SAT: solved a formula CDCL proved UNSAT")
		}
		assign := make([]bool, in.CNF.NumVars)
		for v, s := range c.vars {
			assign[v] = a[s]
		}
		if !in.CNF.Satisfied(assign) {
			return fmt.Errorf("3-SAT: answer does not satisfy the formula")
		}
	default:
		return fmt.Errorf("unknown instance kind %q", in.Kind)
	}
	return nil
}
