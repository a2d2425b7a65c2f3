package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/boolcirc"
	"repro/internal/core"
	"repro/internal/sat"
)

// Problem kinds of an instance.
const (
	kindFactor    = "factor"
	kindSubsetSum = "subsetsum"
	kindSAT       = "3sat"
)

// instance is one generated problem. Exactly the fields of its kind are
// set.
type instance struct {
	Kind string `json:"kind"`
	// N is the product to factor (kindFactor).
	N uint64 `json:"n,omitempty"`
	// Values and Target define a subset-sum instance (kindSubsetSum).
	Values []uint64 `json:"values,omitempty"`
	Target uint64   `json:"target,omitempty"`
	// CNF is a random 3-SAT formula (kindSAT) and Satisfiable its
	// CDCL label, cross-checked against DPLL.
	CNF         *boolcirc.CNF `json:"-"`
	Satisfiable bool          `json:"satisfiable"`
}

// String is the canonical text form the workload digest hashes.
func (in instance) String() string {
	switch in.Kind {
	case kindFactor:
		return fmt.Sprintf("factor n=%d", in.N)
	case kindSubsetSum:
		return fmt.Sprintf("subsetsum values=%v target=%d", in.Values, in.Target)
	default:
		var b strings.Builder
		fmt.Fprintf(&b, "3sat nv=%d sat=%v", in.CNF.NumVars, in.Satisfiable)
		for _, cl := range in.CNF.Clauses {
			fmt.Fprintf(&b, " %v", []boolcirc.Lit(cl))
		}
		return b.String()
	}
}

// config is the solver configuration of a workload. It is recorded in
// every result so two result files can be checked to have run the same
// settings.
type config struct {
	H           float64 `json:"h"`
	TEnd        float64 `json:"horizon"`
	Attempts    int     `json:"attempts"`
	Parallelism int     `json:"parallelism"`
}

// pair is one solve: an instance index and the initial-condition seed
// passed to the solver as Options.Seed.
type pair struct {
	Inst int
	Seed int64
}

// workload is everything one benchmark run needs, generated from the
// workload seed alone.
type workload struct {
	Name      string
	Config    config
	Instances []instance
	// Passes is the solve order. A run solves whole passes until its
	// time is up.
	Passes [][]pair
}

// Digest hashes the configuration, instance list and pair order.
func (w *workload) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %+v\n", w.Name, w.Config)
	for _, in := range w.Instances {
		fmt.Fprintln(h, in.String())
	}
	for k, ps := range w.Passes {
		for _, p := range ps {
			fmt.Fprintf(h, "%d %d %d\n", k, p.Inst, p.Seed)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// workloadSpec names a workload, says why it is in the benchmark, and
// generates it from a seed.
type workloadSpec struct {
	Name string
	Why  string
	Gen  func(seed int64) (*workload, error)
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []workloadSpec{
	{
		Name: "paper-small",
		Why:  "the paper's factorization and subset-sum SOLCs at small size on one worker: physics-bound steps, failed restarts set the tail",
		Gen:  genPaperSmall,
	},
	{
		Name: "sat3-race",
		Why:  "random 3-SAT at the threshold with an UNSAT share, restarts raced on 2 workers: OR-tree circuits, speculative and cancelled attempts",
		Gen:  genSAT3Race,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloads {
		if s.Name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// suiteSeed fixes each workload's instances and its reference ensemble
// of initial conditions. Every pass solves the whole reference ensemble,
// so the time-to-solution medians of runs with different workload seeds
// compare the program, not which initial conditions a seed happened to
// draw: with a fully seed-drawn ensemble those medians moved by 20–40%
// between seeds. The seed-drawn pairs added to each pass keep every seed
// solving some inputs no other seed solves.
const suiteSeed = 20160101

// maxPasses bounds the generated passes; a run stops long before using
// them all.
const maxPasses = 32

// passes builds the solve order over n instances: each pass holds the
// reference ensemble — refICs initial conditions per instance, fixed by
// the suite seed — plus one seed-drawn pair per drawEvery reference
// pairs (at least one), shuffled by the workload seed.
func passes(seed int64, n, refICs, drawEvery int) [][]pair {
	ref := rand.New(rand.NewSource(suiteSeed + 1))
	var base []pair
	for ic := 0; ic < refICs; ic++ {
		for i := 0; i < n; i++ {
			base = append(base, pair{Inst: i, Seed: ref.Int63n(1 << 40)})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	next := rng.Intn(n)
	ps := make([][]pair, maxPasses)
	for k := range ps {
		p := append([]pair(nil), base...)
		for d := 0; d < max(1, len(base)/drawEvery); d++ {
			p = append(p, pair{Inst: next, Seed: rng.Int63n(1 << 40)})
			next = (next + 1) % n
		}
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		ps[k] = p
	}
	return ps
}

// fitsMultiplier reports whether n = a·b with a ≤ b both prime and the
// factorization representable on the paper's word sizes for n's bit
// length, so the factorization SOLC has exactly one solution.
func fitsMultiplier(n uint64) bool {
	_, nq := core.WordSizes(core.BitLen(n))
	for a := uint64(2); a*a <= n; a++ {
		if n%a == 0 {
			return isPrime(a) && isPrime(n/a) && a < 1<<uint(nq)
		}
	}
	return false
}

func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for d := uint64(2); d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// Product and subset-sum sizes of paper-small. 6-bit products are left
// out: one 6-bit solve takes 4–30 s at the default step, too few samples
// for a steady median in one run.
const (
	factorMinBits = 4
	factorMaxBits = 5
	ssValues      = 3
	ssPrecision   = 3
	ssInstances   = 28
)

// genPaperSmall builds the paper's two problems: every semiprime product
// of factorMinBits..factorMaxBits bits that fits the multiplier, and
// ssInstances satisfiable subset-sum instances whose target is the sum
// of a random non-empty subset.
func genPaperSmall(seed int64) (*workload, error) {
	suite := rand.New(rand.NewSource(suiteSeed))
	var insts []instance
	for n := uint64(1) << (factorMinBits - 1); n < 1<<factorMaxBits; n++ {
		if fitsMultiplier(n) {
			insts = append(insts, instance{Kind: kindFactor, N: n, Satisfiable: true})
		}
	}
	nFactor := len(insts)
	for len(insts) < nFactor+ssInstances {
		vals := make([]uint64, ssValues)
		for i := range vals {
			vals[i] = 1 + uint64(suite.Intn(1<<ssPrecision-1))
		}
		mask := 1 + suite.Intn(1<<ssValues-1)
		var target uint64
		for i, v := range vals {
			if mask&(1<<uint(i)) != 0 {
				target += v
			}
		}
		insts = append(insts, instance{Kind: kindSubsetSum, Values: vals, Target: target, Satisfiable: true})
	}
	// Attempts that converge mostly do so by t ≈ 10 and stuck ones rarely
	// recover, so a short horizon with many restarts makes a failed
	// attempt cheap and lets one run hold about 150 solves.
	return &workload{
		Name:      "paper-small",
		Config:    config{H: 1e-3, TEnd: 10, Attempts: 20, Parallelism: 1},
		Instances: insts,
		Passes:    passes(seed, len(insts), 2, 32),
	}, nil
}

// 3-SAT shape of sat3-race: clause ratio at the satisfiability
// threshold, formulas small enough that a run holds dozens of solves,
// and a fixed share of UNSAT formulas on which every attempt runs to the
// horizon.
const (
	satAlpha     = 4.27
	satMinVars   = 6
	satMaxVars   = 8
	satFormulas  = 16
	satUnsatEach = 8 // one formula in satUnsatEach is UNSAT
)

// genSAT3Race draws random 3-SAT formulas until it holds satFormulas of
// them with the fixed UNSAT share, labelling each with CDCL and
// cross-checking the label against DPLL.
func genSAT3Race(seed int64) (*workload, error) {
	suite := rand.New(rand.NewSource(suiteSeed))
	wantUnsat := satFormulas / satUnsatEach
	var sats, unsats []instance
	for len(sats) < satFormulas-wantUnsat || len(unsats) < wantUnsat {
		nv := satMinVars + suite.Intn(satMaxVars-satMinVars+1)
		f := random3SAT(suite, nv, int(satAlpha*float64(nv)+0.5))
		isSat, err := labelCNF(f)
		if err != nil {
			return nil, err
		}
		in := instance{Kind: kindSAT, CNF: &f, Satisfiable: isSat}
		if isSat && len(sats) < satFormulas-wantUnsat {
			sats = append(sats, in)
		} else if !isSat && len(unsats) < wantUnsat {
			unsats = append(unsats, in)
		}
	}
	// Every attempt on an UNSAT formula runs to the horizon; a short one
	// keeps those formulas from taking over the run.
	return &workload{
		Name:      "sat3-race",
		Config:    config{H: 1e-3, TEnd: 10, Attempts: 6, Parallelism: 2},
		Instances: append(sats, unsats...),
		Passes:    passes(seed, satFormulas, 1, 8),
	}, nil
}

// random3SAT draws nc clauses of three distinct variables with random
// signs.
func random3SAT(rng *rand.Rand, nv, nc int) boolcirc.CNF {
	f := boolcirc.CNF{NumVars: nv, Clauses: make([]boolcirc.Clause, nc)}
	for i := range f.Clauses {
		vs := rng.Perm(nv)[:3]
		sort.Ints(vs)
		cl := make(boolcirc.Clause, 3)
		for j, v := range vs {
			cl[j] = boolcirc.Lit(v + 1)
			if rng.Intn(2) == 0 {
				cl[j] = -cl[j]
			}
		}
		f.Clauses[i] = cl
	}
	return f
}

// labelCNF decides f with CDCL and cross-checks the answer with DPLL. A
// disagreement, an undecided search, or a model that does not satisfy f
// is an error: the ground truth itself is wrong.
func labelCNF(f boolcirc.CNF) (bool, error) {
	c := sat.CDCL(f, 0)
	d := sat.DPLL(f, 0)
	if c.Status == sat.Unknown || c.Status != d.Status {
		return false, fmt.Errorf("3-SAT label mismatch: CDCL %v, DPLL %v", c.Status, d.Status)
	}
	if c.Status == sat.Satisfiable && (!f.Satisfied(c.Assignment) || !f.Satisfied(d.Assignment)) {
		return false, fmt.Errorf("3-SAT label: a SAT model does not satisfy the formula")
	}
	return c.Status == sat.Satisfiable, nil
}
