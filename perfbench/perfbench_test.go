package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"

	"repro/internal/boolcirc"
	"repro/internal/sat"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, s := range workloads {
		a, err := s.Gen(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Gen(1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Gen(2)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest() != b.Digest() {
			t.Errorf("%s: seed 1 generated two different workloads", s.Name)
		}
		if a.Digest() == c.Digest() {
			t.Errorf("%s: seeds 1 and 2 generated the same workload", s.Name)
		}
	}
}

func TestEveryPassHoldsTheReferenceEnsemble(t *testing.T) {
	const n, refICs, drawEvery = 5, 2, 4
	a, b := passes(1, n, refICs, drawEvery), passes(2, n, refICs, drawEvery)
	in := func(ps []pair) map[pair]bool {
		m := map[pair]bool{}
		for _, p := range ps {
			m[p] = true
		}
		return m
	}
	// The pairs both seeds share in their first pass are the reference.
	ref := in(a[0])
	for p := range ref {
		if !in(b[0])[p] {
			delete(ref, p)
		}
	}
	if len(ref) != n*refICs {
		t.Fatalf("seeds share %d pairs, want the %d reference pairs", len(ref), n*refICs)
	}
	for _, ps := range append(a, b...) {
		if len(ps) != n*refICs+max(1, n*refICs/drawEvery) {
			t.Fatalf("pass holds %d pairs", len(ps))
		}
		got := in(ps)
		for p := range ref {
			if !got[p] {
				t.Fatalf("a pass lacks reference pair %v", p)
			}
		}
	}
}

// solvedFactor returns the compiled factorization of 15 and an assignment
// whose factor words read 5 and 3.
func solvedFactor(t *testing.T) (instance, *compiled, boolcirc.Assignment) {
	in := instance{Kind: kindFactor, N: 15, Satisfiable: true}
	c, err := compileInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	a := make(boolcirc.Assignment, 1+maxSignal(c.p, c.q))
	setWord(a, c.p, 5)
	setWord(a, c.q, 3)
	return in, c, a
}

func maxSignal(words ...[]boolcirc.Signal) int {
	m := 0
	for _, w := range words {
		for _, s := range w {
			m = max(m, int(s))
		}
	}
	return m
}

func setWord(a boolcirc.Assignment, w []boolcirc.Signal, v uint64) {
	for i, s := range w {
		a[s] = v&(1<<uint(i)) != 0
	}
}

func TestCorruptedAnswerIsAFailure(t *testing.T) {
	in, c, a := solvedFactor(t)
	if err := verify(in, c, a); err != nil {
		t.Fatalf("correct factorization rejected: %v", err)
	}
	setWord(a, c.q, 1)
	if verify(in, c, a) == nil {
		t.Error("factorization 5×1 accepted")
	}
	setWord(a, c.p, 7)
	setWord(a, c.q, 2)
	if verify(in, c, a) == nil {
		t.Error("wrong factorization 7×2 accepted")
	}

	ss := instance{Kind: kindSubsetSum, Values: []uint64{3, 4, 6}, Target: 7, Satisfiable: true}
	cs, err := compileInstance(ss)
	if err != nil {
		t.Fatal(err)
	}
	sa := make(boolcirc.Assignment, 1+maxSignal(cs.sel))
	sa[cs.sel[0]], sa[cs.sel[1]] = true, true
	if err := verify(ss, cs, sa); err != nil {
		t.Fatalf("correct subset rejected: %v", err)
	}
	sa[cs.sel[1]] = false
	if verify(ss, cs, sa) == nil {
		t.Error("subset summing to 3 accepted for target 7")
	}
	sa[cs.sel[0]] = false
	if verify(ss, cs, sa) == nil {
		t.Error("empty subset accepted")
	}

	f := boolcirc.CNF{NumVars: 2, Clauses: []boolcirc.Clause{{1, 2}, {-1, 2}}}
	sat3 := instance{Kind: kindSAT, CNF: &f, Satisfiable: true}
	c3, err := compileInstance(sat3)
	if err != nil {
		t.Fatal(err)
	}
	a3 := make(boolcirc.Assignment, 1+maxSignal(c3.vars))
	a3[c3.vars[1]] = true
	if err := verify(sat3, c3, a3); err != nil {
		t.Fatalf("satisfying assignment rejected: %v", err)
	}
	a3[c3.vars[1]] = false
	if verify(sat3, c3, a3) == nil {
		t.Error("falsifying assignment accepted")
	}
	a3[c3.vars[1]] = true
	sat3.Satisfiable = false
	if verify(sat3, c3, a3) == nil {
		t.Error("solution of a formula labelled UNSAT accepted")
	}
}

func TestCDCLAndDPLLAgreeOnGeneratedFormulas(t *testing.T) {
	w, err := genSAT3Race(1)
	if err != nil {
		t.Fatal(err)
	}
	unsat := 0
	for _, in := range w.Instances {
		c, d := sat.CDCL(*in.CNF, 0), sat.DPLL(*in.CNF, 0)
		if c.Status != d.Status {
			t.Fatalf("CDCL %v, DPLL %v on %s", c.Status, d.Status, in)
		}
		if (c.Status == sat.Satisfiable) != in.Satisfiable {
			t.Fatalf("label %v disagrees with CDCL %v", in.Satisfiable, c.Status)
		}
		if !in.Satisfiable {
			unsat++
		}
	}
	if want := satFormulas / satUnsatEach; unsat != want {
		t.Errorf("%d UNSAT formulas, want %d", unsat, want)
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("illegal metric name %q", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: illegal unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("illegal or reused workload name %q", w.Name)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing")
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is stale; regenerate it with --write-spec", specFile)
	}
}

func TestCheckRecord(t *testing.T) {
	s := spec()
	r := record{Workload: workloads[0].Name, Metrics: map[string]metricValue{}}
	for _, m := range s.EndToEnd {
		r.Metrics[m.Name] = metricValue{Value: 1, Unit: m.Unit}
	}
	if bad := checkRecord(s, r); len(bad) != 0 {
		t.Fatalf("complete record rejected: %v", bad)
	}
	r.Metrics["setup_s"] = metricValue{Value: 1, Unit: "ms"}
	r.Metrics["bad name"] = metricValue{Value: 1, Unit: "s"}
	delete(r.Metrics, "solve_rate")
	if bad := checkRecord(s, r); len(bad) != 4 {
		t.Errorf("got %d problems, want 4 (unit, illegal name, unlisted, missing): %v", len(bad), bad)
	}
	r.Trace = true
	if bad := checkRecord(s, r); len(bad) < len(s.PerLayer) {
		t.Errorf("traced record without per-layer metrics passed: %v", bad)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{20, 50}, {100, 90}, {156, 93}, {1000, 99}} {
		p, ok := tailPercentile(tc.n, tailBeyond)
		if !ok || p != tc.want {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d", tc.n, p, ok, tc.want)
		}
	}
	if _, ok := tailPercentile(19, tailBeyond); ok {
		t.Error("19 samples cannot leave 10 beyond the median")
	}
}
