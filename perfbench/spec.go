package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkSpec is the layout of BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDesc `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadDesc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// spec is BENCHMARK.json as the benchmark's own tables define it.
func spec() benchmarkSpec {
	s := benchmarkSpec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadDesc{Name: w.Name, Why: w.Why})
	}
	return s
}

func specJSON() ([]byte, error) {
	b, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func readSpec() (benchmarkSpec, error) {
	var s benchmarkSpec
	b, err := os.ReadFile(specFile)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", specFile, err)
	}
	return s, nil
}

// checkRecord lists what is wrong with one result record against the
// spec: an unknown workload, a metric of its run kind missing or with
// another unit, a metric the spec does not list, an illegal name, or a
// value that is not a finite number.
func checkRecord(s benchmarkSpec, r record) []string {
	var bad []string
	known := false
	for _, w := range s.Workloads {
		known = known || w.Name == r.Workload
	}
	if !known {
		bad = append(bad, fmt.Sprintf("unknown workload %q", r.Workload))
	}
	want := s.EndToEnd
	if r.Trace {
		want = s.PerLayer
	}
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("metric %s missing", m.Name))
		case v.Unit != m.Unit:
			bad = append(bad, fmt.Sprintf("metric %s has unit %q, want %q", m.Name, v.Unit, m.Unit))
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			bad = append(bad, fmt.Sprintf("metric %s is %v", m.Name, v.Value))
		}
	}
	for name := range r.Metrics {
		if !metricName.MatchString(name) {
			bad = append(bad, fmt.Sprintf("metric name %q is not legal", name))
		}
		listed := false
		for _, m := range want {
			listed = listed || m.Name == name
		}
		if !listed {
			bad = append(bad, fmt.Sprintf("metric %s is not in %s", name, specFile))
		}
	}
	sort.Strings(bad)
	return bad
}

// validateFile checks every record of a results file against
// BENCHMARK.json.
func validateFile(path string, w io.Writer) error {
	s, err := readSpec()
	if err != nil {
		return err
	}
	recs, err := readRecords(path)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("%s holds no results", path)
	}
	nbad := 0
	for i, r := range recs {
		for _, b := range checkRecord(s, r) {
			fmt.Fprintf(w, "record %d (%s seed %d trace %v): %s\n", i+1, r.Workload, r.Seed, r.Trace, b)
			nbad++
		}
	}
	if nbad > 0 {
		return fmt.Errorf("%s: %d problems", path, nbad)
	}
	fmt.Fprintf(w, "%s: %d records valid against %s\n", path, len(recs), specFile)
	return nil
}

// diffFiles prints, for each workload and end-to-end metric, the median
// and quartiles of both files' runs and whether the median moved by
// more than the metric's bound. Runs of one seed whose digests differ
// between the files are reported: they did not solve the same inputs.
func diffFiles(pathA, pathB string, w io.Writer) error {
	s, err := readSpec()
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	digests := map[string]string{}
	for _, r := range a {
		digests[fmt.Sprintf("%s/%d", r.Workload, r.Seed)] = r.Digest
	}
	for _, r := range b {
		key := fmt.Sprintf("%s/%d", r.Workload, r.Seed)
		if d, ok := digests[key]; ok && d != r.Digest {
			fmt.Fprintf(w, "inputs differ: %s seed %d has another digest in %s\n", r.Workload, r.Seed, pathB)
		}
	}
	fmt.Fprintf(w, "%-12s %-16s %-34s %-34s %8s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
	regressed := 0
	for _, wl := range s.Workloads {
		for _, m := range s.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := (mb - ma) / math.Abs(ma)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "within bound"
			switch {
			case worse > m.Bound:
				verdict = fmt.Sprintf("WORSE beyond bound %g", m.Bound)
				regressed++
			case -worse > m.Bound:
				verdict = fmt.Sprintf("better beyond bound %g", m.Bound)
			}
			fmt.Fprintf(w, "%-12s %-16s %-34s %-34s %+7.1f%%  %s\n", wl.Name, m.Name,
				summary(va), summary(vb), 100*change, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics worse beyond their bound", regressed)
	}
	return nil
}

func values(recs []record, workload, metric string) []float64 {
	var vs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

func summary(vs []float64) string {
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(vs), q1, q3, len(vs))
}
