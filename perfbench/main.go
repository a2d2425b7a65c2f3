// Command perfbench is the repository's end-to-end benchmark: it
// generates a workload from a seed, solves it through the public solve
// path (boolcirc circuit synthesis, solc.CompilePortfolio, Portfolio.Solve),
// verifies every answer independently, and prints time-to-solution
// metrics. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload paper-small --seed 1 --seconds 50 --trace 0
//	bash perfbench/run.sh --validate .bench_build/results.jsonl
//	bash perfbench/run.sh --diff before.jsonl after.jsonl
//	bash perfbench/run.sh --write-spec
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics of the traced run with --trace 1.
// Each run also appends a full record (configuration, instance digest,
// provenance) to the --out file.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// specFile is BENCHMARK.json, relative to the repository root.
const specFile = "BENCHMARK.json"

// runSeconds is the measuring time of one run that BENCHMARK.json asks
// for.
const runSeconds = 50

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Float64("seconds", runSeconds, "measuring time of the run")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results.jsonl"), "file the run's full record is appended to (empty: none)")
	validate := fs.String("validate", "", "check a results file against BENCHMARK.json and exit")
	diff := fs.Bool("diff", false, "compare two results files given as arguments and exit")
	writeSpec := fs.Bool("write-spec", false, "write BENCHMARK.json from the benchmark's own tables and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *writeSpec:
		b, err := specJSON()
		if err != nil {
			return err
		}
		return os.WriteFile(specFile, b, 0o644)
	case *validate != "":
		return validateFile(*validate, stdout)
	case *diff:
		if fs.NArg() != 2 {
			return errors.New("--diff takes two results files")
		}
		return diffFiles(fs.Arg(0), fs.Arg(1), stdout)
	}

	spec, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	w, err := spec.Gen(*seed)
	if err != nil {
		return fmt.Errorf("generate %s: %w", spec.Name, err)
	}
	started := time.Now()
	rr, err := measure(w, *seconds, *trace == 1)
	if err != nil {
		return fmt.Errorf("%s: %w", spec.Name, err)
	}
	rec := record{
		Workload:       w.Name,
		Seed:           *seed,
		Seconds:        *seconds,
		Trace:          *trace == 1,
		Config:         w.Config,
		Instances:      len(w.Instances),
		Digest:         w.Digest(),
		Started:        started.UTC().Format(time.RFC3339),
		Correct:        rr.Failed == 0,
		Attempted:      rr.Attempted,
		Failed:         rr.Failed,
		FailRate:       rr.FailRate,
		Failures:       rr.Failures,
		TailPercentile: rr.TailPercentile,
		TailSamples:    rr.TailSamples,
		Metrics:        rr.Metrics,
		Provenance:     provenance(),
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			return err
		}
	}
	for _, f := range rr.Failures {
		fmt.Fprintln(stdout, "FAIL", f)
	}
	fmt.Fprintf(stdout, "%s seed=%d trace=%d pairs=%d fail_rate=%g digest=%s\n",
		w.Name, *seed, *trace, rr.Attempted, rr.FailRate, rec.Digest[:16])
	if *trace == 0 {
		fmt.Fprintf(stdout, "tts_wall_tail_s is p%d over %d solved pairs\n", rr.TailPercentile, rr.TailSamples)
	}
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(last))
	return nil
}

// record is one run's full result, one JSON line of a results file.
type record struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Config    config  `json:"config"`
	Instances int     `json:"instances"`
	// Digest identifies the generated configuration, instances and
	// solve order: equal digests mean identical inputs.
	Digest    string   `json:"digest"`
	Started   string   `json:"started"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FailRate  float64  `json:"fail_rate"`
	Failures  []string `json:"failures,omitempty"`
	// TailPercentile is the nearest-rank percentile tts_wall_tail_s
	// reports, over TailSamples solved pairs.
	TailPercentile int                    `json:"tail_percentile"`
	TailSamples    int                    `json:"tail_samples"`
	Metrics        map[string]metricValue `json:"metrics"`
	Provenance     map[string]any         `json:"provenance"`
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append result: %w", err)
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// provenance says where and on what a result was measured.
func provenance() map[string]any {
	host, _ := os.Hostname() // an unknown host is recorded as ""
	return map[string]any{
		"host":       host,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"loc":        nonTestLoC("."),
	}
}

// commit reads the checked-out commit from .git, or "unknown" when the
// tree is not a git checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(l, " "); ok && r == ref {
			return sha
		}
	}
	return "unknown"
}

// nonTestLoC counts the lines of the repository's non-test Go files,
// leaving out this benchmark and build output.
func nonTestLoC(root string) int {
	n := 0
	// A file that cannot be read is left out of the count.
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if b, err := os.ReadFile(path); err == nil {
			n += strings.Count(string(b), "\n")
		}
		return nil
	})
	return n
}
