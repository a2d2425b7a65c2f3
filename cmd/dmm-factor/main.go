// Command dmm-factor factors an integer by running the paper's
// factorization SOLC (Sec. VII-A) in solution mode.
//
// Usage:
//
//	dmm-factor -n 35 [-seed 1] [-tend 150] [-attempts 4] [-trace] [-check]
//	dmm-factor -n 143 -attempts 8 -parallel 4 [-first-win] [-deadline 30s]
//	dmm-factor -n 35 -portfolio [-telemetry events.jsonl] [-metrics-dump]
package main

import (
	"flag"
	"fmt"
	"math/big"
	"os"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/solc"
	"repro/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	n := flag.Uint64("n", 35, "integer to factor (a semiprime fitting the word sizes)")
	seed := flag.Int64("seed", 1, "initial-condition seed")
	tEnd := flag.Float64("tend", 150, "per-attempt time horizon")
	attempts := flag.Int("attempts", 4, "random restarts")
	parallel := flag.Int("parallel", 1, "concurrently raced restarts (0 = GOMAXPROCS)")
	firstWin := flag.Bool("first-win", false, "first verified winner cancels all attempts (fastest, nondeterministic winner)")
	deadline := flag.Duration("deadline", 0*time.Second, "wall-clock budget for the whole solve (0 = none)")
	portfolio := flag.Bool("portfolio", false, "race the heterogeneous solver portfolio (IMEX-capacitive vs RK45-quasistatic)")
	showTrace := flag.Bool("trace", false, "render factor-bit voltage trajectories")
	check := flag.Bool("check", false, "verify runtime invariants per step and post-hoc scan the recorded trace (no build tag needed)")
	hladder := flag.Float64("hladder", 0, "step-size ladder ratio: quantize h onto the geometric grid ratio^k and reuse cached shifted factors (0 = off; 1.1892 = 2^(1/4) recommended)")
	factorCache := flag.Int("factor-cache", 0, "IMEX shifted-factor cache capacity in step-size rungs (0 = default 4)")
	co := obs.BindFlags("dmm-factor", flag.CommandLine)
	flag.Parse()

	if err := co.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if err := co.Finish(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.TEnd = *tEnd
	cfg.MaxAttempts = *attempts
	cfg.Parallelism = *parallel
	cfg.FirstWin = *firstWin
	cfg.Deadline = *deadline
	cfg.Verify = *check
	cfg.HLadder = *hladder
	cfg.FactorCache = *factorCache
	cfg.Telemetry = co.Telemetry
	if *portfolio {
		cfg.Portfolio = solc.DefaultPortfolio()
	}
	if *showTrace {
		np, nq := core.WordSizes(core.BitLen(*n))
		cfg.TraceNodes = np + nq
		cfg.TraceEvery = 100
	}
	fz := core.NewFactorizer(cfg)
	res, err := fz.Factor(*n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmm-factor:", err)
		return 1
	}
	fmt.Printf("n=%d  circuit: %s\n", *n, res.Metrics)
	if res.Solved {
		fmt.Printf("self-organized: %d = %d × %d (t* = %.2f)\n",
			*n, res.P, res.Q, res.Metrics.ConvergenceTime)
		if *parallel != 1 || *portfolio {
			fmt.Printf("pool: launched=%d cancelled=%d\n",
				res.Metrics.Launched, res.Metrics.Cancelled)
		}
	} else {
		fmt.Printf("no equilibrium reached (%s) — %s\n", res.Reason, missNote(*n))
	}
	if rec, ok := res.Trace.(*trace.Recorder); ok && rec.Len() > 0 {
		fmt.Println("\nfactor-bit trajectories (−vc..+vc):")
		fmt.Print(rec.RenderASCII(72, -1.2, 1.2))
		if *check {
			vb := circuit.VBoundFactor * cfg.Params.Vc
			viols := invariant.ScanTrace(rec.T, rec.Labels, rec.Series, -vb, vb)
			if len(viols) == 0 {
				fmt.Printf("trace invariant scan: %d samples × %d nodes inside ±%.3g, all finite\n",
					rec.Len(), len(rec.Labels), vb)
			} else {
				for _, v := range viols {
					fmt.Fprintln(os.Stderr, "dmm-factor:", v)
				}
				return 3
			}
		}
	}
	if !res.Solved {
		return 2
	}
	return 0
}

// missNote classifies a run on n that reached no equilibrium. A prime has
// no factor pair, so the miss is expected (Fig. 13). A composite whose
// smallest factor exceeds the nq-bit word cannot be represented by the
// multiplier circuit WordSizes builds (its cofactor always fits the
// np-bit word, since n < 2^(np+1)). Any other composite has a
// representable factor pair that was not found within the horizon.
func missNote(n uint64) string {
	// ProbablyPrime is exact for every input below 2^64.
	if new(big.Int).SetUint64(n).ProbablyPrime(0) {
		return "expected when n is prime (Fig. 13)"
	}
	np, nq := core.WordSizes(core.BitLen(n))
	limit := uint64(1)<<uint(nq) - 1
	for d := uint64(2); d <= limit && d <= n/d; d++ {
		if n%d == 0 {
			return "n is composite; its factors were not found within the horizon"
		}
	}
	return fmt.Sprintf("n is composite, but no factor pair fits the (%d, %d)-bit words", np, nq)
}
