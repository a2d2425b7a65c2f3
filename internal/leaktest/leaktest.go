// Package leaktest is the run-time goroutine-leak net of the packages
// that start goroutines: internal/par's worker pool, internal/solc's
// restart portfolio and internal/obs's exposition server. A package opts
// in with
//
//	func TestMain(m *testing.M) { leaktest.Main(m) }
//
// After the tests, Main waits a bounded time for every goroutine started
// while they ran to exit. If one is still alive, Main prints every
// goroutine's stack and exits non-zero, so a goroutine blocked on a
// channel nobody closes, or looping past its stop signal, fails the run
// with the stack that shows where it is stuck.
package leaktest

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

// settle bounds the wait for goroutines that are still on their way out
// when the last test returns (a server's connection handlers, a pool
// worker past its last item).
const settle = 5 * time.Second

// Main runs the package's tests and exits with their status, or with 1
// if goroutines they started outlive the settle time.
func Main(m *testing.M) {
	os.Exit(run(m.Run, os.Stderr, settle))
}

// run calls tests and returns its exit code. If a goroutine that was not
// running before tests is still running after wait, run writes every
// goroutine's stack to w and returns a non-zero code. Goroutines are
// told apart by ID rather than counted, so one that was already running
// and exits meanwhile cannot cancel out a leak.
func run(tests func() int, w io.Writer, wait time.Duration) int {
	before := ids(stacks())
	code := tests()
	deadline := time.Now().Add(wait)
	for {
		all := stacks()
		var leaked []string
		for _, id := range ids(all) {
			if !slices.Contains(before, id) {
				leaked = append(leaked, id)
			}
		}
		if len(leaked) == 0 {
			return code
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(w, "leaktest: %d goroutine(s) still running %v after the tests: %v\n\n%s\n",
				len(leaked), wait, leaked, all)
			if code == 0 {
				code = 1
			}
			return code
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stacks returns the stack traces of all goroutines.
func stacks() []byte {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// ids returns the goroutine IDs from the "goroutine N [state]:" headers
// of a stack dump, in dump order.
func ids(dump []byte) []string {
	var out []string
	for _, trace := range bytes.Split(dump, []byte("\n\n")) {
		if f := bytes.Fields(trace); len(f) > 1 && string(f[0]) == "goroutine" {
			out = append(out, string(f[1]))
		}
	}
	return out
}
