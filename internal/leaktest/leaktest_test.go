package leaktest

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestRunReportsParkedGoroutine leaves a goroutine parked on an
// unbuffered channel nobody sends on: run must fail and print its stack.
func TestRunReportsParkedGoroutine(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	var out bytes.Buffer
	code := run(func() int {
		go func() { <-block }()
		return 0
	}, &out, 50*time.Millisecond)
	if code == 0 {
		t.Fatal("parked goroutine not reported")
	}
	report := out.String()
	for _, want := range []string{"1 goroutine(s) still running", "[chan receive]", "TestRunReportsParkedGoroutine"} {
		if !strings.Contains(report, want) {
			t.Fatalf("leak report lacks %q:\n%s", want, report)
		}
	}
}

// TestRunWaitsForExitingGoroutine starts a goroutine that exits well
// inside the settle window: run must wait for it and keep the tests'
// exit code.
func TestRunWaitsForExitingGoroutine(t *testing.T) {
	for _, code := range []int{0, 3} {
		var out bytes.Buffer
		got := run(func() int {
			go func() { time.Sleep(20 * time.Millisecond) }()
			return code
		}, &out, 5*time.Second)
		if got != code || out.Len() != 0 {
			t.Fatalf("tests exit %d: run = %d, report %q", code, got, out.String())
		}
	}
}
