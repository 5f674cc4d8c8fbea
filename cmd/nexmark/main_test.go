package main

// CLI-level tests: the query-running logic is a plain function over an
// io.Writer, so the output, exit codes, and error paths are asserted without
// spawning a process.

import (
	"strings"
	"testing"
)

// TestTwoStageQuery runs Q7 — a windowed MAX, then a join back to the bids
// that reached it — and checks the CLI prints its header, timing line and
// truncated result table.
func TestTwoStageQuery(t *testing.T) {
	var stdout, stderr strings.Builder
	code := cliMain([]string{"-query", "7", "-events", "600", "-rows", "3"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"Q7: ", "executed in ", "state rows ", "| wstart", "... and 3 more rows"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestExplain prints the plan without executing.
func TestExplain(t *testing.T) {
	var stdout, stderr strings.Builder
	code := cliMain([]string{"-query", "3", "-events", "200", "-explain"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Join") {
		t.Errorf("explain output missing plan:\n%s", stdout.String())
	}
}

// TestUnknownQuery exits 1 with an error on stderr.
func TestUnknownQuery(t *testing.T) {
	var stdout, stderr strings.Builder
	code := cliMain([]string{"-query", "99", "-events", "100"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "no query 99") {
		t.Errorf("stderr = %q, want unknown-query error", stderr.String())
	}
}

// TestBadFlag exits 2 on flag parse errors.
func TestBadFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	code := cliMain([]string{"-nonsense"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if stderr.Len() == 0 {
		t.Error("flag error not reported on stderr")
	}
}
