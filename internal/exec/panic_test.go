package exec

// White-box tests for the panic-to-error conversion the isolation
// boundaries in internal/live use: a recovered panic must become a
// *PanicError carrying its value and stack, failing one query instead of
// the process.

import (
	"errors"
	"strings"
	"testing"
)

func TestCapturePanic(t *testing.T) {
	if err := CapturePanic(nil); err != nil {
		t.Fatalf("nil recover value must map to nil, got %v", err)
	}
	err := CapturePanic("boom")
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("CapturePanic = %T, want *PanicError", err)
	}
	if perr.Value != "boom" {
		t.Fatalf("Value = %v, want boom", perr.Value)
	}
	if len(perr.Stack) == 0 {
		t.Fatal("stack not captured")
	}
	if !strings.Contains(perr.Error(), "panic: boom") {
		t.Fatalf("Error() = %q", perr.Error())
	}
}
