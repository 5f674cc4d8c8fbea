package exec

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a panic caught at an isolation boundary — a standing-query
// session or the fan-out in internal/live — and converted into an
// ordinary error so one misbehaving operator fails its own query instead of
// the process. The original panic value and stack ride along for diagnosis.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// CapturePanic converts a recover() result into a *PanicError carrying the
// current stack. Returns nil for a nil recover value (no panic in flight).
func CapturePanic(v any) error {
	if v == nil {
		return nil
	}
	return &PanicError{Value: v, Stack: debug.Stack()}
}
