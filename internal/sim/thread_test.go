package sim

import (
	"runtime"
	"testing"
	"time"
)

// checkThreadPanic runs a machine whose simulated thread panics with
// want: the panic must reach the caller, where it can be recovered, and
// every thread goroutine of the run must exit.
func checkThreadPanic(t *testing.T, want string, run func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if r := recover(); r != want {
				t.Errorf("recovered %v, want %q", r, want)
			}
		}()
		run()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the run (%d before it)", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
