package main

import (
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"shadowtlb/internal/sim"
)

// TestRecordReplayReport records a small trace and replays it: the
// text report adds the compiled program's size, and -json stays the
// bare sim.Result.
func TestRecordReplayReport(t *testing.T) {
	trc := filepath.Join(t.TempDir(), "radix.trc")
	var out, errb strings.Builder
	if code := run([]string{"-record", "-workload", "radix", "-o", trc, "-tlb", "64"}, &out, &errb); code != 0 {
		t.Fatalf("record: exit %d: %s", code, errb.String())
	}

	out.Reset()
	if code := run([]string{"-replay", trc, "-tlb", "64"}, &out, &errb); code != 0 {
		t.Fatalf("replay: exit %d: %s", code, errb.String())
	}
	if !regexp.MustCompile(`(?m)^compiled program: [1-9][0-9]* bytes, [0-9.]+ B/ref$`).MatchString(out.String()) {
		t.Errorf("replay report lacks the program size:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-replay", trc, "-tlb", "64", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("replay -json: exit %d: %s", code, errb.String())
	}
	dec := json.NewDecoder(strings.NewReader(out.String()))
	dec.DisallowUnknownFields()
	var res sim.Result
	if err := dec.Decode(&res); err != nil || dec.More() {
		t.Fatalf("replay -json is not one sim.Result (%v):\n%s", err, out.String())
	}
	if res.Workload != "trace-replay" {
		t.Errorf("replayed workload %q, want trace-replay", res.Workload)
	}
}
