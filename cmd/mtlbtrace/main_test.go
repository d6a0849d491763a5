package main

import (
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"shadowtlb/internal/exp"
	"shadowtlb/internal/sim"
)

// TestRecordReplayReport records a small trace and replays it: the
// text report adds the compiled program's size, its layout and the host
// work, and -json stays the bare sim.Result.
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
	if !regexp.MustCompile(`(?m)^compiled program: .*\nprogram layout: [1-9][0-9]* segments; [1-9][0-9]* B columns, [1-9][0-9]* B page dictionaries, [0-9]+ B step overflow, [1-9][0-9]* B segments$`).MatchString(out.String()) {
		t.Errorf("replay report lacks the program layout after its size:\n%s", out.String())
	}
	if !regexp.MustCompile(`(?m)^host work: [0-9]+ of [1-9][0-9]* refs slow \([0-9.]+%\), [1-9][0-9]* memo fills, [0-9]+ escapes, [0-9]+ TLB probes \([0-9.]+/ref\)$`).MatchString(out.String()) {
		t.Errorf("replay report lacks the host work line:\n%s", out.String())
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

// TestReplayTakesSbrkModeFromTrace records every registered workload at
// small scale and replays the file with no sbrk option: the trace
// header carries the mode, so each replay matches its live run on every
// counter (only the workload name, which a trace file does not record,
// differs). vortex and gcc rely on superpage sbrk; the rest must keep
// the flat mode.
func TestReplayTakesSbrkModeFromTrace(t *testing.T) {
	machine := []string{"-tlb", "64", "-mtlb", "128", "-json"}
	for _, name := range exp.AllWorkloadNames() {
		t.Run(name, func(t *testing.T) {
			trc := filepath.Join(t.TempDir(), name+".trc")
			result := func(args ...string) sim.Result {
				t.Helper()
				var out, errb strings.Builder
				if code := run(append(args, machine...), &out, &errb); code != 0 {
					t.Fatalf("%v: exit %d: %s", args, code, errb.String())
				}
				var res sim.Result
				if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
					t.Fatalf("%v: %v", args, err)
				}
				return res
			}
			live := result("-record", "-workload", name, "-scale", "small", "-o", trc)
			replayed := result("-replay", trc)
			replayed.Workload = live.Workload
			if replayed != live {
				t.Errorf("replay diverged from the live run:\nlive:   %+v\nreplay: %+v", live, replayed)
			}
		})
	}
}
