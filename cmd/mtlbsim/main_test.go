package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"shadowtlb/internal/core"
)

func TestUnknownWorkloadListsValidNames(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-workload", "nope", "-size", "small"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	msg := errb.String()
	for _, name := range []string{"compress", "vortex", "radix", "em3d", "gcc", "random", "stride", "chase"} {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list workload %q", msg, name)
		}
	}
}

func TestUnknownSizeListsValidNames(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-workload", "radix", "-size", "huge"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if msg := errb.String(); !strings.Contains(msg, "paper") || !strings.Contains(msg, "small") {
		t.Errorf("error %q does not list valid sizes", msg)
	}
}

// TestUnknownSchemeListsRegistered pins the exit-2 contract: a scheme
// the registry does not know fails fast, before any simulation, with a
// message enumerating the valid set.
func TestUnknownSchemeListsRegistered(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-workload", "radix", "-size", "small", "-mtlb", "128", "-scheme", "nope"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	msg := errb.String()
	for _, name := range append([]string{"nope"}, core.SchemeNames()...) {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not mention %q", msg, name)
		}
	}
}

// TestSchemeSelectsBackend runs a non-default backend end to end and
// checks the config label and result name it.
func TestSchemeSelectsBackend(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-workload", "stride", "-size", "small", "-tlb", "64",
		"-mtlb", "128", "-scheme", core.SchemeSpill}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "+"+core.SchemeSpill) {
		t.Errorf("config label does not name the scheme:\n%s", out.String())
	}
}

func TestRunSmallWorkload(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-workload", "radix", "-size", "small", "-tlb", "64", "-mtlb", "128"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"workload   radix", "cycles", "mtlb", "superpages"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if !regexp.MustCompile(`(?m)^host work: [0-9]+ of [1-9][0-9]* refs slow \([0-9.]+%\), [1-9][0-9]* memo fills, 0 escapes, [0-9]+ TLB probes \([0-9.]+/ref\)$`).MatchString(out.String()) {
		t.Errorf("output lacks the host work line:\n%s", out.String())
	}
}

// TestRunMulticore drives the -cpus flag end to end: the multicore
// machine runs the parallel radix sort on four CPUs and the report
// gains the multicore block.
func TestRunMulticore(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-workload", "radixp", "-size", "small", "-cpus", "4", "-tlb", "64", "-mtlb", "128"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"smp4", "cpus         4", "ipis", "barriers"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestPromoteRejectedMulticore pins the flag interlock: online
// promotion is a uniprocessor feature for now.
func TestPromoteRejectedMulticore(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-workload", "radixp", "-size", "small", "-cpus", "2", "-mtlb", "128", "-promote"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "-promote") {
		t.Errorf("error does not name the flag: %s", errb.String())
	}
}

// TestOddWaysNormalized pins the satellite fix: geometry the old clamp
// let through (ways not dividing entries) must normalize, not panic.
func TestOddWaysNormalized(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-workload", "random", "-size", "small", "-mtlb", "128", "-ways", "3"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	// 3 does not divide 128; Normalize falls back to 2-way.
	if !strings.Contains(out.String(), "mtlb128/2w") {
		t.Errorf("output does not show normalized 2-way geometry:\n%s", out.String())
	}
}

func TestJSONOutput(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-workload", "random", "-size", "small", "-json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	var res map[string]any
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatalf("-json output does not parse: %v", err)
	}
	if res["Workload"] == "" || res["Breakdown"] == nil {
		t.Errorf("result JSON incomplete: %v", res)
	}
}

func TestObservabilityArtifacts(t *testing.T) {
	dir := t.TempDir()
	tl := filepath.Join(dir, "run.trace.json")
	var out, errb strings.Builder
	code := run([]string{
		"-workload", "random", "-size", "small", "-mtlb", "128",
		"-metrics", dir, "-timeline", tl, "-sample", "100000",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	for _, f := range []string{"random-small.metrics.json", "random-small.series.csv", "random-small.series.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
	raw, err := os.ReadFile(tl)
	if err != nil {
		t.Fatalf("timeline: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline does not parse: %v", err)
	}
	if doc["traceEvents"] == nil {
		t.Error("timeline lacks traceEvents")
	}
	csv, err := os.ReadFile(filepath.Join(dir, "random-small.series.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(string(csv)), "\n"); lines < 2 {
		t.Errorf("series has %d data rows, want >= 2", lines)
	}
}
