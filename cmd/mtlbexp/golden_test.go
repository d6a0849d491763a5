package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the golden files from the current simulator
// output:
//
//	go test ./cmd/mtlbexp -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestGoldenTables pins the paper-figure tables — and the multicore smp
// family — byte-for-byte: the rendered output at small scale must match
// the committed goldens exactly. Simulations are deterministic (the smp
// tables at any GOMAXPROCS, since one CPU's thread runs at a time), so any
// diff is a real change to simulated behavior (or to table rendering)
// and must be reviewed — then blessed with -update.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment runs; skipped under -short")
	}
	for _, tc := range []struct{ id, file string }{
		{"fig3", "fig3.golden"},
		{"fig4", "fig4.golden"},
		{"smp", "smp_small.golden"},
	} {
		id := tc.id
		t.Run(id, func(t *testing.T) {
			var out, errb strings.Builder
			if code := run([]string{"-exp", id, "-scale", "small"}, &out, &errb); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errb.String())
			}
			golden := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got := out.String(); got != string(want) {
				t.Fatalf("%s output diverged from golden (re-bless with -update if intended)\n--- got ---\n%s--- want ---\n%s",
					id, got, want)
			}
		})
	}
}

// TestGoldenAllSmallDefaultScheme is the Translator-refactor
// differential guard: testdata/all_small.golden is the full
// `mtlbexp -exp all -scale small` output captured BEFORE the MMC
// translation path moved behind the core.Translator interface. The
// refactored simulator — with the default scheme, whether selected
// implicitly or via -scheme mtlb — must reproduce every pre-refactor
// experiment byte-for-byte: the baseline must be an exact byte prefix
// of today's output, and the only permitted addition is the schemes
// head-to-head family registered after the capture (it appends at the
// end because "-exp all" emits in registration order). Unlike fig3/fig4
// above, this golden is deliberately not -update-able: it is a frozen
// baseline, so a diff here means the refactor changed simulated
// behavior.
func TestGoldenAllSmallDefaultScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment runs; skipped under -short")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all_small.golden"))
	if err != nil {
		t.Fatalf("missing pre-refactor baseline: %v", err)
	}
	for _, args := range [][]string{
		{"-exp", "all", "-scale", "small"},
		{"-exp", "all", "-scale", "small", "-scheme", "mtlb"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, errb.String())
		}
		got := out.String()
		if !strings.HasPrefix(got, string(want)) {
			t.Errorf("%v diverged from the pre-refactor baseline\n--- got ---\n%s--- want (prefix) ---\n%s",
				args, got, want)
			continue
		}
		rest := got[len(want):]
		if !strings.HasPrefix(rest, "==== schemes ====\n") {
			t.Errorf("%v: unexpected output after the baseline (only the schemes family may follow):\n%s",
				args, rest)
		}
	}
}
