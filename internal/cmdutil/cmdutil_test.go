package cmdutil

import (
	"flag"
	"io"
	"strings"
	"testing"

	"shadowtlb/internal/exp"
)

// TestRegisterCommonFlagsSurface locks the shared flag set: every
// command that calls RegisterCommonFlags exposes exactly these names
// with these defaults, which is the point of deduplicating the
// plumbing.
func TestRegisterCommonFlagsSurface(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := RegisterCommonFlags(fs)

	for _, name := range []string{"metrics", "timeline", "sample", "pprof", "memprofile", "fastpath"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !f.FastPath || f.NoFastPath() {
		t.Error("fast path must default on")
	}
	if f.Enabled() {
		t.Error("observability enabled with no flags set")
	}
	if f.Sample != DefaultSampleEvery {
		t.Errorf("sample default %d", f.Sample)
	}
}

func TestApplyPushesFastPathSwitch(t *testing.T) {
	defer exp.SetNoFastPath(false)

	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterCommonFlags(fs)
	if err := fs.Parse([]string{"-fastpath=false"}); err != nil {
		t.Fatal(err)
	}
	if !f.NoFastPath() {
		t.Fatal("-fastpath=false not reflected")
	}
	var errb strings.Builder
	stop, err := f.Apply(&errb)
	if err != nil {
		t.Fatal(err)
	}
	stop()

	// Apply must have pushed the switch into the experiment config
	// builders: registry cells now carry NoFastPath.
	for _, d := range exp.Descriptors() {
		if d.Cells == nil {
			continue
		}
		for _, c := range d.Cells(exp.Small) {
			if !c.Cfg.NoFastPath {
				t.Fatalf("Apply did not push NoFastPath into %s cells", d.ID)
			}
		}
		return
	}
	t.Fatal("no cell-bearing experiment registered")
}

func TestOptionsDerivation(t *testing.T) {
	f := ObsFlags{MetricsDir: "out", Sample: 500}
	o := f.Options()
	if o.SampleEvery != 500 || o.Timeline {
		t.Errorf("options %+v", o)
	}
	f = ObsFlags{Timeline: "t.json", Sample: 500}
	o = f.Options()
	if o.SampleEvery != 0 || !o.Timeline {
		t.Errorf("options %+v", o)
	}
}
