// Package cmdutil holds the observability and profiling plumbing shared
// by the mtlbsim, mtlbexp and mtlbtrace commands: flag registration,
// option derivation, per-cell artifact writing and timeline assembly.
// Keeping it here means the three mains expose identical flags with
// identical semantics.
package cmdutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"shadowtlb/internal/exp"
	"shadowtlb/internal/invariant"
	"shadowtlb/internal/obs"
)

// DefaultSampleEvery is the default sampling interval in simulated
// cycles. Kernel boot alone costs ~2M cycles, so even the smallest run
// crosses at least two boundaries.
const DefaultSampleEvery = 1_000_000

// ObsFlags carries the observability and profiling flags every command
// exposes.
type ObsFlags struct {
	MetricsDir string
	Timeline   string
	Sample     uint64
	PProf      string
	MemProfile string
}

// Register installs the shared flags on fs.
func (f *ObsFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.MetricsDir, "metrics", "", "write metrics, time series and manifests into `DIR`")
	fs.StringVar(&f.Timeline, "timeline", "", "write a Chrome trace-event / Perfetto timeline to `FILE`")
	fs.Uint64Var(&f.Sample, "sample", DefaultSampleEvery, "time-series sampling interval in simulated `cycles`")
	fs.StringVar(&f.PProf, "pprof", "", "write a host CPU profile to `FILE`")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a host heap profile to `FILE`")
}

// CommonFlags bundles the flag plumbing every command repeats: the
// observability/profiling set plus the CPU fast-path engine switch.
// Register once, Apply once, instead of copying the wiring into each
// new main.
type CommonFlags struct {
	ObsFlags
	FastPath bool
	Check    bool
}

// RegisterCommonFlags installs the shared observability, profiling and
// engine flags on fs and returns the bound set.
func RegisterCommonFlags(fs *flag.FlagSet) *CommonFlags {
	f := &CommonFlags{}
	f.ObsFlags.Register(fs)
	fs.BoolVar(&f.FastPath, "fastpath", true, "use the CPU fast-path access engine (results are identical either way)")
	fs.BoolVar(&f.Check, "check", false, "audit machine invariants during every simulation (panics on violation; slower)")
	return f
}

// Apply pushes the parsed flags into the packages they configure — the
// fast-path switch into the experiment config builders, the invariant
// harness onto every system assembled — and starts the requested host
// profiles, returning their stop function (never nil).
func (f *CommonFlags) Apply(stderr io.Writer) (stop func(), err error) {
	exp.SetNoFastPath(!f.FastPath)
	if f.Check {
		invariant.EnableGlobalChecks()
	}
	return f.StartProfiling(stderr)
}

// NoFastPath reports the engine switch inverted, for commands that
// build a sim.Config directly instead of through the registry.
func (f *CommonFlags) NoFastPath() bool { return !f.FastPath }

// Enabled reports whether any simulation-side observability was asked
// for (profiling flags alone don't instrument the simulation).
func (f *ObsFlags) Enabled() bool {
	return f.MetricsDir != "" || f.Timeline != ""
}

// Options derives obs.Options: sampling only matters when a metrics
// directory will receive the series, the timeline only when a file will.
func (f *ObsFlags) Options() obs.Options {
	o := obs.Options{Timeline: f.Timeline != ""}
	if f.MetricsDir != "" {
		o.SampleEvery = f.Sample
	}
	return o
}

// StartProfiling begins the requested host profiles and returns a stop
// function that finishes them (stopping the CPU profile, then writing
// the heap profile). The stop function is never nil.
func (f *ObsFlags) StartProfiling(stderr io.Writer) (func(), error) {
	stopCPU := func() {}
	if f.PProf != "" {
		stop, err := obs.StartCPUProfile(f.PProf)
		if err != nil {
			return func() {}, err
		}
		stopCPU = stop
	}
	return func() {
		stopCPU()
		if f.MemProfile != "" {
			if err := obs.WriteHeapProfile(f.MemProfile); err != nil {
				fmt.Fprintf(stderr, "warning: heap profile: %v\n", err)
			}
		}
	}, nil
}

// WriteCellArtifacts writes one observed cell's metrics dump and time
// series into the metrics directory as <name>.metrics.json,
// <name>.series.csv and <name>.series.json. It creates the directory on
// first use.
func (f *ObsFlags) WriteCellArtifacts(name string, o *obs.Obs) error {
	if f.MetricsDir == "" || o == nil {
		return nil
	}
	if err := os.MkdirAll(f.MetricsDir, 0o755); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(f.MetricsDir, name+".metrics.json"),
		o.Registry().WriteDump); err != nil {
		return err
	}
	if smp := o.Sampler(); smp != nil {
		if err := writeFile(filepath.Join(f.MetricsDir, name+".series.csv"),
			smp.WriteCSV); err != nil {
			return err
		}
		if err := writeFile(filepath.Join(f.MetricsDir, name+".series.json"),
			smp.WriteJSON); err != nil {
			return err
		}
	}
	return nil
}

// WriteManifest writes any JSON document into the metrics directory.
func (f *ObsFlags) WriteManifest(name string, write func(io.Writer) error) error {
	if f.MetricsDir == "" {
		return nil
	}
	if err := os.MkdirAll(f.MetricsDir, 0o755); err != nil {
		return err
	}
	return writeFile(filepath.Join(f.MetricsDir, name), write)
}

// WriteTimeline assembles the named per-cell timelines into one trace
// file, one Perfetto process per cell, and warns on stderr when any
// timeline hit its event cap.
func (f *ObsFlags) WriteTimeline(stderr io.Writer, named []NamedTimeline) error {
	if f.Timeline == "" {
		return nil
	}
	procs := make([]obs.Process, 0, len(named))
	for i, nt := range named {
		if nt.TL == nil {
			continue
		}
		if d := nt.TL.Dropped(); d > 0 {
			fmt.Fprintf(stderr, "warning: timeline %s dropped %d events past its fixed cap of %d\n",
				nt.Name, d, obs.DefaultMaxTimelineEvents)
		}
		procs = append(procs, obs.Process{
			Pid:     i + 1,
			Name:    nt.Name,
			Events:  nt.TL.Events(),
			Dropped: nt.TL.Dropped(),
		})
	}
	if dir := filepath.Dir(f.Timeline); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return writeFile(f.Timeline, func(w io.Writer) error {
		return obs.WriteTrace(w, procs)
	})
}

// NamedTimeline labels one cell's timeline for trace assembly.
type NamedTimeline struct {
	Name string
	TL   *obs.Timeline
}

// writeFile creates path and streams write into it, reporting the first
// error from either.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
