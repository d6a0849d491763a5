// Package exp regenerates every table and figure of the paper's
// evaluation (§3) on the simulated machine: Figure 2 (shadow-space
// partitioning), Figure 3 (normalized runtimes with and without an MTLB
// for three CPU TLB sizes), Figure 4 (em3d's sensitivity to MTLB size
// and associativity, and average cache-fill time), the §3.3
// initialization-cost accounting, and the §3.4 TLB-time observations —
// plus the ablation studies DESIGN.md calls out.
//
// Experiments are declarative: each registers a Descriptor (see
// registry.go) naming its id, title, the simulation Cells it needs, and
// a reduce step that builds its tables from completed cells. Cells are
// executed through a Runner; the worker-pool Runner in
// internal/exp/runner runs them in parallel and simulates each distinct
// cell exactly once, even when several experiments share base systems.
//
// Each experiment returns a text table whose rows mirror the paper's
// series, along with the raw values benches and tests assert against.
package exp

import (
	"fmt"
	"sort"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/core"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/workload"
	"shadowtlb/internal/workload/compress"
	"shadowtlb/internal/workload/em3d"
	"shadowtlb/internal/workload/gcc"
	"shadowtlb/internal/workload/radix"
	"shadowtlb/internal/workload/vortex"
)

// Scale selects workload sizing: Paper reproduces §3.1's run parameters;
// Small is a fast configuration for tests and -short benches.
type Scale int

// Scales.
const (
	Small Scale = iota
	Paper
)

// String names the scale.
func (s Scale) String() string {
	if s == Paper {
		return "paper"
	}
	return "small"
}

// ParseScale maps a scale name to its Scale.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "small":
		return Small, nil
	case "paper":
		return Paper, nil
	}
	return 0, fmt.Errorf("exp: unknown scale %q (want paper or small)", name)
}

// workloadMakers maps a workload name to its constructor, so selecting
// one program by name builds exactly that program. The five paper
// benchmarks are joined by the synthetic generators mtlbsim exposes.
var workloadMakers = map[string]func(Scale) workload.Workload{
	"compress": func(s Scale) workload.Workload {
		if s == Paper {
			return compress.New(compress.PaperConfig())
		}
		return compress.New(compress.SmallConfig())
	},
	"vortex": func(s Scale) workload.Workload {
		if s == Paper {
			return vortex.New(vortex.PaperConfig())
		}
		return vortex.New(vortex.SmallConfig())
	},
	"radix": func(s Scale) workload.Workload {
		if s == Paper {
			return radix.New(radix.PaperConfig())
		}
		return radix.New(radix.SmallConfig())
	},
	"em3d": func(s Scale) workload.Workload {
		if s == Paper {
			return em3d.New(em3d.PaperConfig())
		}
		return em3d.New(em3d.SmallConfig())
	},
	"gcc": func(s Scale) workload.Workload {
		if s == Paper {
			return gcc.New(gcc.PaperConfig())
		}
		return gcc.New(gcc.SmallConfig())
	},
	"random": func(s Scale) workload.Workload {
		n := 2_000_000
		if s != Paper {
			n = 100_000
		}
		return &workload.RandomAccess{
			Bytes: 8 * arch.MB, Accesses: n, WriteFrac: 30,
			Remapped: true, StepPer: 2,
		}
	},
	"stride": func(s Scale) workload.Workload {
		p := 20
		if s != Paper {
			p = 3
		}
		return &workload.StrideAccess{
			Bytes: 4 * arch.MB, Stride: 32, Passes: p, Remapped: true,
		}
	},
	"chase": func(s Scale) workload.Workload {
		h := 2_000_000
		if s != Paper {
			h = 100_000
		}
		return &workload.PointerChase{Nodes: 100_000, Hops: h, Remapped: true}
	},
	// The parallel variants and the multiprogrammed mix drive the
	// multicore simulator; on a uniprocessor config they fall back to
	// single-threaded runs of the same reference streams.
	"radixp": func(s Scale) workload.Workload {
		if s == Paper {
			return radix.NewParallel(radix.PaperConfig())
		}
		return radix.NewParallel(radix.SmallConfig())
	},
	"em3dp": func(s Scale) workload.Workload {
		if s == Paper {
			return em3d.NewParallel(em3d.PaperConfig())
		}
		return em3d.NewParallel(em3d.SmallConfig())
	},
	"mix": func(s Scale) workload.Workload {
		p := 20
		if s != Paper {
			p = 3
		}
		stride := &workload.StrideAccess{
			Bytes: 4 * arch.MB, Stride: 32, Passes: p, Remapped: true,
		}
		if s == Paper {
			return workload.NewMix("mix",
				compress.New(compress.PaperConfig()),
				radix.New(radix.PaperConfig()),
				em3d.New(em3d.PaperConfig()),
				stride)
		}
		return workload.NewMix("mix",
			compress.New(compress.SmallConfig()),
			radix.New(radix.SmallConfig()),
			em3d.New(em3d.SmallConfig()),
			stride)
	},
}

// SMPWorkloadNames returns the workloads of the smp experiment family in
// reporting order: the two parallel ports and the multiprogrammed mix.
func SMPWorkloadNames() []string { return []string{"radixp", "em3dp", "mix"} }

// paperWorkloads lists the five benchmark programs in the paper's
// reporting order.
var paperWorkloads = []string{"compress", "vortex", "radix", "em3d", "gcc"}

// WorkloadNames returns the five paper benchmarks in reporting order.
func WorkloadNames() []string {
	names := make([]string, len(paperWorkloads))
	copy(names, paperWorkloads)
	return names
}

// AllWorkloadNames returns every constructible workload name — the five
// paper programs plus the synthetic generators — sorted, for usage
// messages.
func AllWorkloadNames() []string {
	names := make([]string, 0, len(workloadMakers))
	for n := range workloadMakers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HasWorkload reports whether name is a constructible workload, without
// building it — admission checks in the daemon validate job specs this
// way before any memory is committed.
func HasWorkload(name string) bool {
	_, ok := workloadMakers[name]
	return ok
}

// MakeWorkload builds one named workload at the given scale. Beyond the
// paper's five programs, the synthetic generators random, stride and
// chase are available.
func MakeWorkload(name string, s Scale) (workload.Workload, error) {
	mk, ok := workloadMakers[name]
	if !ok {
		return nil, fmt.Errorf("exp: unknown workload %q", name)
	}
	return mk(s), nil
}

// noFastPath, when set via SetNoFastPath, disables the CPU fast-path
// access engine in every experiment configuration. Results are identical
// either way (TestFastPathDifferential proves it); the switch exists for
// A/B timing and regression bisection.
var noFastPath bool

// SetNoFastPath applies the -fastpath=false command flag to every config
// subsequently built by this package.
func SetNoFastPath(v bool) { noFastPath = v }

// scheme, when set via SetScheme, selects the MMC translation backend
// for every MTLB-fitted configuration this package builds — the -scheme
// command flag. The empty default is the paper's MTLB.
var scheme string

// SetScheme applies the -scheme command flag to every config
// subsequently built by this package. It returns an error naming the
// registered schemes for an unknown name, so commands can exit-2 with
// the valid set before any simulation starts.
func SetScheme(name string) error {
	if !core.HasScheme(name) {
		_, err := core.NewTranslator(name, core.MTLBConfig{}, core.TranslatorDeps{})
		return err
	}
	scheme = name
	return nil
}

// Scheme returns the currently selected translation scheme, normalized.
func Scheme() string { return core.NormalizeScheme(scheme) }

// baseConfig is the machine every experiment starts from.
func baseConfig() sim.Config {
	c := sim.Default()
	c.NoFastPath = noFastPath
	c.Scheme = scheme
	return c
}

// withMTLB fits the paper's default 128-entry 2-way MTLB.
func withMTLB(c sim.Config) sim.Config {
	return c.WithMTLB(core.DefaultMTLBConfig())
}

// pct formats a ratio as a percentage string.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// mcycles formats cycles in millions.
func mcycles(c uint64) string { return fmt.Sprintf("%.2fM", float64(c)/1e6) }
