// Command mtlbexp regenerates the paper's tables and figures.
//
//	mtlbexp -exp fig3                 # Figure 3 at paper scale
//	mtlbexp -exp fig4 -scale small    # Figure 4 quickly
//	mtlbexp -exp all                  # everything
//	mtlbexp -exp all -parallel 8      # everything, 8 simulations at a time
//	mtlbexp -exp fig3 -csv            # machine-readable output
//	mtlbexp -exp fig3 -json           # run manifest as JSON on stdout
//	mtlbexp -exp fig3 -metrics out/   # per-cell metrics + time series + manifest
//	mtlbexp -exp fig3 -timeline t.json  # Perfetto timeline for every cell
//	mtlbexp -list                     # registered experiment ids
//
// Experiments are looked up in the internal/exp registry; their
// simulation cells run on a memoizing worker pool, so configurations
// shared between experiments (Figure 3's base systems, the §3.4 sweep,
// the reach comparison) are simulated once per invocation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"shadowtlb/internal/cmdutil"
	"shadowtlb/internal/core"
	"shadowtlb/internal/exp"
	"shadowtlb/internal/exp/runner"
	"shadowtlb/internal/resultstore"
	"shadowtlb/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtlbexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("exp", "all", "experiment id, or all (-list to enumerate)")
		scale    = fs.String("scale", "paper", "workload scale: paper or small")
		csv      = fs.Bool("csv", false, "emit CSV instead of text tables")
		jsonOut  = fs.Bool("json", false, "emit the run manifest as JSON instead of tables")
		parallel = fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		list     = fs.Bool("list", false, "list registered experiment ids and translation schemes, then exit")
		scheme   = fs.String("scheme", "", "MMC translation scheme for MTLB-fitted systems (empty = "+core.DefaultScheme+"; -list to enumerate)")
		pstats   = fs.Bool("stats", false, "report cell-cache effectiveness on stderr")
		server   = fs.String("server", "", "offload the run to an mtlbd daemon at `URL` (output is byte-identical to local)")
		store    = fs.String("store", "", "persistent result store directory; cells simulated by past runs are read back instead of re-simulated")
	)
	obsFlags := cmdutil.RegisterCommonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "experiments:")
		for _, d := range exp.Descriptors() {
			fmt.Fprintf(stdout, "  %-20s %s\n", d.ID, d.Title)
		}
		fmt.Fprintf(stdout, "schemes: %s\n", strings.Join(core.SchemeNames(), ", "))
		return 0
	}

	if err := exp.SetScheme(*scheme); err != nil {
		fmt.Fprintf(stderr, "mtlbexp: %v\n", err)
		return 2
	}

	s, err := exp.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(stderr, "mtlbexp: unknown scale %q (valid: paper, small)\n", *scale)
		return 2
	}

	var descs []exp.Descriptor
	if *name == "all" {
		descs = exp.Descriptors()
	} else {
		d, ok := exp.Lookup(*name)
		if !ok {
			fmt.Fprintf(stderr, "mtlbexp: unknown experiment %q (run mtlbexp -list for ids)\n", *name)
			return 2
		}
		descs = []exp.Descriptor{d}
	}

	stopProfiles, err := obsFlags.Apply(stderr)
	if err != nil {
		fmt.Fprintf(stderr, "mtlbexp: %v\n", err)
		return 1
	}
	defer stopProfiles()

	if *server != "" {
		if *store != "" {
			fmt.Fprintln(stderr, "mtlbexp: -store is local-only; with -server the daemon owns the store (mtlbd -store)")
			return 2
		}
		if obsFlags.Enabled() {
			fmt.Fprintln(stderr, "mtlbexp: -metrics and -timeline are not supported with -server (per-cell sessions live in the daemon)")
			return 2
		}
		schemeSet := false
		fs.Visit(func(f *flag.Flag) { schemeSet = schemeSet || f.Name == "scheme" })
		if schemeSet {
			fmt.Fprintln(stderr, "mtlbexp: -scheme is not supported with -server (the daemon renders experiments with its own scheme)")
			return 2
		}
		return runRemote(*server, *name, descs, s, *csv, *jsonOut, *pstats, stdout, stderr)
	}

	pool := runner.New(*parallel)
	if obsFlags.Enabled() {
		pool.EnableObs(obsFlags.Options())
	}
	var rstore *resultstore.Store
	if *store != "" {
		rstore, err = resultstore.Open(*store, resultstore.Options{})
		if err != nil {
			fmt.Fprintf(stderr, "mtlbexp: %v\n", err)
			return 1
		}
		pool.UseCache(rstore)
	}
	outs := pool.RunExperiments(descs, s)

	if !*jsonOut {
		emit := func(tables []*stats.Table) {
			for _, t := range tables {
				if *csv {
					fmt.Fprint(stdout, t.CSV())
				} else {
					fmt.Fprintln(stdout, t.String())
				}
			}
		}
		for _, out := range outs {
			if *name == "all" {
				fmt.Fprintf(stdout, "==== %s ====\n", out.ID)
			}
			emit(out.Tables)
		}
	}

	ids := make([]string, len(descs))
	for i, d := range descs {
		ids[i] = d.ID
	}
	manifest := pool.Manifest(ids, s)
	if *jsonOut {
		if err := manifest.WriteJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "mtlbexp: %v\n", err)
			return 1
		}
	}
	if err := writeArtifacts(&obsFlags.ObsFlags, pool, manifest, stderr); err != nil {
		fmt.Fprintf(stderr, "mtlbexp: %v\n", err)
		return 1
	}

	if *pstats {
		st := pool.Stats()
		fmt.Fprintf(stderr, "mtlbexp: %d cell results served from %d simulations (%d workers)\n",
			st.Requested, st.Simulated, pool.Workers())
		if rstore != nil {
			ss := rstore.Stats()
			fmt.Fprintf(stderr, "mtlbexp: store %s: %d disk hits, %d writes, %d corrupt\n",
				rstore.Dir(), ss.Hits, ss.Puts, ss.Corrupt)
		}
	}
	return 0
}

// writeArtifacts emits the per-cell observability outputs: the run
// manifest plus metrics dump and time series per cell under -metrics,
// and one merged timeline (one Perfetto process per cell) for
// -timeline.
func writeArtifacts(f *cmdutil.ObsFlags, pool *runner.Pool, manifest runner.RunManifest, stderr io.Writer) error {
	if !f.Enabled() {
		return nil
	}
	if err := f.WriteManifest("manifest.json", manifest.WriteJSON); err != nil {
		return err
	}
	obsv := pool.Observations()
	var named []cmdutil.NamedTimeline
	for _, o := range obsv {
		if err := f.WriteCellArtifacts(o.Manifest.Name, o.Obs); err != nil {
			return err
		}
		named = append(named, cmdutil.NamedTimeline{Name: o.Manifest.Name, TL: o.Obs.Timeline()})
	}
	return f.WriteTimeline(stderr, named)
}
