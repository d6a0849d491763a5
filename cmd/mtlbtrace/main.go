// Command mtlbtrace records, inspects and replays memory-reference
// traces, enabling trace-driven simulation alongside the execution-
// driven mode.
//
//	mtlbtrace -record -workload radix -scale small -o radix.trc
//	mtlbtrace -dump radix.trc | head
//	mtlbtrace -replay radix.trc -tlb 64 -mtlb 128
//	mtlbtrace -replay radix.trc -mtlb 128 -json -timeline replay.trace.json
//
// A trace captured once replays bit-identically on any machine
// configuration, so configuration comparisons see exactly the same
// reference stream. Replay compiles the trace into the batch engine
// (internal/replay) and reports the compiled program's size and layout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"shadowtlb/internal/cmdutil"
	"shadowtlb/internal/core"
	"shadowtlb/internal/cpu"
	"shadowtlb/internal/exp"
	"shadowtlb/internal/obs"
	rep "shadowtlb/internal/replay"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/trace"
	"shadowtlb/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtlbtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		record   = fs.Bool("record", false, "record a workload's trace")
		dump     = fs.String("dump", "", "print a trace file's records")
		replay   = fs.String("replay", "", "replay a trace file")
		wname    = fs.String("workload", "radix", "workload to record")
		scaleF   = fs.String("scale", "small", "workload scale: paper or small")
		out      = fs.String("o", "out.trc", "output trace file")
		tlbSize  = fs.Int("tlb", 96, "CPU TLB entries for record/replay")
		mtlbN    = fs.Int("mtlb", 0, "MTLB entries (0 = no MTLB)")
		ways     = fs.Int("ways", 2, "MTLB associativity")
		scheme   = fs.String("scheme", "", "translation backend for MTLB systems (empty = "+core.DefaultScheme+")")
		maxPrint = fs.Int("n", 20, "records to print with -dump")
		jsonOut  = fs.Bool("json", false, "emit the simulation result as JSON")
	)
	obsF := cmdutil.RegisterCommonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if !core.HasScheme(*scheme) {
		_, err := core.NewTranslator(*scheme, core.MTLBConfig{}, core.TranslatorDeps{})
		fmt.Fprintf(stderr, "mtlbtrace: %v\n", err)
		return 2
	}

	// sim.New normalizes the MTLB geometry (core.MTLBConfig.Normalize),
	// so -ways needs no clamping here.
	cfg := sim.Default().WithTLB(*tlbSize)
	if *mtlbN > 0 {
		cfg = cfg.WithMTLB(core.MTLBConfig{Entries: *mtlbN, Ways: *ways}).WithScheme(*scheme)
	}
	cfg.NoFastPath = obsF.NoFastPath()

	stopProfiles, err := obsF.Apply(stderr)
	if err != nil {
		fmt.Fprintf(stderr, "mtlbtrace: %v\n", err)
		return 1
	}
	defer stopProfiles()

	// observed assembles the system, attaches observability when asked
	// for, runs the workload, and writes the per-run artifacts. It
	// returns the system for its host-work counters.
	observed := func(name string, w workload.Workload) (*sim.System, sim.Result, error) {
		s := sim.New(cfg)
		var o *obs.Obs
		if obsF.Enabled() {
			o = obs.New(obsF.Options())
			s.Observe(o)
		}
		res := s.Run(w)
		if err := obsF.WriteCellArtifacts(name, o); err != nil {
			return s, res, err
		}
		if o != nil {
			if err := obsF.WriteTimeline(stderr, []cmdutil.NamedTimeline{{Name: name, TL: o.Timeline()}}); err != nil {
				return s, res, err
			}
		}
		return s, res, nil
	}

	emitJSON := func(res sim.Result) error {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	switch {
	case *record:
		scale, err := exp.ParseScale(*scaleF)
		if err != nil {
			fmt.Fprintf(stderr, "mtlbtrace: unknown scale %q (valid: paper, small)\n", *scaleF)
			return 2
		}
		w, err := exp.MakeWorkload(*wname, scale)
		if err != nil {
			return fail(stderr, err)
		}
		f, err := os.Create(*out)
		if err != nil {
			return fail(stderr, err)
		}
		defer f.Close()
		tw, err := trace.NewWriter(f, w.SbrkSuperpages())
		if err != nil {
			return fail(stderr, err)
		}
		_, res, err := observed("record-"+w.Name(), rep.TraceRecording(w, tw))
		if err != nil {
			return fail(stderr, err)
		}
		if err := tw.Flush(); err != nil {
			return fail(stderr, err)
		}
		if *jsonOut {
			if err := emitJSON(res); err != nil {
				return fail(stderr, err)
			}
		} else {
			fmt.Fprintf(stdout, "recorded %d records from %s (%d cycles) to %s\n",
				tw.Records(), w.Name(), res.TotalCycles(), *out)
		}

	case *dump != "":
		f, err := os.Open(*dump)
		if err != nil {
			return fail(stderr, err)
		}
		defer f.Close()
		recs, err := trace.ReadAll(f)
		if err != nil {
			return fail(stderr, err)
		}
		counts := map[trace.Kind]int{}
		for i, r := range recs {
			counts[r.Kind]++
			if i < *maxPrint {
				fmt.Fprintf(stdout, "%8d  %s\n", i, formatRecord(r))
			}
		}
		fmt.Fprintf(stdout, "... %d records total: %d loads, %d stores, %d steps, %d sbrk, %d remap, %d alloc\n",
			len(recs), counts[trace.KindLoad], counts[trace.KindStore],
			counts[trace.KindStep], counts[trace.KindSbrk], counts[trace.KindRemap],
			counts[trace.KindAllocRegion]+counts[trace.KindAllocAligned])

	case *replay != "":
		f, err := os.Open(*replay)
		if err != nil {
			return fail(stderr, err)
		}
		p, err := rep.Load(f)
		f.Close()
		if err != nil {
			return fail(stderr, err)
		}
		s, res, err := observed("replay", rep.NewEngine(p))
		if err != nil {
			return fail(stderr, err)
		}
		if *jsonOut {
			if err := emitJSON(res); err != nil {
				return fail(stderr, err)
			}
		} else {
			fmt.Fprintf(stdout, "replayed %d refs on %s: %d cycles, tlb-miss time %.1f%%\n",
				p.Refs(), res.Label, res.TotalCycles(), 100*res.TLBFraction())
			fmt.Fprintf(stdout, "compiled program: %d bytes, %.1f B/ref\n",
				p.Bytes(), float64(p.Bytes())/float64(max(p.Refs(), 1)))
			l := p.Layout()
			fmt.Fprintf(stdout, "program layout: %d segments; %d B columns, %d B page dictionaries, %d B step overflow, %d B segments\n",
				l.Segments, l.Columns, l.Pages, l.Extra, l.SegBytes)
			fmt.Fprintln(stdout, cpu.HostWork(s.CPU))
		}

	default:
		fs.Usage()
		return 2
	}
	return 0
}

func formatRecord(r trace.Record) string {
	switch r.Kind {
	case trace.KindLoad:
		return fmt.Sprintf("load  %d bytes @ 0x%08x", r.Size, r.A)
	case trace.KindStore:
		return fmt.Sprintf("store %d bytes @ 0x%08x", r.Size, r.A)
	case trace.KindStep:
		return fmt.Sprintf("step  %d instructions", r.A)
	case trace.KindSbrk:
		return fmt.Sprintf("sbrk  %d bytes", r.A)
	case trace.KindRemap:
		return fmt.Sprintf("remap 0x%08x + %d bytes", r.A, r.B)
	case trace.KindAllocRegion:
		return fmt.Sprintf("alloc %d bytes", r.A)
	case trace.KindAllocAligned:
		return fmt.Sprintf("alloc %d bytes (align %d, offset %d)", r.A, r.B>>32, r.B&0xFFFFFFFF)
	default:
		return fmt.Sprintf("unknown kind %d", r.Kind)
	}
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "mtlbtrace:", err)
	return 1
}
