// Command mtlbsim runs one workload on one simulated machine
// configuration and prints the measurements.
//
// Examples:
//
//	mtlbsim -workload em3d -tlb 128                 # baseline, no MTLB
//	mtlbsim -workload em3d -tlb 64 -mtlb 128        # paper's default MTLB
//	mtlbsim -workload radix -size paper -mtlb 128 -ways 2
//	mtlbsim -workload random -mtlb 512 -ways 512    # fully associative
//	mtlbsim -workload radix -size small -json       # result as JSON
//	mtlbsim -workload radix -size small -metrics out/ -timeline t.json
//	mtlbsim -workload radixp -cpus 4 -mtlb 128      # 4-CPU machine
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/cmdutil"
	"shadowtlb/internal/core"
	"shadowtlb/internal/cpu"
	"shadowtlb/internal/exp"
	"shadowtlb/internal/mem"
	"shadowtlb/internal/obs"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/vm"
	"shadowtlb/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtlbsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "em3d", "workload: compress, vortex, radix, em3d, gcc, random, stride, chase")
		size    = fs.String("size", "paper", "workload size: paper or small")
		tlbSize = fs.Int("tlb", 96, "CPU TLB entries")
		mtlbN   = fs.Int("mtlb", 0, "MTLB entries (0 = no MTLB)")
		ways    = fs.Int("ways", 2, "MTLB associativity")
		buddy   = fs.Bool("buddy", false, "use the buddy shadow allocator")
		nocheck = fs.Bool("nocheck", false, "hide the MMC shadow-check cycle")
		seq     = fs.Bool("seqalloc", false, "sequential (unfragmented) frame allocation")
		dram    = fs.Uint64("dram", 256, "installed DRAM in MB")
		streams = fs.Int("streams", 0, "MMC stream buffers (0 = off)")
		promote = fs.Bool("promote", false, "enable online superpage promotion")
		frames  = fs.Uint64("frames", 0, "cap user frames (0 = all; small values force paging)")
		banks   = fs.Int("banks", 0, "DRAM banks for open-row timing (0 = flat latency)")
		scheme  = fs.String("scheme", "", "MMC translation scheme (empty = "+core.DefaultScheme+")")
		cpus    = fs.Int("cpus", 1, "simulated CPUs (>1 runs the multicore machine)")
		jsonOut = fs.Bool("json", false, "emit the result as JSON instead of text")
	)
	obsF := cmdutil.RegisterCommonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	w, err := makeWorkload(*name, *size)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if !core.HasScheme(*scheme) {
		_, err := core.NewTranslator(*scheme, core.MTLBConfig{}, core.TranslatorDeps{})
		fmt.Fprintf(stderr, "mtlbsim: %v\n", err)
		return 2
	}

	cfg := sim.Default()
	cfg.DRAMBytes = *dram * arch.MB
	cfg = cfg.WithTLB(*tlbSize)
	if *mtlbN > 0 {
		// sim.New normalizes the MTLB geometry (core.MTLBConfig.Normalize),
		// so no clamping is needed here.
		cfg = cfg.WithMTLB(core.MTLBConfig{Entries: *mtlbN, Ways: *ways})
	}
	cfg = cfg.WithScheme(*scheme)
	cfg.UseBuddy = *buddy
	cfg.NoCheckCycle = *nocheck
	cfg.StreamBuffers = *streams
	cfg.MaxUserFrames = *frames
	cfg.DRAMBanks = *banks
	cfg.NoFastPath = obsF.NoFastPath()
	if *seq {
		cfg.AllocOrder = mem.Sequential
	}
	if *cpus > 1 {
		cfg = cfg.WithSMP(*cpus)
	}

	stopProfiles, err := obsF.Apply(stderr)
	if err != nil {
		fmt.Fprintf(stderr, "mtlbsim: %v\n", err)
		return 1
	}
	defer stopProfiles()

	var o *obs.Obs
	if obsF.Enabled() {
		o = obs.New(obsF.Options())
	}
	var res sim.Result
	var uni *sim.System // nil on the multicore path
	var procs []*cpu.CPU
	if cfg.SMP != nil {
		if *promote {
			fmt.Fprintln(stderr, "mtlbsim: -promote is not supported with -cpus > 1")
			return 2
		}
		s := sim.NewSMP(cfg, w)
		if o != nil {
			s.Observe(o)
		}
		res = s.Run()
		procs = s.CPUs
	} else {
		uni = sim.New(cfg)
		if *promote {
			if !uni.VM.HasShadow() {
				fmt.Fprintln(stderr, "mtlbsim: -promote requires -mtlb")
				return 2
			}
			uni.VM.EnablePromotion(vm.DefaultPromotePolicy())
		}
		if o != nil {
			uni.Observe(o)
		}
		res = uni.Run(w)
		procs = []*cpu.CPU{uni.CPU}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(stderr, "mtlbsim: %v\n", err)
			return 1
		}
	} else {
		printResult(stdout, res)
		if uni != nil {
			if *promote {
				fmt.Fprintf(stdout, "promotions   %d (online policy)\n", uni.VM.PromotionsMade())
			}
			if uni.VM.Reclaims > 0 {
				fmt.Fprintf(stdout, "paging       %d reclaims, %d swap-outs, %d swap-ins\n",
					uni.VM.Reclaims, uni.VM.SwapOuts, uni.VM.SwapIns)
			}
		}
		fmt.Fprintln(stdout, cpu.HostWork(procs...))
	}

	cell := *name + "-" + *size
	if err := obsF.WriteCellArtifacts(cell, o); err != nil {
		fmt.Fprintf(stderr, "mtlbsim: %v\n", err)
		return 1
	}
	if o != nil {
		if err := obsF.WriteTimeline(stderr, []cmdutil.NamedTimeline{{Name: cell, TL: o.Timeline()}}); err != nil {
			fmt.Fprintf(stderr, "mtlbsim: %v\n", err)
			return 1
		}
	}
	return 0
}

// makeWorkload resolves the workload through exp's name → constructor
// registry, which covers the five paper programs and the synthetic
// generators. Unknown names are an error listing the valid choices.
func makeWorkload(name, size string) (workload.Workload, error) {
	s, err := exp.ParseScale(size)
	if err != nil {
		return nil, fmt.Errorf("mtlbsim: unknown size %q (valid: paper, small)", size)
	}
	w, err := exp.MakeWorkload(name, s)
	if err != nil {
		return nil, fmt.Errorf("mtlbsim: unknown workload %q (valid: %s)",
			name, strings.Join(exp.AllWorkloadNames(), ", "))
	}
	return w, nil
}

func printResult(w io.Writer, r sim.Result) {
	fmt.Fprintf(w, "workload   %s\n", r.Workload)
	fmt.Fprintf(w, "config     %s\n", r.Label)
	fmt.Fprintf(w, "cycles     %d (%.2f ms at 240 MHz)\n",
		r.TotalCycles(), float64(r.TotalCycles())/240e3)
	b := r.Breakdown
	tot := float64(b.Total())
	fmt.Fprintf(w, "  user     %12d (%5.1f%%)\n", b.User, 100*float64(b.User)/tot)
	fmt.Fprintf(w, "  tlbmiss  %12d (%5.1f%%)\n", b.TLBMiss, 100*float64(b.TLBMiss)/tot)
	fmt.Fprintf(w, "  memory   %12d (%5.1f%%)\n", b.Memory, 100*float64(b.Memory)/tot)
	fmt.Fprintf(w, "  kernel   %12d (%5.1f%%)\n", b.Kernel, 100*float64(b.Kernel)/tot)
	fmt.Fprintf(w, "instructions %d\n", r.Instructions)
	fmt.Fprintf(w, "tlb misses   %d (hit rate %.4f)\n", r.TLBMisses, r.TLBHitRate)
	fmt.Fprintf(w, "cache hits   %.4f\n", r.CacheHitRate)
	fmt.Fprintf(w, "page faults  %d\n", r.PageFaults)
	fmt.Fprintf(w, "cache fills  %d (avg %.2f MMC cycles)\n", r.Fills, r.AvgFillMMC)
	if r.HasMTLB {
		fmt.Fprintf(w, "mtlb         hit rate %.4f, %d fills\n", r.MTLBHitRate, r.MTLBFills)
		fmt.Fprintf(w, "superpages   %d created, %d pages remapped\n", r.SuperpagesMade, r.PagesRemapped)
	}
	if r.CPUs > 1 {
		fmt.Fprintf(w, "cpus         %d (machine clock %d cycles)\n", r.CPUs, r.MachineCycles)
		fmt.Fprintf(w, "  ipis       %d shootdown IPIs\n", r.IPIs)
		fmt.Fprintf(w, "  bus stall  %d cycles\n", r.BusStallCycles)
		fmt.Fprintf(w, "  barriers   %d idle cycles\n", r.BarrierCycles)
		fmt.Fprintf(w, "  balance    busiest %d, idlest %d charged cycles\n", r.MaxCPUCycles, r.MinCPUCycles)
	}
}
