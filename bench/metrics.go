package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric. The two tables below are the
// whole output vocabulary: BENCHMARK.json declares exactly these names
// (bench_test.go holds the two to the same set), and every report
// carries every name of its table.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the untraced run's metrics: what a user of the simulator
// waits for and pays in memory.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},        // median host seconds per rep
	{"refs_per_s", "1/s", "higher"}, // simulated loads+stores per host second
	{"setup_s", "s", "lower"},       // host seconds of set-up before the timed reps
	{"peak_rss_mb", "MB", "lower"},  // VmHWM over set-up and timed reps
}

// perLayer are the traced run's metrics. Host-time metrics come first,
// then the modelled (simulated-time) counters that explain a host-time
// move when the model changes. A layer a workload does not exercise
// reports 0.
var perLayer = []metricDef{
	{"workload.gen_ns_per_ref", "ns/ref", "lower"},
	{"cpu.env_ns_per_ref", "ns/ref", "lower"},
	{"cpu.residual_ns_per_ref", "ns/ref", "lower"},
	{"tlb.lookup_ns", "ns", "lower"},
	{"tlb.insert_ns", "ns", "lower"},
	{"vm.miss_ns", "ns", "lower"},
	{"vm.misses_per_ref", "calls/ref", "lower"},
	{"ptable.lookup_ns", "ns", "lower"},
	{"cache.access_ns", "ns", "lower"},
	{"cache.events_per_ref", "events/ref", "lower"},
	{"mmc.event_ns", "ns", "lower"},
	{"vm.translate_data_ns", "ns", "lower"},
	{"mem.access_ns", "ns", "lower"},
	{"cpu.streamcols_ns_per_ref", "ns/ref", "lower"},
	{"replay.engine_ns_per_ref", "ns/ref", "lower"},
	{"replay.record_s", "s", "lower"},
	{"replay.program_bytes_per_ref", "B/ref", "lower"},
	{"runner.warm_s", "s", "lower"},
	{"runner.reduce_s", "s", "lower"},
	{"runner.sim_ms_p50", "ms", "lower"},
	{"runner.sim_ms_p90", "ms", "lower"},
	{"runner.busy_frac", "frac", "higher"},
	{"runner.sims", "count", "lower"},
	{"runner.dedup_ratio", "ratio", "higher"},
	{"vm.remap_ms", "ms", "lower"},
	{"vm.sbrk_us", "us", "lower"},
	{"trace.overhead_frac", "frac", "lower"},

	{"sim.user_frac", "frac", "higher"},
	{"sim.tlbmiss_frac", "frac", "lower"},
	{"sim.memory_frac", "frac", "lower"},
	{"sim.kernel_frac", "frac", "lower"},
	{"tlb.hit_rate", "frac", "higher"},
	{"vm.tlb_misses_per_kref", "1/kref", "lower"},
	{"vm.page_faults", "count", "lower"},
	{"cache.hit_rate", "frac", "higher"},
	{"mmc.fills_per_kref", "1/kref", "lower"},
	{"mmc.writebacks_per_kref", "1/kref", "lower"},
	{"mmc.upgrades_per_kref", "1/kref", "lower"},
	{"mtlb.hit_rate", "frac", "higher"},
	{"mtlb.fills_per_kref", "1/kref", "lower"},
	{"smp.ipis", "count", "lower"},
	{"smp.bus_stall_frac", "frac", "lower"},
	{"smp.barrier_frac", "frac", "lower"},
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method, which extrapolates for tiny samples), so the
// spreads recorded beside this program match the ones a reader
// recomputes from the raw values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks; 0 for none.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// resetPeakRSS collects garbage, returns freed memory to the OS and
// resets the kernel's high-water mark, so the next peakRSSMB reading
// covers only what follows.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS. Without it
	// (an old kernel) the reading covers the whole process, which is
	// still one workload's when the benchmark runs one per process.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
