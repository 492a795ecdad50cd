// Command scfbench is the repository's end-to-end benchmark: it runs
// converged self-consistent-field calculations (the unit of work of
// ROADMAP.md) on one workload for a fixed time budget, checks every
// result bit for bit against the serial SCF, and prints the metrics as
// one JSON object on the last line of standard output.
//
//	scfbench --workload trap16-bands2x4 --seed 3 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced runs; --trace 1
// reports the per-layer ledger from a traced run of the same workload.
// README.md documents the workloads and what each metric measures.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"repro/internal/gpaw"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "trap16-serial", "workload name")
	seed := fs.Uint64("seed", 0, "workload seed; 0 is the centred trap")
	secs := fs.Float64("seconds", 10, "measurement budget in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*traced != 0 && *traced != 1) || *secs <= 0 {
		fmt.Fprintf(stderr, "scfbench: need --workload in %v, --trace 0|1, --seconds > 0\n", workloadNames())
		return 2
	}
	budget := time.Duration(*secs * float64(time.Second))
	var rep *report
	var err error
	if *traced == 0 {
		rep, err = endToEnd(w, *seed, budget)
	} else {
		rep, err = perLayer(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "scfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.write(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "scfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	samples   []*attempt
	faults    []string
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// tally counts the attempts and their failures.
func (r *report) tally(atts []*attempt) {
	r.samples = atts
	for _, a := range atts {
		r.Attempted++
		if a.fault != "" {
			r.Failed++
			r.faults = append(r.faults, a.fault)
		}
	}
	r.Correct = r.Failed == 0
}

// write prints the attempts and failures to stderr, one "name value
// unit" line per metric to stdout, then the JSON result as the last
// line.
func (r *report) write(stdout, stderr io.Writer) error {
	for _, a := range r.samples {
		fmt.Fprintf(stderr, "attempt: cpu %.3fs wall %.3fs makespan %v heap %.3fMiB\n",
			a.cpu, a.wall.Seconds(), a.makespan, a.peakHeap/(1<<20))
	}
	for _, f := range r.faults {
		fmt.Fprintf(stderr, "FAILED: %s\n", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for n, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "# %-32s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianOf(atts []*attempt, f func(*attempt) float64) float64 {
	xs := make([]float64, len(atts))
	for i, a := range atts {
		xs[i] = f(a)
	}
	return median(xs)
}

// attemptFn runs one SCF attempt of the workload.
func attemptFn(w workload, seed uint64, tr *trace.Tracer) func() *attempt {
	if w.distributed() {
		return func() *attempt { return distAttempt(w, seed, tr) }
	}
	return func() *attempt { return serialAttempt(w, seed) }
}

// repeat runs attempts until budget has elapsed (at least one), each
// checked against ref; a nil ref adopts the first passing result.
func repeat(budget time.Duration, ref **gpaw.SCFResult, next func() *attempt) []*attempt {
	var atts []*attempt
	for t0 := time.Now(); len(atts) == 0 || time.Since(t0) < budget; {
		a := next()
		if *ref == nil && a.fault == "" {
			*ref = a.res
		}
		a.check(*ref)
		atts = append(atts, a)
	}
	return atts
}

// setupReps is how many set-up trials setup_s is the median of. One
// trial takes tens of microseconds (serial) to a few milliseconds.
const setupReps = 101

// endToEnd measures the untraced end-to-end metrics.
func endToEnd(w workload, seed uint64, budget time.Duration) (*report, error) {
	rep := newReport()
	var ref *gpaw.SCFResult
	var extra []*attempt // checked like the timed attempts, but not timed samples
	if w.distributed() {
		var err error
		if ref, err = reference(w, seed); err != nil {
			extra = append(extra, &attempt{fault: err.Error()})
		}
	}
	heap := startHeapPeak()
	defer heap.stop()
	next := attemptFn(w, seed, nil)
	timed := repeat(budget, &ref, func() *attempt {
		heap.take()
		a := next()
		a.peakHeap = heap.take()
		return a
	})
	makespan := timed[0].makespan
	if w.distributed() {
		for _, a := range timed[1:] {
			if a.fault == "" && a.makespan != makespan {
				a.failf("makespan %v differs from the first attempt's %v", a.makespan, makespan)
			}
		}
	} else {
		// The serial SCF has no virtual clock: its makespan is that of
		// the same SCF on a 1-rank modeled world, also bit-checked.
		m := distAttempt(w, seed, nil)
		m.check(ref)
		makespan = m.makespan
		extra = append(extra, m)
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		d, err := setupTrial(w, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	rep.tally(append(timed, extra...))
	rep.set("scf_cpu_s", medianOf(timed, func(a *attempt) float64 { return a.cpu }), "s")
	rep.set("bgp_makespan_ms", float64(makespan)/1e6, "virt_ms")
	rep.set("setup_s", median(setups), "s")
	rep.set("peak_mem_mb", medianOf(timed, func(a *attempt) float64 { return a.peakHeap / (1 << 20) }), "MiB_live_heap")
	return rep, nil
}

// perLayer measures the per-layer ledger: untraced attempts for the
// runtime and engine counters, then as many traced attempts (tracer
// armed on the world, CPU profile running) for the phase profile and
// the tracing overhead, then the layer probes.
func perLayer(w workload, seed uint64, budget time.Duration) (*report, error) {
	rep := newReport()
	var ref *gpaw.SCFResult
	var extra []*attempt
	if w.distributed() {
		var err error
		if ref, err = reference(w, seed); err != nil {
			extra = append(extra, &attempt{fault: err.Error()})
		}
	}
	plain := repeat(budget/2, &ref, attemptFn(w, seed, nil))

	var tr *trace.Tracer
	if w.distributed() {
		tr = trace.New(w.ranks(), w.traceCap)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var traced []*attempt
	var pv, pw *trace.Profile
	for len(traced) < len(plain) {
		// Untraced and traced attempts are both checked against the
		// serial reference, so traced energies equal untraced ones bit
		// for bit whenever both pass.
		a := attemptFn(w, seed, tr)()
		a.check(ref)
		if tr != nil {
			prev := pv
			pv, pw = tr.Profile(trace.Virtual), tr.Profile(trace.Wall)
			if prev != nil && a.fault == "" && pv.Events != prev.Events {
				a.failf("traced attempt recorded %d events, the previous one %d", pv.Events, prev.Events)
			}
		}
		traced = append(traced, a)
	}
	pprof.StopCPUProfile()
	byFunc, err := cpuSelfByFunc(prof.Bytes())
	if err != nil {
		return nil, err
	}

	// The probes start from the serial reference's (global) converged
	// density, which every passing attempt reproduced bit for bit.
	last := plain[len(plain)-1]
	var probe worldProbe
	if ref != nil {
		if probe, err = probeWorld(w, ref.Density); err != nil {
			return nil, err
		}
	}
	rep.tally(append(append(plain, traced...), extra...))

	rep.set("scf.iters", float64(last.iters), "count")
	rep.set("scf.iter_ms", medianOf(plain, func(a *attempt) float64 {
		if a.iters == 0 {
			return 0
		}
		return float64(a.iterWall) / 1e6 / float64(a.iters)
	}), "ms")
	rep.set("run.wall_s", medianOf(plain, func(a *attempt) float64 { return a.wall.Seconds() }), "s")
	rep.set("fail_frac", float64(rep.Failed)/float64(rep.Attempted), "ratio")

	// Solver phases and collectives from the traced profile: counts are
	// totals over ranks, times are per-rank means on the virtual clock.
	ranks := float64(w.ranks())
	virtMs := func(ns int64) float64 { return float64(ns) / ranks / 1e6 }
	count := func(name string) float64 { c, _, _ := phase(pv, name); return float64(c) }
	virt := func(name string) float64 { _, _, ns := phase(pv, name); return virtMs(ns) }
	rep.set("eigen.hpsi", count("eigen.apply"), "count")
	rep.set("poisson.cg_virt_ms", virt("poisson.cg"), "virt_ms")
	rep.set("poisson.cold_cg_iters", float64(probe.coldIters), "count")
	rep.set("poisson.cold_cg_ms", float64(probe.coldVirt)/1e6, "virt_ms")
	for _, c := range []string{"allreduce", "bcast"} {
		n, b, ns := phase(pv, "mpi."+c)
		rep.set("mpi."+c+".count", float64(n), "count")
		rep.set("mpi."+c+".bytes", float64(b)/(1<<20), "MiB")
		rep.set("mpi."+c+".virt_ms", virtMs(ns), "virt_ms")
	}
	n, b, _ := phase(pv, "mpi.send")
	rep.set("mpi.send.count", float64(n), "count")
	rep.set("mpi.send.bytes", float64(b)/(1<<20), "MiB")
	rep.set("mpi.wait.virt_ms", virt("mpi.wait"), "virt_ms")
	rep.set("mpi.acc_allreduce_us", float64(probe.accAllreduce)/1e3, "virt_us")
	rep.set("bands.rayleighritz.virt_ms", virt("bands.rayleighritz"), "virt_ms")
	rep.set("bands.orthonormalize.virt_ms", virt("bands.orthonormalize"), "virt_ms")
	for _, k := range []string{"cholesky", "symeig", "trsm"} {
		n, _, ns := phase(pw, "pblas."+k)
		rep.set("pblas."+k+".count", float64(n), "count")
		rep.set("pblas."+k+".wall_ms", float64(ns)/ranks/1e6, "ms")
	}
	var events, dropped float64
	if pv != nil {
		events, dropped = float64(pv.Events), float64(pv.Dropped)
	}
	rep.set("trace.events", events, "count")
	rep.set("trace.dropped", dropped, "count")
	rep.set("trace.overhead_frac", medianOf(traced, func(a *attempt) float64 { return a.cpu })/
		medianOf(plain, func(a *attempt) float64 { return a.cpu })-1, "ratio")

	// Halo engine counters (Dist.Stats summed over ranks, virtual ns).
	h := last.halo
	rep.set("halo.msgs", float64(h.MessagesSent), "count")
	rep.set("halo.bytes", float64(h.BytesSent)/(1<<20), "MiB")
	rep.set("halo.hidden_ms", float64(h.HiddenWaitNs)/1e6, "virt_ms")
	rep.set("halo.visible_ms", float64(h.WaitNs)/1e6, "virt_ms")
	rep.set("halo.overlap_eff", h.OverlapEfficiency(), "ratio")

	exact, plainNs := dotNs(w.n, seed)
	rep.set("detsum.dot_ns_per_elem", exact, "ns")
	rep.set("plain.dot_ns_per_elem", plainNs, "ns")
	rep.set("detsum.dot_ratio", exact/plainNs, "ratio")
	rep.set("grid.traffic_gb", float64(last.traffic)*8/1e9, "GB_computed")

	rep.set("alloc.count", medianOf(plain, func(a *attempt) float64 { return a.rt.allocs }), "count")
	rep.set("alloc.mb", medianOf(plain, func(a *attempt) float64 { return a.rt.allocBytes / (1 << 20) }), "MiB")
	rep.set("gc.cycles", medianOf(plain, func(a *attempt) float64 { return a.rt.gcCycles }), "count")
	rep.set("gc.cpu_frac", medianOf(plain, func(a *attempt) float64 {
		if a.rt.totalCPU <= 0 {
			return 0
		}
		return a.rt.gcCPU / a.rt.totalCPU
	}), "ratio")
	for p, share := range packageShares(byFunc) {
		rep.set("cpu."+p+"_frac", share, "ratio")
	}

	fail := 0.0
	if quarterShiftFails(w, seed) {
		fail = 1
	}
	rep.set("robust.quarter_shift_fail", fail, "count")
	return rep, nil
}
