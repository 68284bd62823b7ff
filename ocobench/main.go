// Command ocobench is the repository's end-to-end benchmark. It runs an
// OCOLOS scenario on the simulated machine for a host-time budget,
// checks the outputs, and prints every metric by name with its unit.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// Usage, from the repository root:
//
//	bash ocobench/run.sh --workload sqldb-online --seed 1 --seconds 30 --trace 0
//
// --workload is sqldb-online, loopsim-reopt, fleet-drift or all (the
// three in one process). --trace 0 reports the end-to-end metrics;
// --trace 1 reports the per-layer metrics, the self time of each layer
// and the tracing overhead, and writes the spans under .bench_build/. See
// README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/diffcheck"
)

// workload is one benchmark scenario: the diffcheck targets that check
// its layers' outputs, and a set-up that returns the timed phase.
type workload struct {
	name    string
	targets []string
	setup   func(seed uint64, m *meter) (func(*meter) *rep, error)
}

var workloads = []workload{
	{"sqldb-online", []string{"sqldb"}, sqldbOnline().setup},
	{"loopsim-reopt", []string{"loopsim"}, loopsimReopt().setup},
	{"fleet-drift", []string{"sqldb", "docdb", "kvcache"}, newFleetDrift().setup},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"speedup", "ratio"},
	{"p50_us", "sim_us"},
	{"p99_us", "sim_us"},
	{"pause_ms", "sim_ms"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"sim_mips", "Minst/s"},
	{"setup_s", "s"},
	{"host_mem_mb", "MB"},
	{"ok_frac", "ratio"},
}

var perLayer = []metricDef{
	{"proc.sim_s", "s"}, {"proc.sim_cpu_s", "s"}, {"proc.insts", "count"}, {"proc.mips", "Minst/s"},
	{"proc.superblock_frac", "ratio"}, {"proc.superblocks_formed", "count"},
	{"proc.superblocks_invalidated", "count"},
	{"cpu.ipc.c0", "ratio"}, {"cpu.ipc.opt", "ratio"},
	{"cpu.l1i_mpki.c0", "1/kinst"}, {"cpu.l1i_mpki.opt", "1/kinst"},
	{"cpu.itlb_mpki.c0", "1/kinst"}, {"cpu.itlb_mpki.opt", "1/kinst"},
	{"cpu.btb_mpki.c0", "1/kinst"}, {"cpu.btb_mpki.opt", "1/kinst"},
	{"cpu.mispredict_pki.c0", "1/kinst"}, {"cpu.mispredict_pki.opt", "1/kinst"},
	{"cpu.frontend_frac.c0", "ratio"}, {"cpu.frontend_frac.opt", "ratio"},
	{"cpu.retiring_frac.c0", "ratio"}, {"cpu.retiring_frac.opt", "ratio"},
	{"perf.samples", "count"}, {"perf.branches", "count"}, {"perf.profile_s", "s"},
	{"bolt.perf2bolt_s", "s"}, {"bolt.optimize_s", "s"}, {"bolt.funcs_reordered", "count"},
	{"bolt.funcs_split", "count"}, {"bolt.new_text_kb", "KiB"},
	{"core.replace_s", "s"}, {"core.pause_ms", "sim_ms"}, {"core.bytes_injected", "B"},
	{"core.bytes_copied", "B"}, {"core.bytes_freed", "B"}, {"core.call_sites_patched", "count"},
	{"core.vtable_slots_patched", "count"}, {"core.osr_mapped", "count"},
	{"core.osr_fallbacks", "count"},
	{"layout.hits", "count"}, {"layout.misses", "count"}, {"layout.coalesced", "count"},
	{"layout.hit_rate", "ratio"},
	{"fleet.scan_s", "s"}, {"fleet.wave_s", "s"}, {"fleet.reopt_wave_s", "s"},
	{"fleet.pause_wait_s", "s"}, {"fleet.peak_pauses", "count"}, {"fleet.retries", "count"},
	{"fleet.failed", "count"}, {"fleet.quarantined", "count"},
	{"profile.drift_selected", "count"}, {"profile.drift_score", "ratio"},
	{"profile.reopts", "count"}, {"profile.samples_ingested", "count"},
	{"wl.requests", "count"},
	{"self.setup_s", "s"}, {"self.build_s", "s"}, {"self.proc_s", "s"}, {"self.perf_s", "s"},
	{"self.bolt_s", "s"}, {"self.core_s", "s"}, {"self.fleet_s", "s"}, {"self.bench_s", "s"},
	{"self.check_s", "s"},
	{"trace.overhead_s", "s"}, {"trace.spans", "count"},
}

// minSetups is how many times a run sets a workload up, at least, so
// setup_s is a median.
const minSetups = 15

type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "all", "sqldb-online | loopsim-reopt | fleet-drift | all")
	seed := flag.Uint64("seed", 0, "workload seed; 0 replays the unshifted request streams")
	seconds := flag.Float64("seconds", 30, "host seconds of timed repetitions per workload")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	if raceEnabled {
		fmt.Fprintln(os.Stderr, "ocobench: built with -race, which would measure the race detector; rebuild without it")
		os.Exit(2)
	}

	var chosen []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "ocobench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *trace, *seconds)
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceOut: fmt.Sprintf(".bench_build/trace-%s-%d.json", *name, *seed)}

	env, _ := json.Marshal(environment(*name, o))
	fmt.Printf("env %s\n", env)

	total := result{Correct: true, Metrics: map[string]metric{}}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	for _, w := range chosen {
		res, err := runWorkload(w, o, rec, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ocobench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(chosen) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	if rec != nil {
		if err := rec.write(o.traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "ocobench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans written to %s\n", o.traceOut)
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ocobench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runWorkload checks the workload's outputs, sets it up several times
// and repeats its timed phase until the budget is spent.
func runWorkload(w workload, o options, rec *recorder, out io.Writer) (*result, error) {
	fmt.Fprintf(out, "== %s (seed %d)\n", w.name, o.seed)
	checkRep := 0
	if rec != nil {
		rec.workload = w.name
		checkRep = rec.nextRep()
	}
	m0 := &meter{rec: rec}
	correct := true
	for _, name := range w.targets {
		t, err := diffcheck.TargetByName(name)
		if err != nil {
			return nil, err
		}
		var diffs []string
		d := m0.call("diffcheck.Check", "check", false, func() { diffs, err = diffcheck.Check(t) })
		if err != nil {
			diffs = append(diffs, err.Error())
		}
		status := "ok"
		if len(diffs) > 0 {
			correct = false
			status = "FAILED: " + strings.Join(diffs, "; ")
		}
		fmt.Fprintf(out, "check %-8s %s (%.3f s)\n", name, status, d)
	}
	checkS := 0.0
	if rec != nil {
		checkS = rec.selfTimes(checkRep)["check"]
	}

	setup := func(m *meter) (func(*meter) *rep, float64, error) {
		runtime.GC() // collect the previous instance outside the timer
		var timed func(*meter) *rep
		var err error
		d := m.call("setup", "setup", false, func() { timed, err = w.setup(o.seed, m) })
		return timed, d, err
	}
	var setups []float64
	for i := 1; i < minSetups; i++ {
		_, d, err := setup(m0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}

	// Reps alternate untraced and traced when tracing, so the overhead
	// is the difference of their medians.
	var reps []*rep
	var traced []bool
	start := time.Now()
	for i := 1; ; i++ {
		m := &meter{}
		tr := o.trace && i%2 == 0
		if tr {
			m.rec = rec
			rec.nextRep()
		}
		timed, d, err := setup(m)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		var r *rep
		c0 := cpuSeconds()
		wall := m.call("timed", "bench", false, func() { r = timed(m) })
		r.wallS, r.cpuS = wall, cpuSeconds()-c0
		r.simS, r.simCPU = m.simS, m.simCPU
		if tr {
			for layer, s := range rec.selfTimes(rec.rep) {
				r.layers["self."+layer+"_s"] = s
			}
			r.layers["self.check_s"] = checkS
		}
		reps = append(reps, r)
		traced = append(traced, tr)
		need := 1
		if o.trace {
			need = 2
		}
		if len(reps) >= need && time.Since(start).Seconds()+wall > o.seconds {
			break
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	first := reps[0]
	res := &result{Correct: correct, Metrics: map[string]metric{}}
	var failures []string
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.digest != first.digest {
			res.Correct = false
			failures = append(failures, fmt.Sprintf("digest %016x of a repeat differs from %016x", r.digest, first.digest))
		}
	}
	failures = append(failures, first.failures...)
	var wall, cpu, mips, twall []float64
	for i, r := range reps {
		if traced[i] {
			twall = append(twall, r.wallS)
			continue
		}
		wall = append(wall, r.wallS)
		cpu = append(cpu, r.cpuS)
		mips = append(mips, ratio(float64(r.insts), r.simCPU)/1e6)
	}

	values := map[string]float64{}
	if o.trace {
		layers := map[string][]float64{}
		for i, r := range reps {
			if !traced[i] {
				continue
			}
			r.layers["proc.sim_s"] = r.simS
			r.layers["proc.sim_cpu_s"] = r.simCPU
			r.layers["proc.mips"] = ratio(float64(r.insts), r.simCPU) / 1e6
			for k, v := range r.layers {
				layers[k] = append(layers[k], v)
			}
		}
		for k, vs := range layers {
			values[k] = median(vs)
		}
		values["trace.overhead_s"] = median(twall) - median(wall)
		values["trace.spans"] = float64(len(rec.spans))
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{values[d.name], d.unit}
		}
	} else {
		values["speedup"] = first.speedup
		values["p50_us"] = first.p50us
		values["p99_us"] = first.p99us
		values["pause_ms"] = first.pauseMS
		values["wall_s"] = median(wall)
		values["cpu_s"] = median(cpu)
		values["sim_mips"] = median(mips)
		values["setup_s"] = median(setups)
		values["host_mem_mb"] = float64(ms.Sys) / (1 << 20)
		values["ok_frac"] = 1 - ratio(float64(res.Failed), float64(res.Attempted))
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{values[d.name], d.unit}
		}
	}

	fmt.Fprintf(out, "%d reps (%d traced), %d set-ups; wall_s/cpu_s of each rep:", len(reps), len(twall), len(setups))
	for _, r := range reps {
		fmt.Fprintf(out, " %.3f/%.3f", r.wallS, r.cpuS)
	}
	fmt.Fprintln(out)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(out, "  %-30s %14.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
	if !o.trace {
		fmt.Fprintf(out, "  p99 over %d requests of the final window\n", first.latSamples)
	}
	fmt.Fprintf(out, "ops: %d attempted, %d failed (fail_frac %.4f)\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, f := range failures {
		fmt.Fprintf(out, "  failure: %s\n", f)
	}
	fmt.Fprint(out, first.detail)
	fmt.Fprintf(out, "digest %016x\n", first.digest)
	return res, nil
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// environment records what a result was measured on.
type envInfo struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
}

func environment(name string, o options) envInfo {
	e := envInfo{Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					e.Commit += "+dirty"
				}
			}
		}
	}
	return e
}
