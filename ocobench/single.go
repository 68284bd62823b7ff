package main

import (
	"repro/internal/bolt"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/perf"
	"repro/internal/proc"
	"repro/internal/workloads/loopsim"
	"repro/internal/workloads/sqldb"
	"repro/internal/workloads/wl"
)

// single is a one-service workload run with ocolos-run's procedure:
// warm, measure C0, then per round profile → BOLT → replace → warm →
// measure. All durations are simulated seconds.
type single struct {
	build   func() (*wl.Workload, error)
	input   string
	rounds  int
	opts    core.Options
	warm    float64
	window  float64
	profile float64
}

func sqldbOnline() single {
	return single{
		build:  func() (*wl.Workload, error) { return sqldb.Build(sqldb.Full()) },
		input:  "read_only",
		rounds: 1,
		warm:   0.003, window: 0.004, profile: 0.002,
	}
}

func loopsimReopt() single {
	return single{
		build:  func() (*wl.Workload, error) { return loopsim.Build(loopsim.Full()) },
		input:  "steady",
		rounds: 3,
		opts:   core.Options{Bolt: bolt.Options{AllowReBolt: true}},
		warm:   0.003, window: 0.004, profile: 0.002,
	}
}

// setup builds the workload, loads one process on the seeded request
// stream and attaches a controller; the returned function is the timed
// phase.
func (sc single) setup(seed uint64, m *meter) (func(*meter) *rep, error) {
	var w *wl.Workload
	var err error
	m.call("workload.Build", "build", false, func() { w, err = sc.build() })
	if err != nil {
		return nil, err
	}
	d, err := w.NewDriver(sc.input, w.Threads)
	if err != nil {
		return nil, err
	}
	d.SetGenerator(seeded(d.Generator(), seed))
	var p *proc.Process
	m.call("proc.Load", "proc", false, func() {
		p, err = proc.Load(w.Binary, proc.Options{Threads: w.Threads, Handler: d})
	})
	if err != nil {
		return nil, err
	}
	var ctl *core.Controller
	m.call("core.New", "core", false, func() { ctl, err = core.New(p, w.Binary, sc.opts) })
	if err != nil {
		return nil, err
	}
	return func(m *meter) *rep { return sc.timed(m, p, d, ctl) }, nil
}

// window is one measured interval: throughput, latency and the
// simulated machine's counters over it.
type window struct {
	ws    wl.WindowStats
	stats cpu.Stats
}

func measure(m *meter, p *proc.Process, d *wl.Driver, seconds float64) window {
	before := p.Stats()
	var ws wl.WindowStats
	m.call("wl.MeasureStats", "proc", true, func() { ws = wl.MeasureStats(p, d, seconds) })
	return window{ws: ws, stats: p.Stats().Sub(before)}
}

func (sc single) timed(m *meter, p *proc.Process, d *wl.Driver, ctl *core.Controller) *rep {
	r := newRep()
	st0, sb0, req0 := p.Stats(), p.SuperblockStats(), d.Completed()
	dg := newDigest()

	m.call("proc.RunFor", "proc", true, func() { p.RunFor(sc.warm) })
	c0 := measure(m, p, d, sc.window)
	dg.window(c0)
	last := c0
	var samples, branches int
	var profileS, replaceS float64
	var builds []*core.BuildStats
	var replaces []*core.ReplaceStats
	for round := 1; round <= sc.rounds; round++ {
		r.attempted++
		var raw *perf.RawProfile
		profileS += m.call("Controller.Profile", "perf", true, func() { raw = ctl.Profile(sc.profile) })
		samples += len(raw.Samples)
		branches += raw.Branches()
		var bs *core.BuildStats
		var err error
		m.call("Controller.BuildOptimized", "bolt", false, func() { bs, err = ctl.BuildOptimized(raw) })
		if err != nil {
			r.fail("round %d: build: %v", round, err)
			break
		}
		builds = append(builds, bs)
		var rs *core.ReplaceStats
		replaceS += m.call("Controller.Replace", "core", false, func() { rs, err = ctl.Replace(bs.Result.Binary) })
		if err != nil {
			r.fail("round %d: replace: %v", round, err)
			break
		}
		replaces = append(replaces, rs)
		dg.replace(rs)
		m.call("proc.RunFor", "proc", true, func() { p.RunFor(sc.warm) })
		last = measure(m, p, d, sc.window)
		dg.window(last)
	}

	r.attempted++ // the service itself: it must not fault and must serve
	if err := p.Fault(); err != nil {
		r.fail("guest fault: %v", err)
	}
	if last.ws.Throughput == 0 {
		r.fail("window after the final round measured 0 req/s")
	}

	hz := p.Cfg.ClockHz
	r.speedup = ratio(last.ws.Throughput, c0.ws.Throughput)
	r.p50us = last.ws.P50 / hz * 1e6
	r.p99us = last.ws.P99 / hz * 1e6
	r.latSamples = int(last.ws.Requests)

	st, sb := p.Stats().Sub(st0), p.SuperblockStats()
	r.insts = st.Instructions
	dg.stats(p.Stats())
	dg.word(d.Completed(), ctl.StateHash())
	r.digest = dg.sum()

	l := r.layers
	l["proc.insts"] = float64(st.Instructions)
	l["proc.superblock_frac"] = ratio(float64(sb.Insts-sb0.Insts), float64(st.Instructions))
	l["proc.superblocks_formed"] = float64(sb.Formed - sb0.Formed)
	l["proc.superblocks_invalidated"] = float64(sb.Invalidated - sb0.Invalidated)
	cpuLayer(l, "c0", c0.stats)
	cpuLayer(l, "opt", last.stats)
	l["perf.samples"] = float64(samples)
	l["perf.branches"] = float64(branches)
	l["perf.profile_s"] = profileS
	for _, bs := range builds {
		l["bolt.perf2bolt_s"] += bs.Perf2BoltSeconds
		l["bolt.optimize_s"] += bs.BoltSeconds
		l["bolt.funcs_reordered"] += float64(bs.Result.FuncsReordered)
		l["bolt.funcs_split"] += float64(bs.Result.FuncsSplit)
		l["bolt.new_text_kb"] += float64(bs.Result.NewTextBytes) / 1024
	}
	l["core.replace_s"] = replaceS
	coreLayer(l, replaces)
	r.pauseMS = l["core.pause_ms"]
	l["wl.requests"] = float64(d.Completed() - req0)
	return r
}

// cpuLayer records the simulated front-end counters of one window.
func cpuLayer(l map[string]float64, suffix string, s cpu.Stats) {
	td := s.TopDown()
	put := func(name string, v float64) { l["cpu."+name+"."+suffix] = v }
	put("ipc", s.IPC())
	put("l1i_mpki", s.L1iMPKI())
	put("itlb_mpki", s.ITLBMPKI())
	put("btb_mpki", ratio(float64(s.BTBMisses)*1000, float64(s.Instructions)))
	put("mispredict_pki", s.MispredictPKI())
	put("frontend_frac", td.FrontEnd)
	put("retiring_frac", td.Retiring)
}

// coreLayer sums the replacement counters of every committed round.
func coreLayer(l map[string]float64, replaces []*core.ReplaceStats) {
	for _, rs := range replaces {
		l["core.pause_ms"] += rs.PauseSeconds * 1e3
		l["core.bytes_injected"] += float64(rs.BytesInjected)
		l["core.bytes_copied"] += float64(rs.BytesCopied)
		l["core.bytes_freed"] += float64(rs.BytesFreed)
		l["core.call_sites_patched"] += float64(rs.CallSitesPatched)
		l["core.vtable_slots_patched"] += float64(rs.VTableSlotsPatched)
		l["core.osr_mapped"] += float64(rs.OSRFramesMapped)
		l["core.osr_fallbacks"] += float64(rs.OSRFallbacks)
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// seeded shifts every thread's request sequence by an offset drawn from
// the seed, so each seed replays a different stretch of the same
// request mix. Seed 0 leaves the generator untouched.
func seeded(gen wl.Generator, seed uint64) wl.Generator {
	if seed == 0 {
		return gen
	}
	off := wl.SplitMix64(seed) >> 24
	return func(tid int, seq uint64) wl.Request { return gen(tid, seq+off) }
}
