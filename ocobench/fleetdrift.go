package main

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fleet"
	"repro/internal/layout"
	"repro/internal/proc"
	"repro/internal/telemetry"
	"repro/internal/workloads/docdb"
	"repro/internal/workloads/kvcache"
	"repro/internal/workloads/sqldb"
	"repro/internal/workloads/wl"
)

// fleetDrift is a drift-enabled fleet of small services: an initial
// optimization wave, a phase turn on two of the four service kinds, a
// drift scan and the re-optimization wave it triggers.
type fleetDrift struct {
	replicas int
	threads  int
	timing   fleet.TimingConfig
	dwell    float64 // simulated serving time after the turn
}

func newFleetDrift() fleetDrift {
	return fleetDrift{
		replicas: 2,
		threads:  2,
		timing:   fleet.TimingConfig{ProfileDur: 0.0008, Warm: 0.0003, Window: 0.0004},
		dwell:    0.004,
	}
}

// fleetKind is one service kind of the mix; turn names the input it
// shifts to at the phase turn ("" = it keeps its input).
type fleetKind struct {
	name  string
	build func() (*wl.Workload, error)
	input string
	turn  string
}

func fleetKinds() []fleetKind {
	return []fleetKind{
		{"sqldb", func() (*wl.Workload, error) { return sqldb.Build(sqldb.Small()) }, "read_only", "diurnal_night"},
		{"docdb", func() (*wl.Workload, error) { return docdb.Build(docdb.Small()) }, "read_update", ""},
		{"kvcache", func() (*wl.Workload, error) { return kvcache.Build(kvcache.Small()) }, "set10_get90", ""},
		{"mt-kvcache", func() (*wl.Workload, error) { return kvcache.Build(kvcache.MultiTenant(3)) }, "hot0", "hot1"},
	}
}

// fleetSvc is one managed service plus the generator it turns to.
type fleetSvc struct {
	s    *fleet.Service
	turn wl.Generator // nil = no phase turn
}

func (sc fleetDrift) setup(seed uint64, m *meter) (func(*meter) *rep, error) {
	metrics := telemetry.NewRegistry()
	cfg := fleet.Config{
		Workers:  min(2, runtime.NumCPU()),
		SkipGate: true, // small services sit below the TopDown gate
		Timing:   sc.timing,
		Drift:    fleet.DriftConfig{Enabled: true},
		Metrics:  metrics,
	}
	var mgr *fleet.Manager
	var err error
	m.call("fleet.NewManager", "fleet", false, func() { mgr, err = fleet.NewManager(cfg) })
	if err != nil {
		return nil, err
	}
	var svcs []fleetSvc
	for _, k := range fleetKinds() {
		var w *wl.Workload
		m.call("workload.Build", "build", false, func() { w, err = k.build() })
		if err != nil {
			return nil, err
		}
		var turn wl.Generator
		if k.turn != "" {
			d, err := w.NewDriver(k.turn, sc.threads)
			if err != nil {
				return nil, err
			}
			turn = seeded(d.Generator(), seed)
		}
		for i := 0; i < sc.replicas; i++ {
			var s *fleet.Service
			m.call("Manager.AddService", "fleet", false, func() {
				s, err = mgr.AddService(fleet.ServicePlan{
					Name:     fmt.Sprintf("%s/%s#%d", k.name, k.input, i),
					Workload: w, Input: k.input, Threads: sc.threads,
					Core: core.Options{NoChargePause: true},
				})
			})
			if err != nil {
				return nil, err
			}
			s.Driver.SetGenerator(seeded(s.Driver.Generator(), seed))
			svcs = append(svcs, fleetSvc{s: s, turn: turn})
		}
	}
	return func(m *meter) *rep { return sc.timed(m, mgr, metrics, svcs) }, nil
}

func (sc fleetDrift) timed(m *meter, mgr *fleet.Manager, metrics *telemetry.Registry, svcs []fleetSvc) *rep {
	r := newRep()
	dg := newDigest()
	n := len(svcs)
	st0 := make([]cpu.Stats, n)
	sb0 := make([]proc.SuperblockStats, n)
	req0 := make([]uint64, n)
	for i, v := range svcs {
		st0[i], sb0[i], req0[i] = v.s.Proc.Stats(), v.s.Proc.SuperblockStats(), v.s.Driver.Completed()
	}

	// The services have been up for a while before the fleet looks.
	before := make([]window, n)
	for i, v := range svcs {
		m.call("proc.RunFor", "proc", true, func() { v.s.Proc.RunFor(sc.timing.Warm) })
		before[i] = measure(m, v.s.Proc, v.s.Driver, sc.timing.Window)
	}

	var scan []fleet.ScanResult
	scanS := m.call("Manager.Scan", "fleet", true, func() { scan = mgr.Scan(fleet.ScanOptions{}) })
	waveS := m.call("Manager.Optimize", "fleet", true, func() { mgr.Optimize(scan, fleet.WaveOptions{}) })
	for _, v := range svcs {
		r.attempted++
		checkState(r, "wave 1", v.s)
	}

	// Phase turn: the sqldb services go to their night mix and the
	// multi-tenant caches swap hot tenants; every service keeps serving.
	reopts0 := make([]int, n)
	for i, v := range svcs {
		reopts0[i] = v.s.Reopts()
		if v.turn != nil && v.s.State() == fleet.Steady {
			v.s.Driver.SetGenerator(v.turn)
		}
		m.call("proc.RunFor", "proc", true, func() { v.s.Proc.RunFor(sc.dwell) })
	}
	var drift []fleet.ScanResult
	scanS += m.call("Manager.Scan", "fleet", true, func() { drift = mgr.Scan(fleet.ScanOptions{Drift: true}) })
	reoptS := m.call("Manager.Optimize", "fleet", true, func() { mgr.Optimize(drift, fleet.WaveOptions{}) })
	selected, maxScore := 0, 0.0
	for _, d := range drift {
		if d.Optimize {
			selected++
		}
		maxScore = max(maxScore, d.DriftScore)
	}
	for i, v := range svcs {
		if v.s.Reopts() > reopts0[i] {
			r.attempted++
			checkState(r, "drift wave", v.s)
		}
	}

	after := make([]window, n)
	var sumBefore, sumAfter float64
	for i, v := range svcs {
		m.call("proc.RunFor", "proc", true, func() { v.s.Proc.RunFor(sc.timing.Warm) })
		after[i] = measure(m, v.s.Proc, v.s.Driver, sc.timing.Window)
		sumBefore += before[i].ws.Throughput
		sumAfter += after[i].ws.Throughput
		r.attempted++
		if err := v.s.Proc.Fault(); err != nil {
			r.fail("%s: guest fault: %v", v.s.Name, err)
		} else if after[i].ws.Throughput == 0 {
			r.fail("%s: final window measured 0 req/s", v.s.Name)
		}
	}
	var report *fleet.FleetReport
	m.call("Manager.Report", "fleet", false, func() { report = mgr.Report() })
	var table strings.Builder
	report.Write(&table)
	r.detail = table.String()
	var cs layout.Stats
	m.call("Manager.CacheStats", "fleet", false, func() { cs, _ = mgr.CacheStats() })

	r.speedup = ratio(sumAfter, sumBefore)
	var c0, opt, st cpu.Stats
	var replaces []*core.ReplaceStats
	var ingested, records, requests float64
	var formed, invalid, superInsts uint64
	for i, v := range svcs {
		c0.Add(before[i].stats)
		opt.Add(after[i].stats)
		p := v.s.Proc
		hz := p.Cfg.ClockHz
		if w := after[i].ws; w.Throughput > 0 && p.Fault() == nil {
			if us := w.P50 / hz * 1e6; us > r.p50us {
				r.p50us = us
			}
			if us := w.P99 / hz * 1e6; us > r.p99us {
				r.p99us, r.latSamples = us, int(w.Requests)
			}
		}
		var pause float64
		for j := range v.s.Ctl.Reports {
			rs := &v.s.Ctl.Reports[j]
			replaces = append(replaces, rs)
			pause += rs.PauseSeconds * 1e3
		}
		r.pauseMS = max(r.pauseMS, pause)
		st.Add(p.Stats().Sub(st0[i]))
		sb := p.SuperblockStats()
		formed += sb.Formed - sb0[i].Formed
		invalid += sb.Invalidated - sb0[i].Invalidated
		superInsts += sb.Insts - sb0[i].Insts
		requests += float64(v.s.Driver.Completed() - req0[i])
		r.layers["profile.reopts"] += float64(v.s.Reopts())
		if ps, err := mgr.ProfileStatus(v.s.Name, 0); err == nil {
			ingested += float64(ps.Samples) + float64(ps.Dropped)
			records += float64(ps.Records)
		}

		dg.window(before[i])
		dg.window(after[i])
		dg.stats(p.Stats())
		dg.word(v.s.Driver.Completed(), v.s.Ctl.StateHash(), uint64(v.s.State()),
			uint64(v.s.Ctl.Version()), uint64(v.s.Reopts()))
		for _, rs := range replaces[len(replaces)-len(v.s.Ctl.Reports):] {
			dg.replace(rs)
		}
	}
	r.insts = st.Instructions
	r.digest = dg.sum()

	l := r.layers
	l["proc.insts"] = float64(st.Instructions)
	l["proc.superblock_frac"] = ratio(float64(superInsts), float64(st.Instructions))
	l["proc.superblocks_formed"] = float64(formed)
	l["proc.superblocks_invalidated"] = float64(invalid)
	cpuLayer(l, "c0", c0)
	cpuLayer(l, "opt", opt)
	// The perf layer streams into each service's profile store.
	l["perf.samples"] = ingested
	l["perf.branches"] = records
	stage := familySums(metrics, "core_stage_seconds")
	l["perf.profile_s"] = stage["profile"]
	l["bolt.perf2bolt_s"] = stage["perf2bolt"]
	l["bolt.optimize_s"] = stage["bolt"]
	coreLayer(l, replaces)
	for _, rs := range replaces {
		l["core.replace_s"] += rs.HostSeconds
	}
	l["layout.hits"] = float64(cs.Hits)
	l["layout.misses"] = float64(cs.Misses)
	l["layout.coalesced"] = float64(cs.Coalesced)
	l["layout.hit_rate"] = cs.HitRate()
	l["fleet.scan_s"] = scanS
	l["fleet.wave_s"] = waveS
	l["fleet.reopt_wave_s"] = reoptS
	l["fleet.pause_wait_s"] = familySums(metrics, "fleet_pause_wait_seconds")[""]
	l["fleet.peak_pauses"] = float64(mgr.PeakPauses())
	l["fleet.retries"] = familySums(metrics, "fleet_retries_total")["*"]
	for _, s := range report.Services {
		switch s.State {
		case fleet.Failed:
			l["fleet.failed"]++
		case fleet.Quarantined:
			l["fleet.quarantined"]++
		}
	}
	l["profile.drift_selected"] = float64(selected)
	l["profile.drift_score"] = maxScore
	l["profile.samples_ingested"] = ingested
	l["wl.requests"] = requests
	return r
}

// checkState counts a lifecycle that ended Failed or Quarantined.
func checkState(r *rep, wave string, s *fleet.Service) {
	switch st := s.State(); st {
	case fleet.Failed, fleet.Quarantined:
		r.fail("%s: %s ended %s: %v", wave, s.Name, st, s.Err())
	}
}

// familySums sums the series of one telemetry family by their first
// label value ("" for an unlabeled series); key "*" holds the total. A
// histogram series contributes its sum.
func familySums(reg *telemetry.Registry, name string) map[string]float64 {
	out := map[string]float64{}
	for _, p := range reg.Snapshot() {
		if p.Name != name {
			continue
		}
		key := ""
		if len(p.Labels) > 0 {
			key = p.Labels[0].Value
		}
		out[key] += p.Value
		out["*"] += p.Value
	}
	return out
}
