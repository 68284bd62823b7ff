package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workloads/docdb"
	"repro/internal/workloads/kvcache"
	"repro/internal/workloads/sqldb"
	"repro/internal/workloads/wl"
)

// fleetBenchDoc is the BENCH_fleet.json schema: one sharded mixed
// wave's wall time and how much BOLT work the layout cache saved.
type fleetBenchDoc struct {
	Services        int     `json:"services"`
	Workloads       int     `json:"workloads"`
	Workers         int     `json:"workers"`
	Shards          int     `json:"shards"`
	WaveSeconds     float64 `json:"wave_seconds"`
	BoltInvocations float64 `json:"bolt_invocations"`
	CacheHits       uint64  `json:"cache_hits"`
	CacheMisses     uint64  `json:"cache_misses"`
	CacheCoalesced  uint64  `json:"cache_coalesced"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	Terminal        int     `json:"terminal_services"`
	PeakPauses      int     `json:"peak_pauses"`
}

func benchEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		n, err := strconv.Atoi(v)
		if err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestFleetWaveBench is the fleet-scale benchmark behind
// scripts/bench.sh: a mixed-workload wave (replicas of three distinct
// images, so the cache sees both reuse and genuine misses) through the
// sharded manager. scripts/bench.sh runs it without -race so the wave
// time measures the fleet, not the race detector; the CI smoke runs a
// small homogeneous wave under -race. Gated behind FLEET_BENCH_OUT
// because a thousand services is a benchmark, not a unit test;
// FLEET_BENCH_SERVICES scales it down for the CI smoke.
func TestFleetWaveBench(t *testing.T) {
	out := os.Getenv("FLEET_BENCH_OUT")
	if out == "" {
		t.Skip("set FLEET_BENCH_OUT=path to run the fleet wave benchmark")
	}
	services := benchEnvInt("FLEET_BENCH_SERVICES", 1000)
	workers := benchEnvInt("FLEET_BENCH_WORKERS", 8)
	shards := benchEnvInt("FLEET_BENCH_SHARDS", 8)
	// FLEET_BENCH_WORKLOADS=1 makes the fleet homogeneous (the CI
	// cache-hit smoke); the default mixes three distinct images so the
	// cache sees both reuse and genuine misses.
	nWorkloads := benchEnvInt("FLEET_BENCH_WORKLOADS", 3)

	sql, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := docdb.Build(docdb.Small())
	if err != nil {
		t.Fatal(err)
	}
	kv, err := kvcache.Build(kvcache.Small())
	if err != nil {
		t.Fatal(err)
	}
	mix := []struct {
		w     *wl.Workload
		input string
	}{
		{sql, "read_only"},
		{doc, "read_update"},
		{kv, "set10_get90"},
	}
	if nWorkloads < len(mix) {
		mix = mix[:nWorkloads]
	}

	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{
		Workers:  workers,
		Shards:   shards,
		SkipGate: true,
		// Micro simulation windows: the benchmark measures orchestration
		// and cache behavior, not simulated guest time.
		Timing: TimingConfig{ProfileDur: 0.0003, Warm: 0.0001, Window: 0.00015},
		Robustness: RobustnessConfig{
			MaxRounds:    1,
			RetryBackoff: time.Microsecond,
		},
		Clock:   &sleepRecorder{},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < services; i++ {
		wk := mix[i%len(mix)]
		_, err := m.AddService(ServicePlan{
			Name:     fmt.Sprintf("%s/replica-%04d", wk.w.Name, i),
			Workload: wk.w, Input: wk.input, Threads: 1,
			Core: core.Options{NoChargePause: true},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range m.Services() {
		s.Proc.RunFor(0.0001)
	}

	scan := m.Scan(ScanOptions{})
	t0 := time.Now()
	m.Optimize(scan, WaveOptions{})
	wave := time.Since(t0).Seconds()

	terminal := 0
	for _, st := range m.Snapshot() {
		if st.State.Terminal() && st.State != Failed {
			terminal++
		}
	}
	if terminal != services {
		t.Errorf("only %d/%d services reached a clean terminal state", terminal, services)
	}
	stats, ok := m.CacheStats()
	if !ok {
		t.Fatal("layout cache disabled")
	}
	bolts := reg.Counter("core_bolt_invocations_total").Value()
	if bolts >= float64(services)/2 {
		t.Errorf("bolt invocations = %v for %d services: cache not amortizing", bolts, services)
	}
	if stats.HitRate() < 0.9 {
		t.Errorf("cache hit rate = %.3f, want > 0.9 for a replica fleet", stats.HitRate())
	}

	doc2 := fleetBenchDoc{
		Services:        services,
		Workloads:       len(mix),
		Workers:         workers,
		Shards:          shards,
		WaveSeconds:     wave,
		BoltInvocations: bolts,
		CacheHits:       stats.Hits,
		CacheMisses:     stats.Misses,
		CacheCoalesced:  stats.Coalesced,
		CacheHitRate:    stats.HitRate(),
		Terminal:        terminal,
		PeakPauses:      m.PeakPauses(),
	}
	b, err := json.MarshalIndent(doc2, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("fleet wave: %d services in %.2fs, %v BOLT runs, hit rate %.3f",
		services, wave, bolts, stats.HitRate())
}
