package fleet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads/sqldb"
	"repro/internal/workloads/wl"
)

// homogeneousFleet builds n replicas of one sqldb image under a manager
// tuned for fast waves, all sharing one workload build (the "identical
// binaries across the fleet" deployment shape).
func homogeneousFleet(t *testing.T, n int, cfg Config) (*Manager, []*Service) {
	t.Helper()
	db, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Robustness.MaxRounds == 0 {
		cfg.Robustness.MaxRounds = 1
	}
	cfg.SkipGate = true
	cfg.Timing = TimingConfig{ProfileDur: 0.0004, Warm: 0.00015, Window: 0.0002}
	cfg.Robustness.RetryBackoff = time.Microsecond
	cfg.Clock = &sleepRecorder{}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svcs := make([]*Service, 0, n)
	for i := 0; i < n; i++ {
		s, err := m.AddService(ServicePlan{
			Name:     "replica-" + string(rune('a'+i%26)) + string(rune('a'+i/26)),
			Workload: db, Input: "read_only", Threads: 1,
			Core: core.Options{NoChargePause: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Proc.RunFor(0.0002)
		svcs = append(svcs, s)
	}
	return m, svcs
}

// TestHomogeneousWaveHitsCache is the tentpole's payoff: a wave of
// identical replicas performs one BOLT run and serves everyone else
// from the layout cache (hit or single-flight coalesce).
func TestHomogeneousWaveHitsCache(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-service wave in -short mode")
	}
	const n = 16
	reg := telemetry.NewRegistry()
	m, svcs := homogeneousFleet(t, n, Config{Workers: 4, Metrics: reg})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, s := range svcs {
		if st := s.State(); !st.Terminal() || st == Failed {
			t.Errorf("%s ended %s", s.Name, st)
		}
		if v := s.Ctl.Version(); v < 1 {
			t.Errorf("%s still at version %d: cached layout never landed", s.Name, v)
		}
	}
	stats, ok := m.CacheStats()
	if !ok {
		t.Fatal("cache disabled despite default config")
	}
	if stats.Requests() != n {
		t.Errorf("cache requests = %d, want %d (one per replica round)", stats.Requests(), n)
	}
	if stats.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 BOLT run for identical replicas", stats.Misses)
	}
	if hr := stats.HitRate(); hr < 0.9 {
		t.Errorf("hit rate = %.3f, want > 0.9 for a homogeneous fleet", hr)
	}
	if bolts := reg.Counter("core_bolt_invocations_total").Value(); bolts != float64(stats.Misses) {
		t.Errorf("bolt invocations = %v, want %d (one per miss)", bolts, stats.Misses)
	}
	// The shared layout must be applied, not just accounted: replicas on
	// the cached code keep (or improve) their throughput. The Small
	// config over micro windows yields only marginal wins, so this
	// asserts no-regression rather than a speedup floor.
	for name, sp := range m.Report().Speedups() {
		if sp < 0.95 {
			t.Errorf("%s at %.2fx of baseline on the cached layout", name, sp)
		}
	}
}

// TestNoLayoutCacheConfig: Config.Cache.Disable disables the cache
// fleet-wide and CacheStats reports it.
func TestNoLayoutCacheConfig(t *testing.T) {
	m, err := NewManager(Config{Cache: CacheConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	if m.LayoutCache() != nil {
		t.Error("NoLayoutCache still built a cache")
	}
	if _, ok := m.CacheStats(); ok {
		t.Error("CacheStats ok on a cacheless fleet")
	}
}

// TestDeprecatedShimsRemoved pins the deprecation schedule's end state:
// the compatibility shims (Manager.ScanWindow, Service.Throughput,
// FlatConfig) and every fleet knob no caller set are gone, leaving one
// configuration surface: Config, with the empty WaveOptions and a
// drift-only ScanOptions. If someone reintroduces one, this fails until
// the deprecation doc is revisited.
func TestDeprecatedShimsRemoved(t *testing.T) {
	for _, c := range []struct {
		recv   reflect.Type
		method string
	}{
		{reflect.TypeOf(&Manager{}), "ScanWindow"},
		{reflect.TypeOf(&Service{}), "Throughput"},
		{reflect.TypeOf(&Service{}), "Measure"},
	} {
		if _, ok := c.recv.MethodByName(c.method); ok {
			t.Errorf("deprecated shim %s.%s still exists; it was scheduled for removal", c.recv, c.method)
		}
	}
	for _, c := range []struct {
		typ   reflect.Type
		field string
	}{
		{reflect.TypeOf(Config{}), "FlushBuffer"},
		{reflect.TypeOf(Config{}), "Sleep"},
		{reflect.TypeOf(Config{}), "Jitter"},
		{reflect.TypeOf(DriftConfig{}), "StoreCapacity"},
		{reflect.TypeOf(DriftConfig{}), "StoreHalfLife"},
		{reflect.TypeOf(ScanOptions{}), "Window"},
		{reflect.TypeOf(ScanOptions{}), "MinThroughput"},
		{reflect.TypeOf(ScanOptions{}), "ReoptPolicy"},
		{reflect.TypeOf(ScanResult{}), "Throughput"},
		{reflect.TypeOf(WaveOptions{}), "Serial"},
		{reflect.TypeOf(WaveOptions{}), "NoCache"},
		{reflect.TypeOf(WaveOptions{}), "ReoptPolicy"},
		{reflect.TypeOf(Manager{}), "fl"},
		{reflect.TypeOf(Service{}), "emit"},
	} {
		if _, ok := c.typ.FieldByName(c.field); ok {
			t.Errorf("removed field %s.%s still exists", c.typ, c.field)
		}
	}
	// The replacement surface still works: the scan window is
	// Config.Timing.Window, and throughput is measured with wl.Measure.
	m, svcs := homogeneousFleet(t, 2, Config{})
	if via := m.Scan(ScanOptions{}); len(via) != 2 {
		t.Fatalf("Scan lost services: %d", len(via))
	}
	if tp := wl.Measure(svcs[0].Proc, svcs[0].Driver, 0.0004); tp <= 0 {
		t.Errorf("wl.Measure = %v, want > 0", tp)
	}
}

// TestServicesDeterministicOrder: the sharded table still iterates in
// sorted name order wherever the fleet is enumerated.
func TestServicesDeterministicOrder(t *testing.T) {
	db, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zeta", "alpha", "mid", "beta", "omega"} {
		if _, err := m.AddService(ServicePlan{Name: name, Workload: db, Input: "read_only", Threads: 1}); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"alpha", "beta", "mid", "omega", "zeta"}
	svcs := m.Services()
	snap := m.Snapshot()
	if len(svcs) != len(want) || len(snap) != len(want) {
		t.Fatalf("lost services: %d / %d", len(svcs), len(snap))
	}
	for i, name := range want {
		if svcs[i].Name != name {
			t.Errorf("Services()[%d] = %s, want %s", i, svcs[i].Name, name)
		}
		if snap[i].Name != name {
			t.Errorf("Snapshot()[%d] = %s, want %s", i, snap[i].Name, name)
		}
	}
}

// TestInjectedCacheViaCoreOptions: a caller-supplied layout.Cache (here
// the layout.Memory used as a plain dependency) reaches the controller
// through ServicePlan.Core.LayoutCache and is actually consulted.
func TestInjectedCacheViaCoreOptions(t *testing.T) {
	db, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	injected := layout.NewMemory(4, nil)
	m, err := NewManager(Config{
		Cache:      CacheConfig{Layout: injected},
		SkipGate:   true,
		Robustness: RobustnessConfig{MaxRounds: 1},
		Timing:     TimingConfig{ProfileDur: 0.0004, Warm: 0.00015, Window: 0.0002},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.LayoutCache() != layout.Cache(injected) {
		t.Fatal("manager did not adopt the injected cache")
	}
	s, err := m.AddService(ServicePlan{
		Name: "svc", Workload: db, Input: "read_only", Threads: 1,
		Core: core.Options{NoChargePause: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Proc.RunFor(0.0002)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if st := injected.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Errorf("injected cache unused: %+v", st)
	}
}

func cacheWaveMeta() []trace.Attr {
	return []trace.Attr{trace.String("kind", "fleet-cache-wave")}
}

// TestCacheHitWaveReplayRoundTrip records a two-replica wave whose
// second service is served from the layout cache, then re-executes it
// from the serialized journal. Cache decisions are journaled as
// replayable events, so the replayed wave must re-derive the same
// key/outcome sequence, reach the same versions, and re-record a
// byte-identical journal.
func TestCacheHitWaveReplayRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("record/replay wave in -short mode")
	}
	run := func(sess *replay.Session) (*Manager, []*Service) {
		m, svcs := homogeneousFleet(t, 2, Config{Replay: sess})
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m, svcs
	}

	rec := replay.NewRecorder(0)
	if err := rec.Meta(cacheWaveMeta()...); err != nil {
		t.Fatal(err)
	}
	m, svcs := run(rec)
	if stats, _ := m.CacheStats(); stats.Misses != 1 || stats.Hits != 1 {
		t.Fatalf("recorded wave cache stats = %+v, want 1 miss + 1 hit", stats)
	}
	if err := rec.Finish(); err != nil {
		t.Fatalf("recording incomplete: %v", err)
	}
	var recorded bytes.Buffer
	if err := rec.WriteJSONL(&recorded); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(recorded.String(), `"cache_decision"`); n != 2 {
		t.Errorf("journal has %d cache_decision events, want 2", n)
	}

	events, err := replay.Load(bytes.NewReader(recorded.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := replay.NewReplayer(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Meta(cacheWaveMeta()...); err != nil {
		t.Fatal(err)
	}
	m2, svcs2 := run(sess)
	if err := sess.Finish(); err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if stats, _ := m2.CacheStats(); stats.Misses != 1 || stats.Hits != 1 {
		t.Errorf("replayed wave cache stats = %+v, want 1 miss + 1 hit", stats)
	}
	for i := range svcs {
		if svcs2[i].State() != svcs[i].State() || svcs2[i].Ctl.Version() != svcs[i].Ctl.Version() {
			t.Errorf("%s replayed to %s v%d, recorded %s v%d", svcs[i].Name,
				svcs2[i].State(), svcs2[i].Ctl.Version(), svcs[i].State(), svcs[i].Ctl.Version())
		}
	}
	var rerecorded bytes.Buffer
	if err := sess.WriteJSONL(&rerecorded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recorded.Bytes(), rerecorded.Bytes()) {
		t.Errorf("re-recorded journal is not byte-identical (%d vs %d bytes)",
			recorded.Len(), rerecorded.Len())
	}
}
