package fleet

import (
	"errors"
	"flag"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads/sqldb"
)

// replayFleetJournal points TestReplayFleetJournal at a recorded
// quarantine-wave journal (the artifact a failing test dumps).
var replayFleetJournal = flag.String("replay.fleet.journal", "",
	"path to a recorded fleet quarantine journal to re-execute")

// quarantineMeta is the session-meta identity of a recorded quarantine
// wave: enough for TestReplayFleetJournal to rebuild the fixture.
func quarantineMeta(service string) []trace.Attr {
	return []trace.Attr{
		trace.String("kind", "fleet-quarantine"),
		trace.String("service", service),
	}
}

// recordQuarantine starts a recording session for a quarantine-wave test
// and registers a cleanup that, on failure, dumps the journal to the
// test artifacts directory and logs the one-line replay command.
func recordQuarantine(t *testing.T, service string) *replay.Session {
	t.Helper()
	sess := replay.NewRecorder(0)
	if err := sess.Meta(quarantineMeta(service)...); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		path, err := sess.DumpArtifact("fleet-" + t.Name())
		if err != nil {
			t.Logf("journal dump failed: %v", err)
			return
		}
		t.Logf("repro: go test ./internal/fleet -run TestReplayFleetJournal -args -replay.fleet.journal=%s", path)
	})
	return sess
}

// quarantineManager builds a one-worker-per-service manager tuned for
// fast waves; services are added by the caller with their own core-level
// fault hooks. A non-nil session records (or replays) the whole wave.
func quarantineManager(t *testing.T, workers int, reg *telemetry.Registry, sess *replay.Session) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		Workers: workers,
		Robustness: RobustnessConfig{
			MaxRounds:    2,
			ConvergeGain: -1,
			MaxRetries:   1,
			RetryBackoff: time.Microsecond,
		},
		Clock:    &sleepRecorder{},
		SkipGate: true,
		Timing:   TimingConfig{ProfileDur: 0.0004, Warm: 0.00015, Window: 0.0002},
		Metrics:  reg,
		Replay:   sess,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func addSQLService(t *testing.T, m *Manager, name string, hook func(op string, n int) error) *Service {
	t.Helper()
	db, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.AddService(ServicePlan{
		Name: name, Workload: db, Input: "read_only", Threads: 1,
		Core: core.Options{NoChargePause: true, FaultHook: hook},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Proc.RunFor(0.0002)
	return s
}

// TestTraceeFaultQuarantinesNotFails: a tracee-level fault inside every
// Replace attempt — the transactional-rollback path, not a stage-hook
// fault — must trip the circuit breaker into Quarantined at the old
// version, never Failed, and the process must remain runnable.
func TestTraceeFaultQuarantinesNotFails(t *testing.T) {
	boom := errors.New("injected tracee fault")
	reg := telemetry.NewRegistry()
	m := quarantineManager(t, 1, reg, recordQuarantine(t, "svc"))
	s := addSQLService(t, m, "svc", func(op string, n int) error {
		if n == 5 {
			return boom
		}
		return nil
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}

	if got := s.State(); got != Quarantined {
		t.Fatalf("ended %s, want Quarantined (err: %v)", got, s.Err())
	}
	if v := s.Ctl.Version(); v != 0 {
		t.Errorf("quarantined at version %d, want 0 (last good)", v)
	}
	if !errors.Is(s.Err(), boom) {
		t.Errorf("recorded error %v does not wrap the injected fault", s.Err())
	}
	if got := s.Rollbacks(); got != 2 {
		t.Errorf("rollbacks = %d, want 2 (1+MaxRetries attempts)", got)
	}
	if v := reg.Counter("fleet_quarantines_total").Value(); v != 1 {
		t.Errorf("fleet_quarantines_total = %v, want 1", v)
	}
	if v := reg.Gauge("fleet_quarantined").Value(); v != 1 {
		t.Errorf("fleet_quarantined = %v, want 1", v)
	}
	if v := reg.Counter("fleet_failures_total").Value(); v != 0 {
		t.Errorf("fleet_failures_total = %v, want 0", v)
	}
	if v := reg.Counter("core_txn_rollbacks_total").Value(); v != 2 {
		t.Errorf("core_txn_rollbacks_total = %v, want 2", v)
	}

	// The rolled-back process is not wedged: it keeps serving.
	before := s.Proc.Fault()
	s.Proc.RunFor(0.0003)
	if before != nil || s.Proc.Fault() != nil {
		t.Errorf("process faulted after quarantine: %v", s.Proc.Fault())
	}
	rep := m.Report().Services[0]
	if rep.State != Quarantined || rep.Rollbacks != 2 {
		t.Errorf("report: state %s rollbacks %d", rep.State, rep.Rollbacks)
	}
}

// TestTraceeFaultHealsAfterRetry: a fault that only hits the first
// Replace attempt is absorbed by the retry — the wave ends Steady on an
// optimized version and the strike counter is reset.
func TestTraceeFaultHealsAfterRetry(t *testing.T) {
	boom := errors.New("transient tracee fault")
	reg := telemetry.NewRegistry()
	m := quarantineManager(t, 1, reg, recordQuarantine(t, "svc"))
	attempts := 0
	s := addSQLService(t, m, "svc", func(op string, n int) error {
		if n == 0 {
			attempts++
		}
		if attempts == 1 {
			return boom
		}
		return nil
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.State(); got != Steady {
		t.Fatalf("ended %s, want Steady after retry (err: %v)", got, s.Err())
	}
	if s.Ctl.Version() == 0 {
		t.Error("no optimized version live after healed retry")
	}
	if got := s.Rollbacks(); got != 0 {
		t.Errorf("rollbacks = %d, want 0 after a committed replace", got)
	}
	if v := reg.Counter("fleet_quarantines_total").Value(); v != 0 {
		t.Errorf("fleet_quarantines_total = %v, want 0", v)
	}
}

// TestSecondRoundQuarantinePinsLastGoodVersion: when round 1 commits and
// round 2's replacement keeps rolling back, the breaker must pin the
// service at version 1 — not revert it to C0 and not fail it.
func TestSecondRoundQuarantinePinsLastGoodVersion(t *testing.T) {
	boom := errors.New("round-2 tracee fault")
	reg := telemetry.NewRegistry()
	m := quarantineManager(t, 1, reg, recordQuarantine(t, "svc"))
	var svc *Service
	svc = addSQLService(t, m, "svc", func(op string, n int) error {
		if svc.Ctl.Version() >= 1 {
			return boom
		}
		return nil
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := svc.State(); got != Quarantined {
		t.Fatalf("ended %s, want Quarantined (err: %v)", got, svc.Err())
	}
	if v := svc.Ctl.Version(); v != 1 {
		t.Errorf("pinned at version %d, want 1 (the last good version)", v)
	}
	if len(svc.Rounds()) != 1 {
		t.Errorf("recorded %d rounds, want 1", len(svc.Rounds()))
	}
	if v := reg.Counter("fleet_reverts_total").Value(); v != 0 {
		t.Errorf("quarantine triggered a revert: fleet_reverts_total = %v", v)
	}
	svc.Proc.RunFor(0.0003)
	if err := svc.Proc.Fault(); err != nil {
		t.Errorf("process faulted while serving the pinned version: %v", err)
	}
}

// TestMidWaveFaultIsolation drives a concurrent wave (run under -race in
// CI) where one service's replacements persistently fault at the tracee
// level: that service must quarantine while its neighbors optimize to
// Steady, and no service may end Failed.
func TestMidWaveFaultIsolation(t *testing.T) {
	boom := errors.New("injected tracee fault")
	reg := telemetry.NewRegistry()
	// A concurrent wave is inherently nondeterministic: no recording.
	m := quarantineManager(t, 3, reg, nil)
	var sick atomic.Bool
	sick.Store(true)
	a := addSQLService(t, m, "healthy-a", nil)
	b := addSQLService(t, m, "sick", func(op string, n int) error {
		if sick.Load() && op == "write" {
			return boom
		}
		return nil
	})
	c := addSQLService(t, m, "healthy-c", nil)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}

	for _, s := range []*Service{a, c} {
		if got := s.State(); got != Steady {
			t.Errorf("%s ended %s, want Steady (err: %v)", s.Name, got, s.Err())
		}
		if s.Ctl.Version() == 0 {
			t.Errorf("%s has no optimized version", s.Name)
		}
	}
	if got := b.State(); got != Quarantined {
		t.Errorf("sick service ended %s, want Quarantined (err: %v)", got, b.Err())
	}
	for _, s := range m.Services() {
		if s.State() == Failed {
			t.Errorf("%s wedged in Failed", s.Name)
		}
		if !s.State().Terminal() {
			t.Errorf("%s left non-terminal: %s", s.Name, s.State())
		}
	}
	// All three processes keep serving after the wave.
	sick.Store(false)
	for _, s := range m.Services() {
		s.Proc.RunFor(0.0002)
		if err := s.Proc.Fault(); err != nil {
			t.Errorf("%s faulted post-wave: %v", s.Name, err)
		}
	}
}

// TestReplayFleetJournal re-executes a quarantine-wave journal named on
// the command line — the command a failing quarantine test logs. The
// fixture is rebuilt from the journal's session-meta event and the wave
// runs with no live fault hook: every fault, clock read, jitter draw,
// and state-hash checkpoint comes from (and is verified against) the
// journal alone.
func TestReplayFleetJournal(t *testing.T) {
	if *replayFleetJournal == "" {
		t.Skip("no -replay.fleet.journal given; this test re-executes a shipped repro artifact")
	}
	events, err := replay.LoadFile(*replayFleetJournal)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := replay.MetaOf(events)
	if err != nil {
		t.Fatal(err)
	}
	nameAny, _ := meta.Get("service")
	name, _ := nameAny.(string)
	if name == "" {
		t.Fatal("journal meta has no service name")
	}
	sess, err := replay.NewReplayer(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Meta(quarantineMeta(name)...); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m := quarantineManager(t, 1, reg, sess)
	s := addSQLService(t, m, name, nil)
	if _, err := m.Run(); err != nil {
		t.Fatalf("replayed wave: %v", err)
	}
	if err := sess.Finish(); err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	t.Logf("replayed %s: service %s ended %s at version %d (%d rollbacks)",
		*replayFleetJournal, name, s.State(), s.Ctl.Version(), s.Rollbacks())
}
