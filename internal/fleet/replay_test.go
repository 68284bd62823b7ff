package fleet

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/workloads/sqldb"
)

// TestFleetQuarantineReplayRoundTrip records a full quarantine wave —
// tracee faults, retries, jittered backoff, clock reads, rollbacks —
// then re-executes it from the serialized journal with NO live fault
// hook. The replayed wave must reach the same terminal state, version,
// and rollback count, verify every state-hash checkpoint, and re-record
// a byte-identical journal.
func TestFleetQuarantineReplayRoundTrip(t *testing.T) {
	boom := errors.New("injected tracee fault")
	rec := recordQuarantine(t, "svc")
	m := quarantineManager(t, 1, telemetry.NewRegistry(), rec)
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
		t.Fatalf("recorded wave ended %s, want Quarantined (err: %v)", got, s.Err())
	}
	if err := rec.Finish(); err != nil {
		t.Fatalf("recording incomplete: %v", err)
	}
	var recorded bytes.Buffer
	if err := rec.WriteJSONL(&recorded); err != nil {
		t.Fatal(err)
	}

	// Round-trip through the serialized form, exactly like a shipped
	// artifact: the journal is the only carrier of the fault decisions.
	events, err := replay.Load(bytes.NewReader(recorded.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := replay.NewReplayer(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Meta(quarantineMeta("svc")...); err != nil {
		t.Fatal(err)
	}
	reg2 := telemetry.NewRegistry()
	m2 := quarantineManager(t, 1, reg2, sess)
	s2 := addSQLService(t, m2, "svc", nil) // no live hook: journal alone
	if _, err := m2.Run(); err != nil {
		t.Fatalf("replayed wave: %v", err)
	}
	if err := sess.Finish(); err != nil {
		t.Fatalf("replay diverged: %v", err)
	}

	if s2.State() != s.State() {
		t.Errorf("replayed wave ended %s, recorded %s", s2.State(), s.State())
	}
	if s2.Ctl.Version() != s.Ctl.Version() {
		t.Errorf("replayed version %d, recorded %d", s2.Ctl.Version(), s.Ctl.Version())
	}
	if s2.Rollbacks() != s.Rollbacks() {
		t.Errorf("replayed rollbacks %d, recorded %d", s2.Rollbacks(), s.Rollbacks())
	}
	if v := reg2.Counter("fleet_quarantines_total").Value(); v != 1 {
		t.Errorf("replayed fleet_quarantines_total = %v, want 1", v)
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

// retrySchedule drives one wave whose Building stage fails twice, and
// returns the backoff waits the manager actually slept.
func retrySchedule(t *testing.T, seed int64) []time.Duration {
	t.Helper()
	clock := &sleepRecorder{}
	attempts := 0
	db, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{
		Workers: 1,
		Robustness: RobustnessConfig{
			MaxRounds:    1,
			MaxRetries:   2,
			RetryBackoff: 4 * time.Millisecond,
		},
		JitterSeed: seed,
		Clock:      clock,
		SkipGate:   true,
		Timing:     TimingConfig{ProfileDur: 0.0004, Warm: 0.00015, Window: 0.0002},
		FaultHook: func(s *Service, stage State) error {
			if stage != Building {
				return nil
			}
			attempts++
			if attempts <= 2 {
				return errors.New("transient build fault")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
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
	if got := s.State(); got != Steady {
		t.Fatalf("ended %s, want Steady after retries: %v", got, s.Err())
	}
	return clock.Sleeps()
}

// TestSeededJitterDeterministic: retry backoff jitter comes from a
// seeded source, so the same seed yields the same backoff schedule and
// a different seed a different one — reproducible without ever being
// synchronized fleet-wide.
func TestSeededJitterDeterministic(t *testing.T) {
	a := retrySchedule(t, 7)
	b := retrySchedule(t, 7)
	c := retrySchedule(t, 8)
	if len(a) != 2 {
		t.Fatalf("expected 2 backoff waits, got %v", a)
	}
	want := backoffWaits(7, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("same seed diverged: %v vs %v", a, b)
		}
		// The jittered share is strictly added to the doubling base, and
		// is exactly the seed's next draw.
		base := 4 * time.Millisecond << i
		if a[i] < base {
			t.Errorf("wait %v below the doubling base %v", a[i], base)
		}
		if a[i] != want[i] {
			t.Errorf("wait %d = %v, want %v from seed 7", i, a[i], want[i])
		}
	}
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Errorf("different seeds produced the same schedule: %v", a)
	}

	// The raw source is itself deterministic per seed.
	j1, j2 := seededJitter(41), seededJitter(41)
	for i := 0; i < 8; i++ {
		if v1, v2 := j1(), j2(); v1 != v2 {
			t.Fatalf("seeded jitter draw %d diverged: %v vs %v", i, v1, v2)
		}
	}
}
