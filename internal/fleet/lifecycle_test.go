package fleet

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/workloads/sqldb"
)

// sleepRecorder is the fleet tests' replay.Clock: it reads the host
// clock but never waits, appending each backoff Sleep duration instead.
// Concurrent waves sleep from several workers, so appends are locked.
type sleepRecorder struct {
	replay.Wall
	mu     sync.Mutex
	sleeps []time.Duration
}

func (c *sleepRecorder) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sleeps = append(c.sleeps, d)
}

// Sleeps returns a copy of the recorded waits, in call order.
func (c *sleepRecorder) Sleeps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}

// backoffWaits is the exact schedule of n retry waits from a 4 ms
// RetryBackoff under the given JitterSeed: each wait is the doubling
// base plus its share of the seed's next jitter draw.
func backoffWaits(seed int64, n int) []time.Duration {
	jitter := seededJitter(seed)
	var waits []time.Duration
	for base := 4 * time.Millisecond; len(waits) < n; base *= 2 {
		waits = append(waits, base+time.Duration(float64(base)*backoffJitterFrac*jitter()))
	}
	return waits
}

func TestTransitionTable(t *testing.T) {
	all := []State{Idle, Profiling, Building, Replacing, Measuring, Steady, Reverted, Failed, Quarantined}
	type edge struct{ from, to State }
	legal := map[edge]bool{
		{Idle, Profiling}:        true,
		{Idle, Steady}:           true,
		{Profiling, Building}:    true,
		{Profiling, Reverted}:    true,
		{Profiling, Failed}:      true,
		{Building, Replacing}:    true,
		{Building, Reverted}:     true,
		{Building, Failed}:       true,
		{Replacing, Measuring}:   true,
		{Replacing, Reverted}:    true,
		{Replacing, Failed}:      true,
		{Replacing, Quarantined}: true, // replace-rollback circuit breaker
		{Measuring, Profiling}:   true, // next optimization round
		{Measuring, Steady}:      true,
		{Measuring, Reverted}:    true,
		{Measuring, Failed}:      true,
		{Steady, Profiling}:      true, // drift-triggered re-optimization
	}
	for _, from := range all {
		for _, to := range all {
			want := legal[edge{from, to}]
			if got := CanTransition(from, to); got != want {
				t.Errorf("CanTransition(%s, %s) = %v, want %v", from, to, got, want)
			}
		}
	}
	for _, s := range all {
		term := s == Steady || s == Reverted || s == Failed || s == Quarantined
		if s.Terminal() != term {
			t.Errorf("%s.Terminal() = %v, want %v", s, s.Terminal(), term)
		}
		if s.String() == "" {
			t.Errorf("state %d has no name", int(s))
		}
	}
	if CanTransition(State(99), Idle) {
		t.Error("unknown state should have no edges")
	}
}

func TestIllegalTransitionRecorded(t *testing.T) {
	s := &Service{Name: "x", state: Idle}
	if err := s.transition(Building); err == nil {
		t.Fatal("Idle → Building accepted")
	}
	if s.State() != Idle {
		t.Errorf("illegal transition moved the state to %s", s.State())
	}
	if s.Err() == nil {
		t.Error("illegal transition not recorded on the service")
	}
	// Steady is terminal for the wave but re-enterable by drift; the other
	// terminal states stay closed.
	s2 := &Service{Name: "y", state: Failed}
	if err := s2.transition(Profiling); err == nil {
		t.Error("terminal state accepted an exit edge")
	}
	s3 := &Service{Name: "z", state: Steady}
	if err := s3.transition(Profiling); err != nil {
		t.Errorf("Steady → Profiling (drift re-entry) rejected: %v", err)
	}
}

// faultFleet stands up a one-service manager over a small sqldb with the
// given fault hook and drives a full wave, returning the service and the
// metrics registry for assertions.
func faultFleet(t *testing.T, maxRounds int, hook func(s *Service, stage State) error) (*Service, *telemetry.Registry) {
	t.Helper()
	db, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{
		Workers: 1,
		Robustness: RobustnessConfig{
			MaxRounds:    maxRounds,
			ConvergeGain: -1, // always run to the round cap
			MaxRetries:   1,
			RetryBackoff: time.Microsecond,
		},
		Clock:     &sleepRecorder{},
		SkipGate:  true,
		Timing:    TimingConfig{ProfileDur: 0.0004, Warm: 0.00015, Window: 0.0002},
		Metrics:   reg,
		FaultHook: hook,
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
	return s, reg
}

func TestInjectedFaults(t *testing.T) {
	boom := errors.New("injected fault")
	cases := []struct {
		name string
		// fail reports whether the hook should fault this attempt.
		fail func(s *Service, stage State) bool
		want State
		// wantRounds is the number of completed rounds recorded.
		wantRounds int
	}{
		// Faults before any replacement leave nothing to undo: Failed.
		{"profiling", func(s *Service, st State) bool { return st == Profiling }, Failed, 0},
		{"building", func(s *Service, st State) bool { return st == Building }, Failed, 0},
		{"replacing", func(s *Service, st State) bool { return st == Replacing }, Failed, 0},
		// A fault after the replacement landed rolls back to C0.
		{"measuring", func(s *Service, st State) bool { return st == Measuring }, Reverted, 0},
		// ... unless the revert itself keeps faulting.
		{"revert", func(s *Service, st State) bool { return st == Measuring || st == Reverted }, Failed, 0},
		// A fault in a later round reverts the earlier rounds' work.
		{"second-round-profiling",
			func(s *Service, st State) bool { return st == Profiling && s.Ctl.Version() >= 1 },
			Reverted, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, reg := faultFleet(t, 2, func(s *Service, stage State) error {
				if tc.fail(s, stage) {
					return boom
				}
				return nil
			})
			if got := s.State(); got != tc.want {
				t.Fatalf("ended %s, want %s", got, tc.want)
			}
			if !s.State().Terminal() {
				t.Error("service wedged in a non-terminal state")
			}
			if s.Err() == nil {
				t.Error("fault not recorded on the service")
			}
			if got := len(s.Rounds()); got != tc.wantRounds {
				t.Errorf("recorded %d rounds, want %d", got, tc.wantRounds)
			}
			wantCounter := "fleet_failures_total"
			if tc.want == Reverted {
				wantCounter = "fleet_reverts_total"
			}
			if v := reg.Counter(wantCounter).Value(); v != 1 {
				t.Errorf("%s = %v, want 1", wantCounter, v)
			}
		})
	}
}

func TestRetryBackoffRecovers(t *testing.T) {
	boom := errors.New("transient build fault")
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
		Clock:    clock,
		SkipGate: true,
		Timing:   TimingConfig{ProfileDur: 0.0004, Warm: 0.00015, Window: 0.0002},
		FaultHook: func(s *Service, stage State) error {
			if stage != Building {
				return nil
			}
			attempts++
			if attempts <= 2 {
				return boom
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
	if len(s.Rounds()) != 1 {
		t.Errorf("recorded %d rounds, want 1", len(s.Rounds()))
	}
	rep := m.Report().Services[0]
	if rep.Retries != 2 {
		t.Errorf("report retries = %d, want 2", rep.Retries)
	}
	// Backoff doubles per attempt, plus the default seed's jitter.
	if sleeps, want := clock.Sleeps(), backoffWaits(1, 2); !reflect.DeepEqual(sleeps, want) {
		t.Errorf("backoff sleeps = %v, want %v", sleeps, want)
	}
}
