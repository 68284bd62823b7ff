package fleet

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/workloads/wl"
)

// State is a service's position in the optimization lifecycle.
type State int

const (
	// Idle: adopted, not yet driven.
	Idle State = iota
	// Profiling: recording LBR samples from the live process (step 1).
	Profiling
	// Building: perf2bolt + BOLT running in the background (step 2).
	Building
	// Replacing: stop-the-world code replacement (steps 3-6).
	Replacing
	// Measuring: settling and measuring the new steady state.
	Measuring
	// Steady: resting — converged (or skipped by the scan gate) and
	// serving on its best code version. Terminal for a wave, but not
	// forever: a drift scan that finds the live profile has diverged
	// from the layout's build profile re-enters the loop at Profiling.
	Steady
	// Reverted: terminal — restored to C0, either by the regression
	// guard or as fault cleanup.
	Reverted
	// Failed: terminal — a stage fault persisted through retries and no
	// revert was possible.
	Failed
	// Quarantined: terminal — the replace-rollback circuit breaker
	// tripped: Config.QuarantineAfter consecutive transactional rollbacks
	// mean something is persistently wrong with replacement on this
	// service. It is pinned at its last good code version (each rollback
	// left target and controller exactly as they were) and excluded from
	// further optimization.
	Quarantined
)

func (s State) String() string {
	switch s {
	case Idle:
		return "Idle"
	case Profiling:
		return "Profiling"
	case Building:
		return "Building"
	case Replacing:
		return "Replacing"
	case Measuring:
		return "Measuring"
	case Steady:
		return "Steady"
	case Reverted:
		return "Reverted"
	case Failed:
		return "Failed"
	case Quarantined:
		return "Quarantined"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Terminal reports whether the state ends a service's lifecycle.
func (s State) Terminal() bool {
	return s == Steady || s == Reverted || s == Failed || s == Quarantined
}

// legalNext enumerates the lifecycle edges. Faults may jump any active
// stage to Reverted/Failed; Measuring closes the round loop back to
// Profiling; Steady → Profiling is the drift re-entry edge (guarded by
// the profile.ReoptPolicy hysteresis, never taken spontaneously).
var legalNext = map[State][]State{
	Idle:        {Profiling, Steady},
	Profiling:   {Building, Reverted, Failed},
	Building:    {Replacing, Reverted, Failed},
	Replacing:   {Measuring, Reverted, Failed, Quarantined},
	Measuring:   {Profiling, Steady, Reverted, Failed},
	Steady:      {Profiling},
	Reverted:    {},
	Failed:      {},
	Quarantined: {},
}

// CanTransition reports whether from → to is a legal lifecycle edge.
func CanTransition(from, to State) bool {
	for _, n := range legalNext[from] {
		if n == to {
			return true
		}
	}
	return false
}

// transition moves the service to the next state, enforcing the edge
// set. The manager's drive loop only ever requests legal edges; an
// illegal request is a bug, reported as an error for tests to assert
// on and recorded so the service is never silently wedged.
func (s *Service) transition(to State) error {
	// Read the clock before taking the lock: a record/replay clock
	// journals the read and must never nest inside s.mu.
	stamp := s.now()
	s.mu.Lock()
	if !CanTransition(s.state, to) {
		err := fmt.Errorf("fleet: %s: illegal transition %s → %s", s.Name, s.state, to)
		s.lastErr = err
		s.mu.Unlock()
		return err
	}
	from := s.state
	s.state = to
	s.updatedAt = stamp
	root := s.root
	s.mu.Unlock()
	// Journal the edge outside the lock: event emission takes the
	// tracer's own locks and must never nest inside s.mu.
	root.Event(trace.EvTransition,
		trace.String("from", from.String()), trace.String("to", to.String()))
	if to.Terminal() {
		root.End(nil)
	}
	return nil
}

// RoundResult records one completed optimization round of one service.
type RoundResult struct {
	Version      int     `json:"version"`       // code version live after the round
	Throughput   float64 `json:"throughput"`    // post-round steady-state req/s
	Speedup      float64 `json:"speedup"`       // vs the service's pre-optimization baseline
	Gain         float64 `json:"gain"`          // vs the previous round's throughput
	PauseSeconds float64 `json:"pause_seconds"` // simulated stop-the-world time of the round
	P95Latency   float64 `json:"p95_latency"`   // post-round p95 request latency, cycles
	// OSRFramesMapped/OSRFallbacks report how the round migrated parked
	// stack frames: transferred in place between layouts vs left to
	// drain through a stack-live copy.
	OSRFramesMapped int `json:"osr_frames_mapped,omitempty"`
	OSRFallbacks    int `json:"osr_fallbacks,omitempty"`
}

// counter bumps an unlabeled fleet counter (the registry is a nil-safe
// sink when metrics are discarded).
func (m *Manager) counter(name string) {
	m.cfg.Metrics.Counter(name).Inc()
}

// stageCounter bumps a per-stage fleet counter vector.
func (m *Manager) stageCounter(name string, stage State) {
	m.cfg.Metrics.CounterVec(name, "stage").With(stage.String()).Inc()
}

// attempt runs one stage try: the injected fault hook first (tests
// force failures per stage with it), then the real work. Injected
// faults are journaled so chaos runs show up in the trace. The fault
// decision routes through the replay session, so a recorded wave's
// stage faults are re-injected from the journal alone on replay.
func (m *Manager) attempt(s *Service, stage State, fn func() error) error {
	err := m.cfg.Replay.Fault("fleet.stage",
		trace.Attrs{trace.String("service", s.Name), trace.String("stage", stage.String())},
		func() error {
			if h := m.cfg.FaultHook; h != nil {
				return h(s, stage)
			}
			return nil
		})
	if err != nil {
		s.rootSpan().EventErr(trace.EvFaultInjected, err,
			trace.String("stage", stage.String()))
		return err
	}
	return fn()
}

// withRetry drives one stage to success or exhaustion: up to
// 1+MaxRetries attempts with exponential host-time backoff between
// them. Each wait is the doubling base plus a jittered share drawn from
// the manager's seeded source (same seed ⇒ same schedule), so
// fleet-wide retries don't synchronize. Every failed attempt is
// recorded on the service, counted, and journaled; every backoff wait
// is journaled with its duration.
func (m *Manager) withRetry(s *Service, stage State, fn func() error) error {
	backoff := m.cfg.Robustness.RetryBackoff
	for att := 0; ; att++ {
		err := m.attempt(s, stage, fn)
		if err == nil {
			return nil
		}
		s.mu.Lock()
		s.lastErr = fmt.Errorf("fleet: %s: %s: %w", s.Name, stage, err)
		s.mu.Unlock()
		m.stageCounter("fleet_stage_errors_total", stage)
		if att >= m.cfg.Robustness.MaxRetries {
			return err
		}
		s.mu.Lock()
		s.retries++
		s.mu.Unlock()
		root := s.rootSpan()
		root.EventErr(trace.EvRetry, err,
			trace.String("stage", stage.String()), trace.Int("attempt", att+1))
		m.stageCounter("fleet_retries_total", stage)
		wait := backoff + time.Duration(float64(backoff)*backoffJitterFrac*m.jitter())
		root.Event(trace.EvBackoff,
			trace.String("stage", stage.String()),
			trace.Float("seconds", wait.Seconds()))
		m.clock.Sleep(wait)
		backoff *= 2
	}
}

// drive runs one service's whole lifecycle: baseline, then optimization
// rounds until convergence, the round cap, a regression revert, or a
// persistent fault. It always leaves the service in a terminal state.
func (m *Manager) drive(s *Service) {
	// A drift re-entry starts from Steady: count it, start the cooldown
	// clock, and re-baseline below against the now-stale layout's
	// throughput — the round's speedup then measures what re-converging
	// recovered.
	if s.State() == Steady {
		s.mu.Lock()
		s.reopts++
		s.mu.Unlock()
		if s.tracker != nil && s.store != nil {
			s.tracker.MarkReopt(s.store.Now())
		}
	}
	// Baseline steady state before any optimization.
	s.Proc.RunFor(m.cfg.Timing.Warm)
	base := wl.MeasureStats(s.Proc, s.Driver, m.cfg.Timing.Window)
	s.mu.Lock()
	s.baseline = base
	prior := len(s.rounds)
	s.mu.Unlock()

	prev := base.Throughput
	for round := 1; ; round++ {
		if s.transition(Profiling) != nil {
			return
		}
		rsp := s.Ctl.StartRound(prior + round)
		var raw *perf.RawProfile
		if err := m.withRetry(s, Profiling, func() error {
			raw = s.Ctl.Profile(m.cfg.Timing.ProfileDur)
			return nil
		}); err != nil {
			s.Ctl.EndRound(err)
			m.cleanupFault(s)
			return
		}

		if err := s.transition(Building); err != nil {
			s.Ctl.EndRound(err)
			return
		}
		var build *core.BuildStats
		if err := m.withRetry(s, Building, func() error {
			b, err := s.Ctl.BuildOptimized(raw)
			if err == nil {
				build = b
			}
			return err
		}); err != nil {
			s.Ctl.EndRound(err)
			m.cleanupFault(s)
			return
		}

		if err := s.transition(Replacing); err != nil {
			s.Ctl.EndRound(err)
			return
		}
		var rs *core.ReplaceStats
		if err := m.withRetry(s, Replacing, func() error {
			m.acquirePause()
			defer m.releasePause()
			r, err := s.Ctl.Replace(build.Result.Binary)
			if err != nil {
				// The transaction rolled the target back to the last good
				// version; record the strike for the quarantine breaker.
				s.mu.Lock()
				s.rollbacks++
				s.mu.Unlock()
				return err
			}
			s.mu.Lock()
			s.rollbacks = 0
			s.mu.Unlock()
			rs = r
			// A new layout is live: older streamed samples profiled code
			// addresses that no longer exist, and that includes the profile
			// the layout was just built from — its addresses are the *old*
			// layout's. Drop both; the drift baseline is re-established from
			// the post-replace stream once the service settles into Steady.
			if s.store != nil {
				s.store.Epoch()
			}
			if s.tracker != nil {
				s.tracker.Clear()
			}
			return nil
		}); err != nil {
			s.Ctl.EndRound(err)
			// A replace fault is recoverable by design (the rollback left
			// target and controller intact), so retries already happened
			// above. If the strikes show replacement itself is what keeps
			// failing, quarantine: pin the service where it is instead of
			// tearing down a known-good version. Otherwise (the fault never
			// reached Replace — e.g. an injected stage fault) fall back to
			// revert-or-fail cleanup.
			if s.Rollbacks() >= m.cfg.Robustness.QuarantineAfter {
				m.quarantine(s)
				return
			}
			m.cleanupFault(s)
			return
		}

		if err := s.transition(Measuring); err != nil {
			s.Ctl.EndRound(err)
			return
		}
		msp := m.cfg.Tracer.Start(rsp, "measure")
		var win wl.WindowStats
		if err := m.withRetry(s, Measuring, func() error {
			s.Proc.RunFor(m.cfg.Timing.Warm)
			win = wl.MeasureStats(s.Proc, s.Driver, m.cfg.Timing.Window)
			return s.Proc.Fault()
		}); err != nil {
			msp.End(err)
			s.Ctl.EndRound(err)
			m.cleanupFault(s)
			return
		}

		res := RoundResult{
			Version:      s.Ctl.Version(),
			Throughput:   win.Throughput,
			PauseSeconds: rs.PauseSeconds,
			P95Latency:   win.P95,

			OSRFramesMapped: rs.OSRFramesMapped,
			OSRFallbacks:    rs.OSRFallbacks,
		}
		if base.Throughput > 0 {
			res.Speedup = win.Throughput / base.Throughput
		}
		if prev > 0 {
			res.Gain = win.Throughput / prev
		}
		msp.SetAttrs(
			trace.Float("throughput", win.Throughput),
			trace.Float("speedup", res.Speedup),
		)
		msp.End(nil)
		rsp.SetAttrs(trace.Float("speedup", res.Speedup))
		s.Ctl.EndRound(nil)
		stamp := s.now()
		s.mu.Lock()
		s.rounds = append(s.rounds, res)
		s.updatedAt = stamp
		s.mu.Unlock()
		m.counter("fleet_rounds_total")
		if mt := m.cfg.Metrics; mt != nil {
			mt.Histogram("fleet_speedup").Observe(res.Speedup)
			mt.Histogram("fleet_pause_seconds").Observe(rs.PauseSeconds)
		}

		// Regression guard (§VI-C4): cumulative speedup below the bar
		// means the optimized layout is hurting this service — go home
		// to C0 and stop.
		if m.cfg.Robustness.RevertBelow > 0 && res.Speedup < m.cfg.Robustness.RevertBelow {
			m.revert(s)
			return
		}
		// Converged or out of budget: stay on the current version.
		if round >= m.cfg.Robustness.MaxRounds || res.Gain < 1+m.cfg.Robustness.ConvergeGain {
			s.transition(Steady)
			if s.tracker != nil && s.store != nil {
				// The drift baseline is the landed layout's own live window:
				// the same address space every future drift window streams
				// from, so stationary serving scores near zero and a phase
				// turn scores the real divergence. (An empty window — the
				// settle period was too short for the sampler — leaves the
				// tracker baseline-less; the next drift scan installs its
				// live window instead.) Rebase also starts the dwell guard.
				s.tracker.Rebase(profile.Summarize(s.store.Window(m.cfg.Drift.Policy.Window)), s.store.Now())
			}
			m.counter("fleet_steady_total")
			return
		}
		prev = win.Throughput
	}
}

// revert sends the service back to C0 (with retries — Revert faults are
// retried like any stage; the hook stage for injection is Reverted) and
// parks it in Reverted, or in Failed if even the revert cannot land.
func (m *Manager) revert(s *Service) {
	err := m.withRetry(s, Reverted, func() error {
		m.acquirePause()
		defer m.releasePause()
		_, err := s.Ctl.Revert()
		return err
	})
	if err != nil {
		s.transition(Failed)
		m.counter("fleet_failures_total")
		return
	}
	s.transition(Reverted)
	if s.tracker != nil {
		// Back on C0: there is no built layout left to go stale.
		s.tracker.Clear()
	}
	m.counter("fleet_reverts_total")
}

// quarantine parks a service in Quarantined: the replace-rollback
// circuit breaker tripped, so the service keeps serving on its last good
// code version (C0 if no round ever landed) and leaves the optimization
// loop. Unlike Failed, nothing about the service is wedged or suspect —
// every failed round was rolled back transactionally.
func (m *Manager) quarantine(s *Service) {
	s.rootSpan().EventErr(trace.EvQuarantine, s.Err(),
		trace.Int("rollbacks", s.Rollbacks()))
	s.transition(Quarantined)
	m.counter("fleet_quarantines_total")
	m.cfg.Metrics.Gauge("fleet_quarantined").Add(1)
}

// cleanupFault resolves a persistently failed stage: if optimized code
// is live, try to revert to C0 (ending Reverted); otherwise — or if the
// revert itself fails — the service is Failed. Either way it is
// terminal, never wedged.
func (m *Manager) cleanupFault(s *Service) {
	if s.Ctl.Version() > 0 {
		m.revert(s)
		return
	}
	s.transition(Failed)
	m.counter("fleet_failures_total")
}
