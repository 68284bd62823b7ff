package diffcheck

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/proc"
)

// legacyRun replicates the scheduler's quantum loop on top of proc.Step,
// the per-instruction reference interpreter. It is the reference side of
// the cycle-exact equivalence gate.
func legacyRun(p *proc.Process, maxInst uint64) uint64 {
	var executed uint64
	for !p.Paused() && p.Fault() == nil {
		ran := false
		for _, t := range p.Threads {
			if t.Halted {
				continue
			}
			ran = true
			for i := 0; i < proc.Quantum; i++ {
				if !p.Step(t) {
					break
				}
				executed++
			}
		}
		if !ran || (maxInst > 0 && executed >= maxInst) {
			break
		}
	}
	return executed
}

// TestCycleExactEngineEquivalence pins the trace executor — block-traces
// and the promoted superblocks spliced from them — to the Step reference
// interpreter: every workload must retire the same instructions AND
// account the same cycles, to the bit. This is the gate that makes the
// engine a pure wall-clock win — any model drift (an event reordered, a
// stall charged twice, a float added in a different order) shows up as a
// Stats mismatch here. It runs in two modes: the default scheduler
// quantum, and budgets cycling 1..13 per pick, which cut traces at every
// offset and so pin mid-trace budget expiry and resume, including in
// one-block traces and before their SYS and HALT terminators. Each run
// must actually exercise promoted traces (formation plus in-trace
// retirement), so the gate cannot silently pass by never entering them.
func TestCycleExactEngineEquivalence(t *testing.T) {
	for _, tgt := range Targets() {
		tgt := tgt
		t.Run(tgt.Name, func(t *testing.T) {
			t.Parallel()
			run := func(mode string) (cpu.Stats, uint64, proc.SuperblockStats) {
				w, d, err := tgt.load()
				if err != nil {
					t.Fatal(err)
				}
				opts := proc.Options{Threads: 1, Handler: d}
				if mode == "quanta" {
					q := 0
					opts.SchedQuantum = func(_, _ int) int {
						q = q%13 + 1
						return q
					}
				}
				p, err := proc.Load(w.Binary, opts)
				if err != nil {
					t.Fatal(err)
				}
				var n uint64
				if mode == "step" {
					n = legacyRun(p, defaultMaxInst)
				} else {
					n = p.RunUntilHalt(defaultMaxInst)
				}
				if err := p.Fault(); err != nil {
					t.Fatal(err)
				}
				return p.Stats(), n, p.SuperblockStats()
			}
			ref, refN, _ := run("step")
			for _, mode := range []string{"engine", "quanta"} {
				got, gotN, sb := run(mode)
				if gotN != refN {
					t.Errorf("%s run executed %d instructions, reference %d", mode, gotN, refN)
				}
				if got != ref {
					t.Errorf("%s run diverged from reference interpreter:\n"+
						"  golden quad %s: insts=%d cycles=%v L1iMisses=%d mispredicts=%d\n"+
						"  golden quad ref: insts=%d cycles=%v L1iMisses=%d mispredicts=%d\n"+
						"  full %s: %+v\n  full ref: %+v",
						mode,
						mode, got.Instructions, got.Cycles, got.L1iMisses, got.Mispredicts,
						ref.Instructions, ref.Cycles, ref.L1iMisses, ref.Mispredicts,
						mode, got, ref)
				}
				if sb.Formed == 0 || sb.Insts == 0 {
					t.Errorf("%s run never exercised promoted traces on %s: %+v", mode, tgt.Name, sb)
				}
			}
		})
	}
}
