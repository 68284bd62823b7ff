package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cpu"
)

// rep is what one repetition of a workload's timed phase yields.
type rep struct {
	// Simulated results: identical on every rep of one seed.
	speedup    float64
	p50us      float64
	p99us      float64
	latSamples int
	pauseMS    float64
	insts      uint64
	digest     uint64

	// Host-time results, filled in by the run loop.
	wallS, cpuS, simS, simCPU float64

	attempted, failed int
	failures          []string
	// detail is a free-form report printed with the results.
	detail string
	// layers holds the per-layer metrics by name.
	layers map[string]float64
}

func newRep() *rep { return &rep{layers: map[string]float64{}} }

func (r *rep) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// digest folds every simulated number of a rep into one FNV-1a hash, so
// a change that should leave the simulated machine untouched can show
// that it did.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) word(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			d.h ^= v >> (8 * i) & 0xFF
			d.h *= 1099511628211
		}
	}
}

func (d *digest) float(vs ...float64) {
	for _, v := range vs {
		d.word(math.Float64bits(v))
	}
}

func (d *digest) stats(s cpu.Stats) {
	d.word(s.Instructions, s.L1iMisses, s.ITLBMisses, s.L2TLBMisses, s.L1dMisses,
		s.MemAccesses, s.CondBranches, s.TakenBranches, s.Mispredicts, s.BTBMisses)
	d.float(s.Cycles, s.RetireCycles, s.FEStallCycles, s.BadSpecCycles, s.BEStallCycles)
}

func (d *digest) window(w window) {
	d.word(w.ws.Requests)
	d.float(w.ws.Seconds, w.ws.Throughput, w.ws.P50, w.ws.P95, w.ws.P99)
	d.stats(w.stats)
}

// replace folds in a round's simulated replacement record (HostSeconds
// is host time and stays out).
func (d *digest) replace(rs *core.ReplaceStats) {
	d.word(uint64(rs.Version), rs.BytesInjected, rs.BytesCopied, rs.BytesFreed,
		uint64(rs.VTableSlotsPatched), uint64(rs.CallSitesPatched),
		uint64(rs.TrampolinesWritten), uint64(rs.FuncsOnStack),
		uint64(rs.StackFuncsCopied), uint64(rs.RetAddrsUpdated),
		uint64(rs.ThreadPCsUpdated), uint64(rs.OSRFramesMapped), uint64(rs.OSRFallbacks))
	d.float(rs.PauseSeconds)
}

func (d *digest) sum() uint64 { return d.h }
