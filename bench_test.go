// Root-level benchmarks: one per table and figure of the paper's
// evaluation (§VI). Each regenerates its experiment (in Quick mode, so a
// full `go test -bench=.` stays tractable) and reports the headline
// numbers as custom metrics. Run `go run ./cmd/experiments all` for the
// full-scale paper-style output.
package repro_test

import (
	"io"
	"testing"

	"repro/internal/asm"
	"repro/internal/build"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/proc"
)

func quietCfg() experiments.Config {
	return experiments.Config{Quick: true, Out: io.Discard}
}

// runExperiment executes a registered experiment once per iteration.
func runExperiment(b *testing.B, name string) {
	cfg := quietCfg()
	run := experiments.Registry[name]
	if run == nil {
		b.Fatalf("unknown experiment %q", name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// stepProcess builds the interpreter microbenchmark guest: a hot loop of
// ALU work with a call to a tiny leaf, the shape the simulator spends its
// life in. The loop bound is effectively infinite; the harness caps the
// run by instruction count.
func stepProcess(b *testing.B, opts proc.Options) *proc.Process {
	p := build.NewProgram("stepbench")
	leaf := p.Func("leaf")
	leaf.AddI(isa.R4, isa.R4, 3)
	leaf.Ret()
	m := p.Func("main")
	m.Prologue(16)
	m.MovI(isa.R1, 0)
	m.While(func() { m.CmpI(isa.R1, 1<<40) }, isa.LT, func() {
		for i := 0; i < 5; i++ {
			m.AddI(isa.R2, isa.R2, 1)
			m.XorI(isa.R3, isa.R2, 0x5a)
			m.ShlI(isa.R3, isa.R3, 3)
			m.Add(isa.R4, isa.R4, isa.R3)
		}
		m.Call("leaf")
		m.AddI(isa.R1, isa.R1, 1)
	})
	m.Halt()
	p.SetEntry("main")
	bin, err := p.Assemble(asm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pr, err := proc.Load(bin, opts)
	if err != nil {
		b.Fatal(err)
	}
	return pr
}

// BenchmarkStep measures raw interpreter throughput in simulated
// instructions per wall-clock second for both interpreters: "engine" is
// the trace executor the scheduler uses (block-traces plus promoted
// superblocks), and "step" the per-instruction Step reference it is
// pinned to. scripts/bench.sh turns the two into BENCH_proc.json, and
// scripts/ci.sh gates engine over step.
func BenchmarkStep(b *testing.B) {
	b.Run("engine", func(b *testing.B) {
		pr := stepProcess(b, proc.Options{})
		b.ResetTimer()
		n := pr.RunUntilHalt(uint64(b.N))
		if n == 0 || pr.Fault() != nil {
			b.Fatalf("run failed: n=%d fault=%v", n, pr.Fault())
		}
		b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "inst/s")
		if b.N > 10000 && pr.SuperblockStats().Insts == 0 {
			b.Fatal("promoted traces never engaged")
		}
	})
	b.Run("step", func(b *testing.B) {
		pr := stepProcess(b, proc.Options{})
		t := pr.Threads[0]
		b.ResetTimer()
		var n uint64
		for n < uint64(b.N) && pr.Step(t) {
			n++
		}
		if n == 0 || pr.Fault() != nil {
			b.Fatalf("run failed: n=%d fault=%v", n, pr.Fault())
		}
		b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "inst/s")
	})
}

// BenchmarkFig1L1iCapacity regenerates Figure 1 (static data).
func BenchmarkFig1L1iCapacity(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig3InputSensitivity regenerates Figure 3: BOLT's sensitivity
// to the training input, with OCOLOS tracking the best profile.
func BenchmarkFig3InputSensitivity(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig5Throughput regenerates Figure 5, the headline comparison,
// and reports the mean speedups as metrics.
func BenchmarkFig5Throughput(b *testing.B) {
	cfg := quietCfg()
	b.ResetTimer()
	var meanOco, meanBolt float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5Rows(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var so, sb float64
		for _, r := range rows {
			so += r.OCOLOS
			sb += r.BoltOr
		}
		meanOco = so / float64(len(rows))
		meanBolt = sb / float64(len(rows))
	}
	b.ReportMetric(meanOco, "mean-ocolos-speedup")
	b.ReportMetric(meanBolt, "mean-bolt-speedup")
}

// BenchmarkFig6ProfileDuration regenerates Figure 6 (speedup vs profiling
// duration).
func BenchmarkFig6ProfileDuration(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7Timeline regenerates Figure 7 (throughput before/during/
// after code replacement, with tail latency).
func BenchmarkFig7Timeline(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8Microarch regenerates Figure 8 (front-end events per
// kilo-instruction across sqldb inputs).
func BenchmarkFig8Microarch(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9TopDown regenerates Figure 9 (TopDown features classify
// which workloads benefit) and reports the classifier accuracy.
func BenchmarkFig9TopDown(b *testing.B) {
	cfg := quietCfg()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig9Points(cfg)
		if err != nil {
			b.Fatal(err)
		}
		correct := 0
		for _, p := range pts {
			// The controller's simple gate: front-end bound => benefit.
			if (p.FrontEnd > 0.25) == (p.Speedup > 1.05) {
				correct++
			}
		}
		acc = float64(correct) / float64(len(pts))
	}
	b.ReportMetric(acc, "classifier-accuracy")
}

// BenchmarkFig10BAM regenerates Figure 10 (BAM on a from-scratch compiler
// build).
func BenchmarkFig10BAM(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkTableICharacterization regenerates Table I.
func BenchmarkTableICharacterization(b *testing.B) { runExperiment(b, "tab1") }

// BenchmarkTableIIFixedCosts regenerates Table II.
func BenchmarkTableIIFixedCosts(b *testing.B) { runExperiment(b, "tab2") }

// BenchmarkAblations regenerates the §IV-B design-choice ablations.
func BenchmarkAblations(b *testing.B) { runExperiment(b, "ablate") }

// BenchmarkDBIComparison quantifies §I's DBI-vs-OCOLOS cost argument.
func BenchmarkDBIComparison(b *testing.B) { runExperiment(b, "dbi") }

// BenchmarkRecoveryAnalysis regenerates the §VI-C3 a·s/b recovery-time
// analysis.
func BenchmarkRecoveryAnalysis(b *testing.B) { runExperiment(b, "recover") }

// BenchmarkStaggeredRollout regenerates the §IV-D staggered-replacement
// comparison across a load-balanced tier.
func BenchmarkStaggeredRollout(b *testing.B) { runExperiment(b, "stagger") }

// BenchmarkFleetWave regenerates the §V fleet-deployment wave: a mixed
// service tier optimized concurrently under one manager.
func BenchmarkFleetWave(b *testing.B) { runExperiment(b, "fleet") }
