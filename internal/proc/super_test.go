package proc

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/build"
	"repro/internal/isa"
	"repro/internal/mem"
)

// hotLoopProgram builds a loop that runs far past the trace-formation
// threshold: sum += (i&1023) < 700 ? 3 : 5 over 4000 iterations. The
// inner conditional is biased but flips direction every few hundred
// iterations, so a formed trace takes planned-direction iterations and
// side exits on the minority direction.
func hotLoopProgram() *build.ProgramBuilder {
	p := build.NewProgram("hotloop")
	p.Global("sum", 8)
	f := p.Func("main")
	f.MovI(isa.R1, 0) // i
	f.MovI(isa.R2, 0) // sum
	f.While(func() { f.CmpI(isa.R1, 4000) }, isa.LT, func() {
		f.AndI(isa.R3, isa.R1, 1023)
		f.CmpI(isa.R3, 700)
		f.If(isa.LT, func() { f.AddI(isa.R2, isa.R2, 3) }, func() { f.AddI(isa.R2, isa.R2, 5) })
		f.AddI(isa.R1, isa.R1, 1)
	})
	f.LoadGlobalAddr(isa.R3, "sum")
	f.St(isa.R3, 0, isa.R2)
	f.Halt()
	p.SetEntry("main")
	return p
}

// stepRun runs a single-threaded process to completion on the Step
// reference interpreter and returns the instructions it executed.
func stepRun(t *testing.T, pr *Process) uint64 {
	t.Helper()
	var n uint64
	for pr.Step(pr.Threads[0]) {
		n++
	}
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	if rs := pr.SuperblockStats(); rs != (SuperblockStats{}) {
		t.Fatalf("Step reference touched the trace cache: %+v", rs)
	}
	return n
}

// TestSuperblockFormationAndSideExits: the hot loop forms traces,
// retires instructions inside them, side exits when the biased branch
// flips, and produces exactly the architectural result, instruction
// count and cycle accounting of the Step reference.
func TestSuperblockFormationAndSideExits(t *testing.T) {
	p := hotLoopProgram()
	bin := assembleOrDie(t, p)

	pr := loadOrDie(t, bin, Options{})
	n := pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	sb := pr.SuperblockStats()
	if sb.Formed == 0 || sb.Insts == 0 {
		t.Fatalf("trace engine idle on a hot loop: %+v", sb)
	}

	ref := loadOrDie(t, bin, Options{})
	if refN := stepRun(t, ref); n != refN {
		t.Errorf("engine executed %d instructions, Step %d", n, refN)
	}

	syms := asm.DataSymbols(mustProg(t, p), asm.Options{})
	const want = 2800*3 + 1200*5
	if got := pr.Mem.ReadWord(syms["sum"]); got != want {
		t.Errorf("engine sum = %d, want %d", got, want)
	}
	if got := ref.Mem.ReadWord(syms["sum"]); got != want {
		t.Errorf("Step sum = %d, want %d", got, want)
	}
	if a, b := pr.Stats(), ref.Stats(); a != b {
		t.Errorf("cycle accounting diverged:\nengine: %+v\nStep:   %+v", a, b)
	}
}

// TestSuperblockSelfModifyingStore: a store executed from inside a
// superblock into one of the trace's own code pages must invalidate the
// trace and take effect at the next instruction boundary — exactly where
// the Step reference would first see the new bytes. The loop patches the
// immediate of a callee's MOVI every iteration (same value before
// iteration 500, a new one after) and then calls it, so any engine that
// keeps executing a stale decoded trace past the store is caught by the
// architectural sum, and any accounting drift by the stats comparison.
func TestSuperblockSelfModifyingStore(t *testing.T) {
	p := build.NewProgram("smcsuper")
	p.Global("sum", 8)
	m := p.Func("main")
	m.FuncPtr(isa.R6, "victim")
	m.AddI(isa.R7, isa.R6, 8) // imm word of victim's MOVI
	m.MovI(isa.R8, 500)
	m.MovI(isa.R1, 0) // i
	m.MovI(isa.R2, 0) // sum
	m.While(func() { m.CmpI(isa.R1, 800) }, isa.LT, func() {
		m.Div(isa.R9, isa.R1, isa.R8) // 0 while i < 500, then 1
		m.MulI(isa.R9, isa.R9, 111)
		m.AddI(isa.R9, isa.R9, 111) // 111 or 222
		m.St(isa.R7, 0, isa.R9)     // patch the callee's immediate
		m.Call("victim")            // must observe the patched bytes
		m.Add(isa.R2, isa.R2, isa.R5)
		m.AddI(isa.R1, isa.R1, 1)
	})
	m.LoadGlobalAddr(isa.R3, "sum")
	m.St(isa.R3, 0, isa.R2)
	m.Halt()
	// Push victim onto its own page so formed traces span two code pages
	// and the write watch must track multi-page constituents.
	pad := p.Func("pad")
	pad.PadCode(mem.PageSize / isa.InstBytes)
	pad.Ret()
	v := p.Func("victim")
	v.MovI(isa.R5, 111)
	v.Ret()
	p.SetEntry("main")
	bin := assembleOrDie(t, p)

	pr := loadOrDie(t, bin, Options{})
	n := pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	syms := asm.DataSymbols(mustProg(t, p), asm.Options{})
	const want = 500*111 + 300*222
	if got := pr.Mem.ReadWord(syms["sum"]); got != want {
		t.Errorf("sum = %d, want %d (stale decoded trace survived a store?)", got, want)
	}
	sb := pr.SuperblockStats()
	if sb.Formed == 0 {
		t.Fatalf("no traces formed on a hot self-patching loop: %+v", sb)
	}
	if sb.Invalidated == 0 {
		t.Errorf("stores into trace pages never invalidated a trace: %+v", sb)
	}

	ref := loadOrDie(t, bin, Options{})
	if refN := stepRun(t, ref); n != refN {
		t.Errorf("engine executed %d instructions, Step %d", n, refN)
	}
	if got := ref.Mem.ReadWord(syms["sum"]); got != want {
		t.Errorf("Step sum = %d, want %d", got, want)
	}
	if a, b := pr.Stats(), ref.Stats(); a != b {
		t.Errorf("cycle accounting diverged:\nengine: %+v\nStep:   %+v", a, b)
	}
}

// TestRunUntilHaltNeverOvershoots: the maxInst cap is exact. Each pick's
// budget must be clamped to the remaining allowance; the historical bug
// handed every thread a full quantum and only compared totals between
// rounds, overshooting by up to Quantum-1 (times threads) instructions.
func TestRunUntilHaltNeverOvershoots(t *testing.T) {
	prog := func() *build.ProgramBuilder {
		p := build.NewProgram("spin")
		f := p.Func("main")
		// R1 (the counter) is deliberately not initialized: registers
		// start at zero, and the sliced-run case below shortens the spin
		// by presetting it before the first quantum.
		f.While(func() { f.CmpI(isa.R1, 1<<40) }, isa.LT, func() {
			f.AddI(isa.R1, isa.R1, 1)
		})
		f.Halt()
		p.SetEntry("main")
		return p
	}
	bin := assembleOrDie(t, prog())

	for _, threads := range []int{1, 3} {
		for _, max := range []uint64{1, 100, Quantum - 1, Quantum, Quantum + 1, 1000, 12345} {
			pr := loadOrDie(t, bin, Options{Threads: threads})
			if n := pr.RunUntilHalt(max); n != max {
				t.Errorf("threads=%d maxInst=%d: executed %d", threads, max, n)
			}
			if got := pr.Stats().Instructions; got != max {
				t.Errorf("threads=%d maxInst=%d: retired %d", threads, max, got)
			}
		}
	}

	// Running in odd-sized slices must reach the same final state as one
	// uncapped run: the cap changes scheduling, not semantics.
	sliced := loadOrDie(t, bin, Options{})
	sliced.Threads[0].Regs[isa.R1] = 1<<40 - 300 // shorten the spin
	var total uint64
	for !sliced.Halted() {
		total += sliced.RunUntilHalt(97)
	}
	oneShot := loadOrDie(t, bin, Options{})
	oneShot.Threads[0].Regs[isa.R1] = 1<<40 - 300
	if n := oneShot.RunUntilHalt(0); n != total {
		t.Errorf("sliced run executed %d instructions, one-shot %d", total, n)
	}
	if a, b := sliced.Stats(), oneShot.Stats(); a != b {
		t.Errorf("sliced vs one-shot stats diverged:\n%+v\n%+v", a, b)
	}
}
