package proc

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// The trace executor (see docs/perf.md). Every decoded basic block is a
// one-block trace (block.go) whose terminator always exits. Once a
// block-trace has run superHotThreshold times, the edge counters on the
// block-traces' terminating JCCs (takenCnt/fallCnt — fixed bins on the
// ops themselves, no map lookups on the hot path) pick the likely
// direction of every conditional, and the chain of blocks along that
// path is spliced into one promoted superblock decoded once. Execution
// then stays inside the trace across taken branches; a conditional that
// goes against the plan is a side exit that falls back to the
// block-trace at the actual target. Block-traces and promoted traces run
// on the same executor, execSuper.
//
// Three pre-computations make re-execution O(1) per straight-line run
// instead of O(1) per instruction:
//
//   - fetch points: an op needs a front-end Fetch only at the trace
//     head, after a planned-taken branch, or on a static line crossing.
//     Every other op is proven at build time to sit on the line the core
//     just fetched, where Fetch is a no-op — so the call is skipped.
//     Each fetch point carries a cpu.FetchPlan so the warm case (line
//     live, or demand + prefetch lines in their sets' MRU way) is
//     charged inline via cpu.FetchFast without calling into the model.
//   - pure runs: a maximal streak of event-free ops (ALU, CMP — nothing
//     that touches memory or branches) is charged with one
//     cpu.RetireBulk call, bit-identical to per-op Retire by
//     construction (see internal/cpu/blockacct.go). Runs extend across
//     line crossings: interior warm fetches add only integer state, so
//     deferring the bulk retire past them is exact, and any interior
//     fetch that misses first flushes the retires charged so far so the
//     DRAM model sees the true cycle count.
//   - aggregated front ends: a div-free run whose fetch points are
//     sequential same-page lines gets a cpu.FetchRunPlan; when every
//     line is warm, one cpu.FetchRunFast call charges the whole run's
//     front-end traffic and the op loop touches no model state until
//     the single bulk retire — O(1) model interactions per run.
//
// Everything else — memory ops, branch prediction, DBI taxes, syscalls,
// faults — goes through exactly the per-event calls Step makes, in the
// same order, so cpu.Stats stays cycle-exact against the Step reference
// interpreter (the diffcheck golden gate pins this).
//
// Invalidation: promoted traces may span pages (traces cross page
// boundaries), so every constituent page is registered in superPg and a
// store into any of them invalidates the whole trace. Block-traces sit
// on one page and are registered in superPg the same way. The executor
// re-checks sb.valid after every instruction that can store, so a trace
// overwriting any of its own pages stops at the next instruction
// boundary — exactly where Step would first see the new bytes.

const (
	// superHotThreshold is how many times a block-trace must dispatch
	// before trace formation is attempted from it.
	superHotThreshold = 64
	// superMaxOps bounds the trace length in instructions.
	superMaxOps = 96
	// superMaxBlocks bounds how many blocks one trace may splice.
	superMaxBlocks = 16
)

// sbCont says how execution continues after a control op in a trace when
// the op goes the planned direction.
type sbCont uint8

const (
	contExit sbCont = iota // leave the trace (unplanned or unknowable target)
	contNext               // proceed to the next op in the trace
	contLoop               // planned back edge to the trace head
)

// sbOp is one pre-decoded instruction of a trace: the instruction, its
// PC and fall-through successor, resolved at build time so the executor
// does no address arithmetic on the hot path, plus the trace plan: the
// planned branch target and direction, the continuation kind, the
// precomputed fetch point (with its front-end fingerprint), and the
// length of the pure run starting here that can be charged in one bulk
// retire.
type sbOp struct {
	in      isa.Inst
	pc      uint64
	next    uint64            // fall-through successor
	target  uint64            // planned taken target (control ops)
	pl      cpu.FetchPlan     // warm-path fetch descriptor (fetch points only)
	fe      *cpu.FetchRunPlan // aggregated front-end plan (div-free run heads only)
	run     uint16            // pure ops starting here, executable as one bulk charge
	fetch   bool              // fetch point: a new line is (or may be) entered here
	planned bool              // JCC: the trace assumes taken
	cont    sbCont
	isDiv   bool

	// JCC edge profile, counted on the exit path. Only a block-trace's
	// terminator is ever read (by tryFormSuper).
	takenCnt uint32
	fallCnt  uint32
}

// superblock is a decoded trace. A block-trace (blocks == 0) is one
// basic block, built by buildBlock and keyed by its start PC in
// p.blocks; heat counts its dispatches and hot caches the promoted trace
// headed at it, if one was formed. A promoted trace (blocks > 0) splices
// the ops of several block-traces along the profiled hot path. Either
// kind is registered in superPg under every code page its ops were
// decoded from; a store into any of them invalidates it.
type superblock struct {
	head   uint64
	ops    []sbOp
	valid  bool
	blocks int // block-traces spliced in; 0 for a block-trace

	heat uint32
	hot  *superblock
}

// spliced reports whether sb is a promoted trace rather than a
// block-trace.
func (sb *superblock) spliced() bool { return sb.blocks > 0 }

// SuperblockStats reports trace-engine activity for diagnostics and
// tests. Only promoted traces count; block-traces are the baseline.
type SuperblockStats struct {
	Formed      uint64 // promoted traces built
	Invalidated uint64 // promoted traces dropped by the write watch
	Insts       uint64 // instructions retired inside promoted traces
}

// SuperblockStats returns the current trace-engine counters.
func (p *Process) SuperblockStats() SuperblockStats {
	return SuperblockStats{Formed: p.superFormed, Invalidated: p.superInval, Insts: p.superInsts}
}

// pureOp reports whether op is event-free: no memory traffic, no control
// transfer, no syscall, no hook — only registers and flags. Pure ops in
// a trace are charged in bulk. DIV/MOD qualify (the divider latency
// folds from an integer counter) but carry a fault check at run time.
func pureOp(op isa.Op) bool {
	switch op {
	case isa.NOP, isa.MOVI, isa.MOV, isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD,
		isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR,
		isa.ADDI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI,
		isa.CMP, isa.CMPI:
		return true
	}
	return false
}

// tryFormSuper attempts to build a promoted trace starting at the
// block-trace head and registers it on success. On failure head's heat
// resets so a later, warmer state (successor blocks built, branch
// counters filled in) can retry.
func (p *Process) tryFormSuper(head *superblock) *superblock {
	sb := &superblock{head: head.head, valid: true}
	cur := head
	loop := false
	// Static call stack: a CALL spliced into the trace records its return
	// address, so a matching RET can continue the trace there instead of
	// exiting — with a run-time check that the real return address agrees
	// (see execSuper's RET case).
	var callStack []uint64

walk:
	for cur != nil && sb.blocks < superMaxBlocks && len(sb.ops) < superMaxOps {
		sb.blocks++
		var next uint64
		nextKnown := false // a continuation target was determined
		viaCtrl := false   // ... by a control op (vs page-end fall-through)

		for oi := range cur.ops {
			if len(sb.ops) >= superMaxOps {
				break walk
			}
			op := &cur.ops[oi]
			if op.in.Op == isa.SYS || op.in.Op == isa.HALT {
				// Never spliced: the handler may rewrite anything, and
				// HALT ends the thread. The trace ends just before; the
				// epilogue resumes here, in the block-trace.
				break walk
			}
			so := sbOp{in: op.in, pc: op.pc, next: op.next, target: op.target, isDiv: op.isDiv, cont: contNext}
			switch op.in.Op {
			case isa.JMP:
				so.planned = true
				next, nextKnown, viaCtrl = so.target, true, true
			case isa.CALL:
				so.planned = true
				callStack = append(callStack, op.next)
				next, nextKnown, viaCtrl = so.target, true, true
			case isa.JCC:
				tc, fc := op.takenCnt, op.fallCnt
				if tc == 0 && fc == 0 {
					// No edge profile: both directions side-exit.
					so.cont = contExit
					sb.ops = append(sb.ops, so)
					break walk
				}
				so.planned = tc >= fc
				if so.planned {
					next = so.target
				} else {
					next = op.next
				}
				nextKnown, viaCtrl = true, true
			case isa.RET:
				if len(callStack) == 0 {
					// Returning out of the trace: dynamic target, exit.
					so.cont = contExit
					sb.ops = append(sb.ops, so)
					break walk
				}
				// Call/return folding: this RET matches a CALL spliced
				// earlier, so the trace continues at its return address.
				// The executor side-exits if the guest's stack disagrees.
				so.target = callStack[len(callStack)-1]
				so.planned = true
				callStack = callStack[:len(callStack)-1]
				next, nextKnown, viaCtrl = so.target, true, true
			case isa.CALLR, isa.JTBL:
				// Dynamic target: always a trace exit.
				so.cont = contExit
				sb.ops = append(sb.ops, so)
				break walk
			}
			sb.ops = append(sb.ops, so)
			if nextKnown {
				break // block terminator reached
			}
		}

		if !nextKnown {
			// The block ended without a control op: at the page boundary
			// (fall through into the next page's block) or at a decode
			// error (stop; the fault surfaces via the block-trace).
			last := cur.ops[len(cur.ops)-1]
			if last.next%mem.PageSize != 0 {
				break walk
			}
			next = last.next
		}

		if next == sb.head {
			if viaCtrl {
				sb.ops[len(sb.ops)-1].cont = contLoop
				loop = true
			}
			break walk
		}
		// Revisited blocks are spliced again (bounded by superMaxOps /
		// superMaxBlocks): an inner loop simply unrolls into the trace.
		cur = p.blocks[next] // nil (not yet decoded) ends the walk
	}

	// A trailing control op planned to continue has nothing to continue
	// into: demote it to a side exit.
	if len(sb.ops) > 0 {
		if last := &sb.ops[len(sb.ops)-1]; last.cont == contNext {
			switch last.in.Op {
			case isa.JMP, isa.JCC, isa.CALL, isa.RET:
				last.cont = contExit
			}
		}
	}

	// Only worth it when the trace extends past its head block or loops
	// back to it; otherwise the block-trace already does the same work.
	if len(sb.ops) < 2 || (sb.blocks == 1 && !loop) {
		head.heat = 0
		return nil
	}

	p.planFetchAndRuns(sb)

	seen := make(map[uint64]bool, 2)
	for _, e := range sb.ops {
		pg := e.pc / mem.PageSize
		if !seen[pg] {
			seen[pg] = true
			p.superPg[pg] = append(p.superPg[pg], sb)
			p.noteCodePage(pg)
		}
	}
	head.hot = sb
	p.superFormed++
	return sb
}

// planFetchAndRuns precomputes the per-op fetch points (with their
// front-end fingerprints) and the pure-run lengths. An op is a fetch
// point iff it heads the trace, follows a planned-taken branch (which
// redirects fetch), or statically crosses a cache line; every other op
// is proven to sit on the line the core just fetched, where Fetch is a
// no-op that can be skipped outright.
func (p *Process) planFetchAndRuns(sb *superblock) {
	c := p.Threads[0].Core // geometry is config-wide; any core works
	for i := range sb.ops {
		e := &sb.ops[i]
		if i == 0 {
			e.fetch = true
		} else {
			prev := &sb.ops[i-1]
			redirect := false
			if prev.cont != contExit {
				switch prev.in.Op {
				case isa.JMP, isa.CALL, isa.RET:
					redirect = true
				case isa.JCC:
					redirect = prev.planned
				}
			}
			e.fetch = redirect || !c.SameFetchLine(prev.pc, e.pc)
		}
		if e.fetch {
			e.pl = c.PlanFetch(e.pc)
		}
	}
	for i := len(sb.ops) - 1; i >= 0; i-- {
		e := &sb.ops[i]
		if !pureOp(e.in.Op) {
			e.run = 0
			continue
		}
		// Runs extend across line-crossing fetch points: the executor
		// handles interior fetches per op inside the run (see execSuper),
		// so only non-pure ops break a run.
		r := uint16(1)
		if i+1 < len(sb.ops) {
			if nxt := &sb.ops[i+1]; nxt.run > 0 {
				r += nxt.run
			}
		}
		e.run = r
	}
	// Aggregate each run's front-end plan (FetchRunFast). Only div-free
	// runs qualify: a mid-run divide fault exits with the later ops —
	// and their fetches — unexecuted, which the up-front bulk charge
	// could not undo.
	for i := 0; i < len(sb.ops); i++ {
		e := &sb.ops[i]
		if e.run == 0 || (i > 0 && sb.ops[i-1].run > 0) {
			continue // not a run head
		}
		r := int(e.run)
		var pcs []uint64
		ok := true
		for j := i; j < i+r; j++ {
			if sb.ops[j].isDiv {
				ok = false
				break
			}
			if sb.ops[j].fetch {
				pcs = append(pcs, sb.ops[j].pc)
			}
		}
		if ok {
			e.fe = c.PlanFetchRun(pcs) // nil when not aggregable
		}
	}
}

// execSuper runs the trace from op index start until a side exit, the
// budget runs out, the thread halts or faults, or the trace is
// invalidated under its own feet. It returns the number of completed
// instructions; t.PC is synced on every exit path. Event order is
// instruction-for-instruction identical to Step; the only differences
// are skipped no-op Fetches and bulk-charged retires, both bit-exact by
// construction.
func (p *Process) execSuper(t *Thread, sb *superblock, budget, start int) int {
	c := t.Core
	n := 0
	ops := sb.ops
	i := start
	for n < budget {
		e := &ops[i]

		// Pure run: execute the streak's register effects (fetching
		// in-place at interior line crossings), then charge the whole
		// streak with one bulk retire. Hit fetches add no cycles, so
		// deferring the integer-only retires past them is bit-exact; a
		// fetch that needs the full path flushes the pending retires
		// first, because a miss can reach the DRAM model, which reads
		// Cycles() — the retired-instruction count must be current.
		if r := int(e.run); r > 0 {
			m := r
			if left := budget - n; m > left {
				m = left
			}
			run := ops[i : i+m]

			// Whole-run fast path: a full, div-free run whose lines are
			// all warm charges its entire front end in one FetchRunFast
			// call, so the op loop touches no model state at all until
			// the single bulk retire — O(1) model interactions for the
			// whole run. Truncated runs (budget) and runs with divider
			// ops (mid-run fault exits) take the per-op path below.
			if m == r && e.fe != nil && c.FetchRunFast(e.fe) {
				for j := range run {
					op := &run[j]
					in := &op.in
					switch in.Op {
					case isa.NOP:
					case isa.MOVI:
						t.SetReg(in.Rd, uint64(in.Imm))
					case isa.MOV:
						t.SetReg(in.Rd, t.Reg(in.Rs1))
					case isa.ADD:
						t.SetReg(in.Rd, t.Reg(in.Rs1)+t.Reg(in.Rs2))
					case isa.SUB:
						t.SetReg(in.Rd, t.Reg(in.Rs1)-t.Reg(in.Rs2))
					case isa.MUL:
						t.SetReg(in.Rd, t.Reg(in.Rs1)*t.Reg(in.Rs2))
					case isa.AND:
						t.SetReg(in.Rd, t.Reg(in.Rs1)&t.Reg(in.Rs2))
					case isa.OR:
						t.SetReg(in.Rd, t.Reg(in.Rs1)|t.Reg(in.Rs2))
					case isa.XOR:
						t.SetReg(in.Rd, t.Reg(in.Rs1)^t.Reg(in.Rs2))
					case isa.SHL:
						t.SetReg(in.Rd, t.Reg(in.Rs1)<<(t.Reg(in.Rs2)&63))
					case isa.SHR:
						t.SetReg(in.Rd, t.Reg(in.Rs1)>>(t.Reg(in.Rs2)&63))
					case isa.ADDI:
						t.SetReg(in.Rd, t.Reg(in.Rs1)+uint64(in.Imm))
					case isa.MULI:
						t.SetReg(in.Rd, t.Reg(in.Rs1)*uint64(in.Imm))
					case isa.ANDI:
						t.SetReg(in.Rd, t.Reg(in.Rs1)&uint64(in.Imm))
					case isa.ORI:
						t.SetReg(in.Rd, t.Reg(in.Rs1)|uint64(in.Imm))
					case isa.XORI:
						t.SetReg(in.Rd, t.Reg(in.Rs1)^uint64(in.Imm))
					case isa.SHLI:
						t.SetReg(in.Rd, t.Reg(in.Rs1)<<(uint64(in.Imm)&63))
					case isa.SHRI:
						t.SetReg(in.Rd, t.Reg(in.Rs1)>>(uint64(in.Imm)&63))
					case isa.CMP:
						t.CmpVal = int64(t.Reg(in.Rs1)) - int64(t.Reg(in.Rs2))
					case isa.CMPI:
						t.CmpVal = int64(t.Reg(in.Rs1)) - in.Imm
					default:
						// DIV/MOD are formation-excluded from aggregated
						// runs; anything else is a formation bug.
						c.RetireBulk(uint64(j), 0)
						t.PC = op.pc
						p.faultThread(t, fmt.Errorf("proc: unexpected op %v in aggregated run at PC %#x", in.Op, op.pc))
						return n + j
					}
				}
				c.RetireBulk(uint64(m), 0)
				n += m
				i += m
				if i == len(ops) {
					t.PC = ops[i-1].next
					return n
				}
				continue
			}

			var divs uint64
			charged := 0
			for j := range run {
				op := &run[j]
				if op.fetch && !c.FetchFast(&op.pl) {
					c.RetireBulk(uint64(j-charged), divs)
					charged, divs = j, 0
					c.Fetch(op.pc)
				}
				in := &op.in
				switch in.Op {
				case isa.NOP:
				case isa.MOVI:
					t.SetReg(in.Rd, uint64(in.Imm))
				case isa.MOV:
					t.SetReg(in.Rd, t.Reg(in.Rs1))
				case isa.ADD:
					t.SetReg(in.Rd, t.Reg(in.Rs1)+t.Reg(in.Rs2))
				case isa.SUB:
					t.SetReg(in.Rd, t.Reg(in.Rs1)-t.Reg(in.Rs2))
				case isa.MUL:
					t.SetReg(in.Rd, t.Reg(in.Rs1)*t.Reg(in.Rs2))
				case isa.DIV:
					d := int64(t.Reg(in.Rs2))
					if d == 0 {
						c.RetireBulk(uint64(j-charged), divs)
						t.PC = op.pc
						p.faultThread(t, fmt.Errorf("proc: divide by zero at PC %#x", op.pc))
						return n + j
					}
					t.SetReg(in.Rd, uint64(int64(t.Reg(in.Rs1))/d))
					divs++
				case isa.MOD:
					d := int64(t.Reg(in.Rs2))
					if d == 0 {
						c.RetireBulk(uint64(j-charged), divs)
						t.PC = op.pc
						p.faultThread(t, fmt.Errorf("proc: modulo by zero at PC %#x", op.pc))
						return n + j
					}
					t.SetReg(in.Rd, uint64(int64(t.Reg(in.Rs1))%d))
					divs++
				case isa.AND:
					t.SetReg(in.Rd, t.Reg(in.Rs1)&t.Reg(in.Rs2))
				case isa.OR:
					t.SetReg(in.Rd, t.Reg(in.Rs1)|t.Reg(in.Rs2))
				case isa.XOR:
					t.SetReg(in.Rd, t.Reg(in.Rs1)^t.Reg(in.Rs2))
				case isa.SHL:
					t.SetReg(in.Rd, t.Reg(in.Rs1)<<(t.Reg(in.Rs2)&63))
				case isa.SHR:
					t.SetReg(in.Rd, t.Reg(in.Rs1)>>(t.Reg(in.Rs2)&63))
				case isa.ADDI:
					t.SetReg(in.Rd, t.Reg(in.Rs1)+uint64(in.Imm))
				case isa.MULI:
					t.SetReg(in.Rd, t.Reg(in.Rs1)*uint64(in.Imm))
				case isa.ANDI:
					t.SetReg(in.Rd, t.Reg(in.Rs1)&uint64(in.Imm))
				case isa.ORI:
					t.SetReg(in.Rd, t.Reg(in.Rs1)|uint64(in.Imm))
				case isa.XORI:
					t.SetReg(in.Rd, t.Reg(in.Rs1)^uint64(in.Imm))
				case isa.SHLI:
					t.SetReg(in.Rd, t.Reg(in.Rs1)<<(uint64(in.Imm)&63))
				case isa.SHRI:
					t.SetReg(in.Rd, t.Reg(in.Rs1)>>(uint64(in.Imm)&63))
				case isa.CMP:
					t.CmpVal = int64(t.Reg(in.Rs1)) - int64(t.Reg(in.Rs2))
				case isa.CMPI:
					t.CmpVal = int64(t.Reg(in.Rs1)) - in.Imm
				}
			}
			c.RetireBulk(uint64(m-charged), divs)
			n += m
			i += m
			if i == len(ops) {
				t.PC = ops[i-1].next
				return n
			}
			continue
		}

		if e.fetch && !c.FetchFast(&e.pl) {
			c.Fetch(e.pc)
		}
		in := &e.in
		switch in.Op {
		case isa.LD:
			addr := t.Reg(in.Rs1) + uint64(in.Imm)
			if !c.MemFast(addr) {
				c.Mem(addr, false)
			}
			t.SetReg(in.Rd, p.Mem.ReadWord(addr))
		case isa.LDB:
			addr := t.Reg(in.Rs1) + uint64(in.Imm)
			if !c.MemFast(addr) {
				c.Mem(addr, false)
			}
			t.SetReg(in.Rd, uint64(p.Mem.LoadByte(addr)))
		case isa.LEAVE:
			fp := t.Regs[isa.FP]
			if !c.MemFast(fp) {
				c.Mem(fp, false)
			}
			t.Regs[isa.FP] = p.Mem.ReadWord(fp)
			t.Regs[isa.SP] = fp + 8
		case isa.POP:
			sp := t.Regs[isa.SP]
			if !c.MemFast(sp) {
				c.Mem(sp, false)
			}
			t.SetReg(in.Rd, p.Mem.ReadWord(sp))
			t.Regs[isa.SP] = sp + 8

		case isa.ST:
			addr := t.Reg(in.Rs1) + uint64(in.Imm)
			if !c.MemFast(addr) {
				c.Mem(addr, true)
			}
			p.Mem.WriteWord(addr, t.Reg(in.Rs2))
			c.Retire(false)
			n++
			if !sb.valid {
				t.PC = e.next
				return n
			}
			i++
			if i == len(ops) {
				t.PC = e.next
				return n
			}
			continue
		case isa.STB:
			addr := t.Reg(in.Rs1) + uint64(in.Imm)
			if !c.MemFast(addr) {
				c.Mem(addr, true)
			}
			p.Mem.StoreByte(addr, byte(t.Reg(in.Rs2)))
			c.Retire(false)
			n++
			if !sb.valid {
				t.PC = e.next
				return n
			}
			i++
			if i == len(ops) {
				t.PC = e.next
				return n
			}
			continue
		case isa.PUSH:
			sp := t.Regs[isa.SP] - 8
			t.Regs[isa.SP] = sp
			if !c.MemFast(sp) {
				c.Mem(sp, true)
			}
			p.Mem.WriteWord(sp, t.Reg(in.Rs1))
			c.Retire(false)
			n++
			if !sb.valid {
				t.PC = e.next
				return n
			}
			i++
			if i == len(ops) {
				t.PC = e.next
				return n
			}
			continue
		case isa.ENTER:
			sp := t.Regs[isa.SP] - 8
			if !c.MemFast(sp) {
				c.Mem(sp, true)
			}
			p.Mem.WriteWord(sp, t.Regs[isa.FP])
			t.Regs[isa.FP] = sp
			t.Regs[isa.SP] = sp - uint64(in.Imm)
			c.Retire(false)
			n++
			if !sb.valid {
				t.PC = e.next
				return n
			}
			i++
			if i == len(ops) {
				t.PC = e.next
				return n
			}
			continue

		case isa.FPTR:
			v := uint64(in.Imm)
			if p.fptrHook != nil {
				// Arbitrary code: re-check validity like a store.
				v = p.fptrHook(v)
				c.AddStall(p.opts.FuncPtrHookCost, cpu.BucketRetiring)
				t.SetReg(in.Rd, v)
				c.Retire(false)
				n++
				if !sb.valid {
					t.PC = e.next
					return n
				}
				i++
				if i == len(ops) {
					t.PC = e.next
					return n
				}
				continue
			}
			t.SetReg(in.Rd, v)

		case isa.JMP:
			c.Retire(false)
			if !c.BranchJumpFast(e.pc, e.target) {
				c.Branch(e.pc, e.target, true, cpu.BrJump, 0)
			}
			p.dbiTax(c, false)
			n++
			switch e.cont {
			case contLoop:
				i = 0
			case contNext:
				i++
			default:
				t.PC = e.target
				return n
			}
			continue
		case isa.JCC:
			taken := in.Cond.Holds(t.CmpVal)
			target := e.next
			if taken {
				target = e.target
			}
			c.Retire(false)
			if taken {
				c.Branch(e.pc, target, true, cpu.BrCond, 0)
				p.dbiTax(c, false)
			} else {
				c.BranchCondNotTakenFast(e.pc)
			}
			n++
			if taken != e.planned || e.cont == contExit {
				// Side exit (or a block-trace's terminator): the trace's
				// plan ends here; fall back to the block-trace at the
				// actual target.
				if taken {
					e.takenCnt++
				} else {
					e.fallCnt++
				}
				t.PC = target
				return n
			}
			if e.cont == contLoop {
				i = 0
			} else {
				i++
			}
			continue
		case isa.CALL:
			sp := t.Regs[isa.SP] - 8
			t.Regs[isa.SP] = sp
			if !c.MemFast(sp) {
				c.Mem(sp, true)
			}
			p.Mem.WriteWord(sp, e.next)
			c.Retire(false)
			if !c.BranchCallFast(e.pc, e.target, e.next) {
				c.Branch(e.pc, e.target, true, cpu.BrCall, e.next)
			}
			p.dbiTax(c, false)
			n++
			// The return-address push is a store: it can invalidate the
			// trace (a stack aimed at a code page), so re-check.
			if e.cont == contExit || !sb.valid {
				t.PC = e.target
				return n
			}
			if e.cont == contLoop {
				i = 0
			} else {
				i++
			}
			continue
		case isa.CALLR:
			target := t.Reg(in.Rs1)
			sp := t.Regs[isa.SP] - 8
			t.Regs[isa.SP] = sp
			if !c.MemFast(sp) {
				c.Mem(sp, true)
			}
			p.Mem.WriteWord(sp, e.next)
			c.Retire(false)
			c.Branch(e.pc, target, true, cpu.BrCallInd, e.next)
			p.dbiTax(c, true)
			t.PC = target
			return n + 1
		case isa.RET:
			sp := t.Regs[isa.SP]
			if !c.MemFast(sp) {
				c.Mem(sp, false)
			}
			target := p.Mem.ReadWord(sp)
			t.Regs[isa.SP] = sp + 8
			c.Retire(false)
			if !c.BranchRetFast(e.pc, target) {
				c.Branch(e.pc, target, true, cpu.BrRet, 0)
			}
			p.dbiTax(c, true)
			n++
			// Call/return folding: continue in the trace only if the guest
			// really returns where the spliced CALL said it would.
			if e.cont == contExit || target != e.target {
				t.PC = target
				return n
			}
			if e.cont == contLoop {
				i = 0
			} else {
				i++
			}
			continue
		case isa.JTBL:
			idx := t.Reg(in.Rs1)
			slot := uint64(in.Imm) + idx*8
			if !c.MemFast(slot) {
				c.Mem(slot, false)
			}
			target := p.Mem.ReadWord(slot)
			c.Retire(false)
			c.Branch(e.pc, target, true, cpu.BrJumpTable, 0)
			p.dbiTax(c, true)
			t.PC = target
			return n + 1

		case isa.HALT:
			c.Retire(false)
			t.PC = e.pc
			t.Halted = true
			return n
		case isa.SYS:
			// Only a block-trace's terminator: formation never splices
			// SYS. The handler sees the SYS PC, the way Step leaves it.
			t.PC = e.pc
			if p.handler == nil {
				p.faultThread(t, fmt.Errorf("proc: SYS %d with no handler at PC %#x", in.Imm, e.pc))
				return n
			}
			c.AddStall(p.opts.SyscallCost, cpu.BucketBackEnd)
			if err := p.handler.Syscall(p, t, in.Imm); err != nil {
				p.faultThread(t, err)
				return n
			}
			c.Retire(false)
			if t.Halted {
				return n
			}
			t.PC = e.next
			return n + 1

		default:
			t.PC = e.pc
			p.faultThread(t, fmt.Errorf("proc: unimplemented op %v at PC %#x", in.Op, e.pc))
			return n
		}

		// Shared tail for the load-class ops (LD/LDB/LEAVE/POP and
		// hook-less FPTR): nothing here can invalidate the trace.
		c.Retire(false)
		n++
		i++
		if i == len(ops) {
			t.PC = e.next
			return n
		}
	}
	// Budget exhausted mid-trace: record the exact op so the next
	// quantum re-enters the trace here instead of re-dispatching through
	// the block map (which would decode a spurious block-trace at this
	// mid-trace PC).
	t.PC = ops[i].pc
	t.resumeSB, t.resumeIdx = sb, i
	return n
}
