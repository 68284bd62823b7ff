package proc

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Block dispatch. Step (exec.go) decodes and dispatches one instruction
// at a time and stays the reference semantics; runQuantum is the hot
// path the scheduler uses. It decodes a straight-line run once into a
// block-trace — a one-block superblock whose terminator always exits —
// and runs it on the one trace executor (execSuper, super.go). Hot
// block-traces are promoted: their edge counters plan a longer trace
// spliced across several blocks, which then runs in their place.
// Correctness hinges on two invariants:
//
//   - every architectural effect and every cpu.Core event happens in
//     exactly the order Step would produce it, so timing is bit-identical
//     (guarded by internal/diffcheck's cycle-exact golden test);
//   - any store into a page holding decoded state invalidates its traces
//     via the mem write watch before the next instruction from that page
//     executes — the executor re-checks sb.valid after every instruction
//     that can store, so even a trace overwriting itself stops at the
//     next boundary, exactly where Step would first see the new bytes.

// blockAt returns the (valid) block-trace starting at pc, building it on
// miss. Invalidated block-traces are removed from the map, so a hit is
// always valid.
func (p *Process) blockAt(pc uint64) (*superblock, error) {
	if b := p.blocks[pc]; b != nil {
		return b, nil
	}
	return p.buildBlock(pc)
}

// buildBlock decodes the straight-line run starting at pc into a
// block-trace and registers it for execution and invalidation. The run
// ends at the first control transfer, SYS (handlers may rewrite
// anything), undecodable word, or page boundary (invalidation is
// page-granular, so block-traces never span pages). A decode error on
// the first instruction is the caller's fault to raise (identical to
// what Step would report); an error later just ends the block before the
// bad word, so the fault surfaces — or doesn't — exactly when execution
// reaches it.
func (p *Process) buildBlock(start uint64) (*superblock, error) {
	if start%isa.InstBytes != 0 {
		return nil, fmt.Errorf("proc: misaligned PC %#x", start)
	}
	pg := start / mem.PageSize
	pageEnd := (pg + 1) * mem.PageSize
	blk := &superblock{head: start, valid: true}
	for pc := start; pc < pageEnd; pc += isa.InstBytes {
		in, err := p.decode(pc)
		if err != nil {
			if pc == start {
				return nil, err
			}
			break
		}
		op := sbOp{
			in:    in,
			pc:    pc,
			next:  pc + isa.InstBytes,
			cont:  contExit,
			isDiv: in.Op == isa.DIV || in.Op == isa.MOD,
		}
		switch in.Op {
		case isa.JMP, isa.JCC, isa.CALL:
			op.target = uint64(int64(op.next) + in.Imm)
		}
		blk.ops = append(blk.ops, op)
		if in.IsCtrl() || in.Op == isa.SYS {
			break
		}
	}
	p.planFetchAndRuns(blk)
	p.blocks[start] = blk
	p.superPg[pg] = append(p.superPg[pg], blk)
	p.noteCodePage(pg)
	return blk, nil
}

// runQuantum executes up to budget instructions on t and returns how
// many completed — the same count the per-Step quantum loop reports
// (HALT, faults, and halting syscalls are not counted). Each dispatch
// runs the block-trace at t.PC, or the trace promoted from it once its
// heat crosses the formation threshold.
func (p *Process) runQuantum(t *Thread, budget int) int {
	total := 0
	if sb := t.resumeSB; sb != nil {
		// The previous quantum ran dry mid-trace. Re-enter at the saved
		// op if everything still lines up (the trace may have been
		// invalidated, or a hook may have moved the PC, in between).
		t.resumeSB = nil
		if sb.valid && !t.Halted && budget > 0 &&
			t.resumeIdx < len(sb.ops) && sb.ops[t.resumeIdx].pc == t.PC {
			n := p.execSuper(t, sb, budget, t.resumeIdx)
			total += n
			if sb.spliced() {
				p.superInsts += uint64(n)
			}
		}
	}
	for total < budget && !t.Halted {
		blk, err := p.blockAt(t.PC)
		if err != nil {
			p.faultThread(t, err)
			return total
		}
		sb := blk
		if hot := blk.hot; hot != nil {
			if hot.valid {
				sb = hot
			} else {
				blk.hot = nil
			}
		} else {
			blk.heat++
			if blk.heat >= superHotThreshold {
				if hot := p.tryFormSuper(blk); hot != nil {
					sb = hot
				}
			}
		}
		n := p.execSuper(t, sb, budget-total, 0)
		total += n
		if sb != blk {
			p.superInsts += uint64(n)
		}
	}
	return total
}
