package verify

import (
	"fmt"

	"raptrack/internal/cfg"
	"raptrack/internal/isa"
)

// materialize turns an accepted derivation into the Verdict with the
// witness path and evidence statistics.
func (s *summarizer) materialize(entryPC uint32, top *outcome) *Verdict {
	vd := &Verdict{OK: true, Packets: len(s.packets), Instrs: s.work, Passes: int(s.evals)}
	s.emitLoops = 0
	emit := func(e Edge) {
		vd.Transfers++
		if s.v.opts.pathCap > 0 && len(vd.Path) < s.v.opts.pathCap {
			vd.Path = append(vd.Path, e)
		}
	}
	end, exitPC := s.emitFrame(entryPC, 0, nil, top, emit)
	if top.kind == exitLeaf {
		// The entry function returned through its pristine LR: the
		// destination is the CPU's halt sentinel.
		emit(Edge{Src: exitPC, Dst: haltSentinel, Kind: isa.KindReturn})
	}
	vd.PacketsUsed = end
	vd.LoopsReplayed = s.emitLoops
	return vd
}

const haltSentinel = 0xffff_fffe

// emitFrame replays the derivation of outcome o from (pc, cursor,
// loopCtx), emitting every control transfer, and returns the evidence
// cursor after the frame completes along with the exiting instruction's
// address.
func (s *summarizer) emitFrame(pc uint32, cursor int, loopCtx loopMap, o *outcome, emit func(Edge)) (int, uint32) {
	v := s.v
	img := v.link.Image
	for {
		st := s.advance(pc, cursor, loopCtx, emit)
		switch st.kind {
		case advPrune:
			// A stored derivation cannot prune: it was validated during
			// the search. Defensive stop.
			panic(fmt.Sprintf("verify: witness derivation pruned at %#x", pc))
		case advExit:
			return st.cursor, st.pc
		}
		if o == nil {
			panic(fmt.Sprintf("verify: witness derivation exhausted at node %#x", st.pc))
		}
		ins := img.Code[st.pc]
		next := st.pc + ins.Size()
		loopCtx = st.loopCtx

		switch o.branch {
		case brExit:
			if _, isGuard := v.link.Guards[st.pc]; isGuard {
				// Forward-loop exit taken.
				emit(Edge{Src: st.pc, Dst: ins.Target, Kind: isa.KindCond})
				pc = ins.Target
			} else {
				// Conditional not taken: fall through, no transfer.
				pc = next
			}
			cursor = st.cursor
			o = o.cont

		case brConsume:
			if site, isSite := v.link.Sites[st.pc]; isSite &&
				(site.Class == cfg.ClassCondNonLoop || site.Class == cfg.ClassCondLoopBack || site.Class == cfg.ClassCondLoopFwd) {
				emit(Edge{Src: st.pc, Dst: site.StaticTarget, Kind: isa.KindCond})
				pc = site.StaticTarget
				cursor = st.cursor + 1
			} else {
				// Forward-loop guard continuing into the logging branch.
				pc = next
				cursor = st.cursor
			}
			o = o.cont

		case brCall, brCallHalt:
			var calleeEntry uint32
			var calleeCursor int
			if site, isSite := v.link.Sites[st.pc]; isSite && site.Class == cfg.ClassIndirectCall {
				p := s.packets[st.cursor]
				calleeEntry = p.Dst
				calleeCursor = st.cursor + 1
				emit(Edge{Src: st.pc, Dst: calleeEntry, Kind: isa.KindIndirectCall})
			} else {
				calleeEntry = ins.Target
				calleeCursor = st.cursor
				emit(Edge{Src: st.pc, Dst: calleeEntry, Kind: isa.KindCall})
			}
			end, exitPC := s.emitFrame(calleeEntry, calleeCursor, nil, o.callee, emit)
			if o.branch == brCallHalt {
				return end, exitPC
			}
			if o.callee.kind == exitLeaf {
				// The callee's deterministic return edge is emitted here,
				// where the destination (this call's successor) is known.
				emit(Edge{Src: exitPC, Dst: next, Kind: isa.KindReturn})
			}
			pc = next
			cursor = end
			o = o.cont

		default:
			panic(fmt.Sprintf("verify: unknown derivation branch %d at %#x", o.branch, st.pc))
		}
	}
}
