package verify

import (
	"fmt"

	"raptrack/internal/cfg"
	"raptrack/internal/isa"
	"raptrack/internal/trace"
)

// exitKind classifies how a frame walk terminates.
type exitKind uint8

const (
	exitLeaf exitKind = iota // deterministic BX LR: returns to the caller's site
	exitRet                  // monitored return: consumed a packet carrying retDst
	exitHalt                 // HLT reached (program over)
)

// outcome is one way a frame can complete from some state, plus the
// derivation links needed to materialize the witness path.
type outcome struct {
	kind   exitKind
	cursor int    // evidence cursor after completion
	retDst uint32 // exitRet only

	// Derivation: the node that produced this outcome, the local branch
	// taken there, the callee outcome (call nodes) and the continuation
	// outcome (nil when the node itself exits the frame).
	node   nodeKey
	branch uint8
	callee *outcome
	cont   *outcome
}

func (o *outcome) valueKey() uint64 {
	return uint64(o.kind)<<62 | uint64(o.retDst)<<30 | uint64(uint32(o.cursor))
}

// Branch identifiers.
const (
	brExit     = 0 // cond not-taken / guard exit-taken / frame exit
	brConsume  = 1 // cond taken / guard continue
	brCall     = 2
	brCallHalt = 3
)

// loopMap is the frame-local optimized-loop state: controlling-branch
// address -> remaining continue count. Copied on write, so a snapshot is
// never mutated after it escapes — cached segment summaries may share
// their maps across sessions.
type loopMap map[uint32]uint64

func (l loopMap) clone() loopMap {
	c := make(loopMap, len(l)+1)
	for k, v := range l {
		c[k] = v
	}
	return c
}

func (l loopMap) hash() uint64 {
	var h uint64
	for k, v := range l {
		h += (uint64(k)*1099511628211 ^ v) * 1099511628211
	}
	return h
}

// nodeKey identifies a memoized decision state. It packs into 16 bytes
// with no padding, which keeps map hashing on the fast path.
type nodeKey struct {
	pc     uint32
	cursor int32
	lhash  uint64
}

func keyOf(pc uint32, cursor int, loopCtx loopMap) nodeKey {
	return nodeKey{pc: pc, cursor: int32(cursor), lhash: loopCtx.hash()}
}

// entry is the memo cell for one nodeKey: the node's evaluation context,
// its outcome set (monotonically growing), and the reverse-dependency
// edges driving the worklist iteration.
type entry struct {
	outs []*outcome
	have map[uint64]bool

	// Evaluation context (all producers of the key share it).
	pc      uint32
	cursor  int
	loopCtx loopMap

	// dependents are nodes whose outcomes were computed using this
	// entry's (possibly partial) set: they are re-evaluated when it grows.
	// depOrder keeps registration order: dirty marks must propagate
	// deterministically, or the evaluation order — and with it which
	// contradiction is reported as "first" — would vary run to run with
	// map iteration (the differential conformance fuzzer catches this).
	dependents map[nodeKey]struct{}
	depOrder   []nodeKey

	visiting bool
}

// summarizer runs the fixed-point search as a worklist-driven chaotic
// iteration: nodes are evaluated once on discovery; when an entry's
// outcome set grows, the nodes that read it are marked dirty and
// re-evaluated. Outcome sets only grow, so the iteration converges.
type summarizer struct {
	v       *Verifier
	packets []trace.Packet

	memo      map[nodeKey]*entry
	advMemo   map[nodeKey]memoSeg
	evalStack []nodeKey
	dirty     []nodeKey
	inDirty   map[nodeKey]bool
	evals     uint64

	work    uint64
	aborted bool

	firstCode   ReasonCode
	firstReason string
	firstPC     uint32
	attackNoted bool

	// stop is when the verdict is final (set from a certify pass), and
	// decided latches it: from then on nothing is walked, evaluated or
	// extended.
	stop    stopRule
	decided bool
	// pre holds the certify pass's segment walks, reused by the search
	// instead of walking them again.
	pre map[nodeKey]memoSeg
	// segNote is the note the current advanceOnce fired, if any, kept
	// only where a walk is reused: in a cache recording or a certify
	// pass.
	segNote *noteRec
	// certifying marks a certify pass. Its cache hits charge their
	// recorded walk cost, so work measures the whole fixed point as if no
	// cache were attached (the pass's budget check), and it keeps every
	// segment's note, because the search replays its walks.
	certifying bool

	cache *Cache     // shared cross-session segment cache (nil = off)
	rec   *segRecord // active segment recording (nil outside cache misses)

	segCap    uint64 // max instructions per deterministic segment
	emitLoops uint64 // loop trip counts applied during witness emission
	debug     bool   // verbose search diagnostics (WithDebug)
}

// segRecord tracks the evidence extent one recorded advance peeked, so
// the resulting summary can be keyed on exactly that window.
type segRecord struct {
	start int // entry cursor
	end   int // one past the last peeked in-stream position
	eos   bool
}

// newSummarizer returns the search state for one reconstruction of
// packets, attached to v's shared segment cache.
func newSummarizer(v *Verifier, packets []trace.Packet) *summarizer {
	return &summarizer{
		v:       v,
		packets: packets,
		memo:    make(map[nodeKey]*entry),
		advMemo: make(map[nodeKey]memoSeg),
		inDirty: make(map[nodeKey]bool),
		cache:   v.opts.cache,
		segCap:  uint64(len(v.link.Image.Code)) + 16,
		debug:   v.opts.debug,
	}
}

// drain seeds the search at the entry frame and iterates the dirty queue
// to the fixed point, or until the budget aborts it or the verdict is
// decided.
func (s *summarizer) drain(entryPC uint32) {
	s.walkState(entryPC, 0, nil)
	for len(s.dirty) > 0 && !s.aborted && !s.decided {
		key := s.dirty[0]
		s.dirty = s.dirty[1:]
		delete(s.inDirty, key)
		if e := s.memo[key]; e != nil {
			s.evaluate(key, e)
		}
	}
}

// stopRule says when a search's verdict is final before the fixed point.
// note keeps the first contradiction and noteAttack replaces it only with
// the first attack, so once certify has shown that no root outcome
// accepts and that the fixed point fits the budget, the verdict is final
// at the first note when no attack is reachable, and at the first attack
// note when one is.
type stopRule uint8

const (
	stopNever       stopRule = iota // run the full fixed point
	stopFirstNote                   // no attack is reachable
	stopFirstAttack                 // some attack is reachable
)

func (s *summarizer) note(code ReasonCode, pc uint32, format string, args ...any) {
	s.record(noteRec{pc: pc, code: code, format: format, args: args})
}

// noteAttack records a policy violation (ROP/JOP/escape). These are the
// actionable diagnostics, so they take precedence over generic
// missing-evidence notes from abandoned search branches.
func (s *summarizer) noteAttack(code ReasonCode, pc uint32, format string, args ...any) {
	s.record(noteRec{pc: pc, code: code, attack: true, format: format, args: args})
}

// record applies the diagnostic precedence: the first note stands until
// the first attack note replaces it, once.
func (s *summarizer) record(n noteRec) {
	if s.debug {
		label := "note"
		if n.attack {
			label = "ATTACK"
		}
		fmt.Printf("%s(eval %d): pc=%#x: %s\n", label, s.evals, n.pc, fmt.Sprintf(n.format, n.args...))
	}
	if s.segNote == nil && (s.certifying || s.rec != nil) {
		nn := n
		s.segNote = &nn
	}
	if s.firstReason == "" || (n.attack && !s.attackNoted) {
		s.firstCode = n.code
		s.firstReason = fmt.Sprintf(n.format, n.args...)
		s.firstPC = n.pc
		s.attackNoted = s.attackNoted || n.attack
		if s.stop == stopFirstNote || (s.stop == stopFirstAttack && n.attack) {
			s.decided = true
		}
	}
}

func (s *summarizer) budget(n uint64) bool {
	s.work += n
	if s.work > s.v.opts.maxInstrs {
		s.aborted = true
		return false
	}
	return true
}

// advKind classifies where a deterministic segment ended.
type advKind uint8

const (
	advNode  advKind = iota // a branching/calling node: pc holds it
	advExit                 // the frame completed (exit filled in)
	advPrune                // contradiction: no outcomes through here
)

// advState is the result of advancing a deterministic segment.
type advState struct {
	kind    advKind
	exit    exitKind // advExit: how the frame completed
	pc      uint32   // advNode: the node; advExit: the exiting instruction
	retDst  uint32   // advExit with exitRet: the recorded return destination
	cursor  int      // evidence cursor at the node, or after the exit
	loopCtx loopMap  // advNode: loop state at the node
}

// advance walks deterministic steps (plain instructions, direct branches,
// optimized-loop conditionals and loop-condition SECALLs, indirect jumps
// and monitored returns — all evidence-forced) until a branching node, a
// frame exit, or a contradiction. When emit is non-nil the traversed
// transfers are reported (witness materialization); replaying a
// derivation the search already validated charges no budget.
func (s *summarizer) advance(pc uint32, cursor int, loopCtx loopMap, emit func(Edge)) advState {
	v := s.v
	img := v.link.Image
	var steps uint64
	// owned marks loopCtx as this walk's private copy: the first update
	// clones the caller's snapshot, later ones write in place.
	owned := false
	for {
		steps++
		if steps > s.segCap || (emit == nil && !s.budget(1)) {
			if steps > s.segCap {
				s.note(ReasonMalformedEvidence, pc, "deterministic segment does not terminate (infinite loop at %#x)", pc)
			}
			return advState{kind: advPrune}
		}
		ins, ok := img.Code[pc]
		if !ok {
			s.note(ReasonMalformedEvidence, pc, "reconstructed path leaves program code at %#x", pc)
			return advState{kind: advPrune}
		}
		next := pc + ins.Size()

		// Branching nodes and calls are handled by walkNode.
		if site, isSite := v.link.Sites[pc]; isSite {
			switch site.Class {
			case cfg.ClassCondNonLoop, cfg.ClassCondLoopBack, cfg.ClassCondLoopFwd, cfg.ClassIndirectCall:
				return advState{kind: advNode, pc: pc, cursor: cursor, loopCtx: loopCtx}
			case cfg.ClassReturn:
				p, have := s.peek(cursor)
				if !have || p.Src != site.RecordAddr {
					s.note(ReasonMissingEvidence, pc, "missing return evidence for site %#x", pc)
					return advState{kind: advPrune}
				}
				if emit != nil {
					emit(Edge{Src: pc, Dst: p.Dst, Kind: isa.KindReturn})
				}
				return advState{kind: advExit, exit: exitRet, pc: pc, retDst: p.Dst, cursor: cursor + 1}
			case cfg.ClassIndirectJump:
				p, have := s.peek(cursor)
				if !have || p.Src != site.RecordAddr {
					s.note(ReasonMissingEvidence, pc, "missing indirect-jump evidence for site %#x", pc)
					return advState{kind: advPrune}
				}
				fr, okr := img.FuncRanges[site.Func]
				if !okr || !inRange(fr, p.Dst) {
					s.noteAttack(ReasonEscape, pc, "indirect jump to %#x escapes function %q", p.Dst, site.Func)
					return advState{kind: advPrune}
				}
				if _, isInstr := img.Code[p.Dst]; !isInstr {
					s.noteAttack(ReasonEscape, pc, "indirect jump to %#x, which is not an instruction", p.Dst)
					return advState{kind: advPrune}
				}
				if emit != nil {
					emit(Edge{Src: pc, Dst: p.Dst, Kind: isa.KindIndirectJump})
				}
				pc = p.Dst
				cursor++
				steps = 0 // evidence consumed: the segment is productive
				continue
			}
		}
		if _, isGuard := v.link.Guards[pc]; isGuard {
			return advState{kind: advNode, pc: pc, cursor: cursor, loopCtx: loopCtx}
		}
		if ls, isLoopCond := v.link.LoopConds[pc]; isLoopCond {
			rem, have := loopCtx[pc]
			if !have {
				if !ls.Loop.Static {
					s.note(ReasonMissingEvidence, pc, "optimized loop branch at %#x reached without a logged loop condition", pc)
					return advState{kind: advPrune}
				}
				// Static loop: the trip count is derived from the
				// compile-time entry value; reaching the branch without a
				// context means a fresh loop entry.
				trips, err := ls.Loop.TripCount(uint32(ls.Loop.EntryValue))
				if err != nil {
					s.note(ReasonMalformedEvidence, pc, "static loop trip count: %v", err)
					return advState{kind: advPrune}
				}
				rem = trips
				if emit != nil {
					s.emitLoops++
				}
			}
			taken := false
			if !owned {
				loopCtx, owned = loopCtx.clone(), true
			}
			if ls.Loop.Forward {
				if rem == 0 {
					taken = true
					delete(loopCtx, pc)
				} else {
					loopCtx[pc] = rem - 1
				}
			} else {
				if rem > 0 {
					taken = true
					loopCtx[pc] = rem - 1
				} else {
					delete(loopCtx, pc)
				}
			}
			if taken {
				if emit != nil {
					emit(Edge{Src: pc, Dst: ins.Target, Kind: isa.KindCond})
				}
				pc = ins.Target
			} else {
				pc = next
			}
			steps = 0 // loop state advanced: the segment is productive
			continue
		}
		if ls, isLoop := v.link.Loops[pc]; isLoop {
			p, have := s.peek(cursor)
			if !have || p.Src != pc {
				s.note(ReasonMissingEvidence, pc, "missing loop-condition evidence for optimized loop at %#x", pc)
				return advState{kind: advPrune}
			}
			trips, err := ls.Loop.TripCount(p.Dst)
			if err != nil {
				s.note(ReasonMalformedEvidence, pc, "loop-condition evidence invalid: %v", err)
				return advState{kind: advPrune}
			}
			if !owned {
				loopCtx, owned = loopCtx.clone(), true
			}
			loopCtx[ls.CondAddr] = trips
			if emit != nil {
				s.emitLoops++
			}
			cursor++
			steps = 0 // evidence consumed: the segment is productive
			pc = next
			continue
		}

		switch ins.Kind() {
		case isa.KindNone:
			pc = next
		case isa.KindDirect:
			if emit != nil {
				emit(Edge{Src: pc, Dst: ins.Target, Kind: isa.KindDirect})
			}
			pc = ins.Target
		case isa.KindCall:
			return advState{kind: advNode, pc: pc, cursor: cursor, loopCtx: loopCtx}
		case isa.KindReturn:
			// Deterministic leaf return. The destination is only known to
			// the caller, which emits the edge (witness materialization).
			return advState{kind: advExit, exit: exitLeaf, pc: pc, cursor: cursor}
		case isa.KindHalt:
			return advState{kind: advExit, exit: exitHalt, pc: pc, cursor: cursor}
		case isa.KindSecureCall:
			s.note(ReasonMalformedEvidence, pc, "unexpected secure call in attested code at %#x", pc)
			return advState{kind: advPrune}
		default:
			s.note(ReasonBadImage, pc, "unlinked non-deterministic branch (%s) in golden image at %#x", ins.Kind(), pc)
			return advState{kind: advPrune}
		}
	}
}

func (s *summarizer) peek(cursor int) (trace.Packet, bool) {
	if r := s.rec; r != nil {
		if cursor < len(s.packets) {
			if cursor+1 > r.end {
				r.end = cursor + 1
			}
		} else {
			// The walk observed end-of-stream: the summary only applies
			// where the stream ends at the same relative position.
			r.eos = true
		}
	}
	if cursor < len(s.packets) {
		return s.packets[cursor], true
	}
	return trace.Packet{}, false
}

// walkState advances from (pc, cursor, loopCtx) and returns the frame
// outcomes from there.
func (s *summarizer) walkState(pc uint32, cursor int, loopCtx loopMap) []*outcome {
	if s.decided {
		return nil
	}
	st := s.advanceOnce(pc, cursor, loopCtx)
	switch st.kind {
	case advPrune:
		return nil
	case advExit:
		return []*outcome{{kind: st.exit, cursor: st.cursor, retDst: st.retDst}}
	}
	return s.walkNode(st.pc, st.cursor, st.loopCtx)
}

// memoSeg is one memoized advance: its result, the work it charged and
// the note it fired.
type memoSeg struct {
	st   advState
	work uint64
	note *noteRec
}

// advanceOnce returns the deterministic advance from (pc, cursor,
// loopCtx). Advances are memoized per search (worklist re-evaluations
// would otherwise re-walk the same segments), taken from the certify
// pass when it walked them, and, when a shared cache is attached, shared
// across sessions as relocatable segment summaries. A reused walk charges
// the budget and fires its note here, as walking it would.
func (s *summarizer) advanceOnce(pc uint32, cursor int, loopCtx loopMap) advState {
	k := keyOf(pc, cursor, loopCtx)
	if m, ok := s.advMemo[k]; ok {
		return m.st
	}
	s.segNote = nil
	m, ok := s.pre[k]
	switch {
	case ok && !s.budget(m.work):
		m = memoSeg{st: advState{kind: advPrune}}
	case ok:
		if m.note != nil {
			s.record(*m.note)
		}
	default:
		start := s.work
		if m.st, ok = s.cachedAdvance(pc, cursor, loopCtx); !ok {
			m.st = s.recordedAdvance(pc, cursor, loopCtx)
			m.work = s.work - start
		}
		m.note = s.segNote
	}
	if !s.aborted {
		// A walk the budget cut short is no result: keep it out of the
		// memo, which the certify pass hands to the search.
		s.advMemo[k] = m
	}
	return m.st
}

// cachedAdvance consults the shared cross-session segment cache. On a hit
// the stored note (if any) is replayed through the normal diagnostic
// precedence, and the summary's relative cursors are rebased to cursor.
func (s *summarizer) cachedAdvance(pc uint32, cursor int, loopCtx loopMap) (advState, bool) {
	if s.cache == nil {
		return advState{}, false
	}
	sg, ok := s.cache.lookupSegment(s.v.hmem, pc, loopCtx, s.packets, cursor)
	if !ok {
		return advState{}, false
	}
	if s.certifying && !s.budget(sg.work) {
		return advState{kind: advPrune}, true
	}
	if sg.note != nil {
		s.record(*sg.note)
	}
	st := sg.res
	if st.kind != advPrune {
		st.cursor += cursor
	}
	return st, true
}

// recordedAdvance runs advance with window recording and publishes the
// resulting summary to the shared cache (unless the walk was cut short by
// the work budget, which is a Verifier-local limit, not a property of the
// evidence).
func (s *summarizer) recordedAdvance(pc uint32, cursor int, loopCtx loopMap) advState {
	if s.cache == nil {
		return s.advance(pc, cursor, loopCtx, nil)
	}
	rec := &segRecord{start: cursor, end: cursor}
	s.rec = rec
	start := s.work
	st := s.advance(pc, cursor, loopCtx, nil)
	s.rec = nil
	if s.aborted {
		return st
	}
	sg := &segSummary{
		pc:      pc,
		loopCtx: loopCtx,
		win:     append([]trace.Packet(nil), s.packets[rec.start:rec.end]...),
		eos:     rec.eos,
		res:     st,
		note:    s.segNote,
		work:    s.work - start,
	}
	if st.kind != advPrune {
		sg.res.cursor -= cursor
	}
	s.cache.storeSegment(s.v.hmem, sg)
	return st
}

// walkNode returns the memoized outcomes of a branching/calling node,
// evaluating it on first discovery and recording a reverse-dependency
// edge from the node currently being evaluated.
func (s *summarizer) walkNode(pc uint32, cursor int, loopCtx loopMap) []*outcome {
	key := keyOf(pc, cursor, loopCtx)
	e := s.memo[key]
	if e == nil {
		e = &entry{
			have:       make(map[uint64]bool),
			pc:         pc,
			cursor:     cursor,
			loopCtx:    loopCtx,
			dependents: make(map[nodeKey]struct{}),
		}
		s.memo[key] = e
		s.evaluate(key, e)
	}
	if n := len(s.evalStack); n > 0 {
		d := s.evalStack[n-1]
		if _, seen := e.dependents[d]; !seen {
			e.dependents[d] = struct{}{}
			e.depOrder = append(e.depOrder, d)
		}
	}
	return e.outs
}

// markDirty queues a node for re-evaluation.
func (s *summarizer) markDirty(key nodeKey) {
	if !s.inDirty[key] {
		s.inDirty[key] = true
		s.dirty = append(s.dirty, key)
	}
}

// evaluate (re)computes one node's outcomes from its stored context.
// Growth propagates to dependents through the dirty queue.
func (s *summarizer) evaluate(key nodeKey, e *entry) {
	if e.visiting || s.aborted || s.decided {
		return
	}
	e.visiting = true
	s.evalStack = append(s.evalStack, key)
	s.evals++
	pc, cursor, loopCtx := e.pc, e.cursor, e.loopCtx

	// extend wraps continuation outcomes with this node's derivation,
	// allocating only for outcomes not already in the set.
	extend := func(branch uint8, callee *outcome, conts []*outcome) {
		for _, c := range conts {
			if s.decided {
				return
			}
			vk := c.valueKey()
			if e.have[vk] {
				continue
			}
			e.have[vk] = true
			e.outs = append(e.outs, &outcome{
				kind: c.kind, cursor: c.cursor, retDst: c.retDst,
				node: key, branch: branch, callee: callee, cont: c,
			})
			for _, d := range e.depOrder {
				s.markDirty(d)
			}
		}
	}

	next := pc + s.v.link.Image.Code[pc].Size()
	ms, n := s.moves(pc, cursor)
	for _, m := range ms[:n] {
		switch m.kind {
		case moveSucc:
			extend(m.branch, nil, s.walkState(m.to, m.at, loopCtx))
		case moveCall:
			s.call(pc, next, m.to, m.at, loopCtx, extend)
		case moveNote:
			s.record(m.note)
		}
	}

	s.evalStack = s.evalStack[:len(s.evalStack)-1]
	e.visiting = false
}

type moveKind uint8

const (
	moveSucc moveKind = iota // a local successor: to at cursor at, via branch
	moveCall                 // a call into the callee entry to at cursor at
	moveNote                 // a contradiction met between the other moves
)

// move is one step out of a branching or calling node.
type move struct {
	kind   moveKind
	branch uint8
	to     uint32
	at     int
	note   noteRec
}

// moves lists the steps out of the branching or calling node at (pc,
// cursor) in evaluation order; a node has at most two. Contradictions are
// moves too, so they are recorded in the order the search meets them. The
// search and the certify pass both step nodes through it, so they explore
// the same configuration space.
func (s *summarizer) moves(pc uint32, cursor int) (ms [2]move, n int) {
	add := func(m move) { ms[n] = m; n++ }
	succ := func(branch uint8, to uint32, at int) { add(move{kind: moveSucc, branch: branch, to: to, at: at}) }
	note := func(code ReasonCode, attack bool, format string, args ...any) {
		add(move{kind: moveNote, note: noteRec{pc: pc, code: code, attack: attack, format: format, args: args}})
	}
	v := s.v
	ins := v.link.Image.Code[pc]
	next := pc + ins.Size()

	if site, isSite := v.link.Sites[pc]; isSite {
		switch site.Class {
		case cfg.ClassCondNonLoop, cfg.ClassCondLoopBack:
			// Not-taken: always structurally possible.
			succ(brExit, next, cursor)
			// Taken: gated on matching evidence.
			if p, have := s.peek(cursor); have && p.Src == site.RecordAddr {
				if p.Dst == site.StaticTarget {
					succ(brConsume, site.StaticTarget, cursor+1)
				} else {
					note(ReasonMalformedEvidence, false, "conditional evidence destination %#x != static target %#x", p.Dst, site.StaticTarget)
				}
			}
		case cfg.ClassCondLoopFwd:
			// pc is the inserted continue-logging B: must consume.
			p, have := s.peek(cursor)
			if !have || p.Src != site.RecordAddr {
				note(ReasonMissingEvidence, false, "missing loop-continue evidence for site %#x", pc)
			} else if p.Dst != site.StaticTarget {
				note(ReasonMalformedEvidence, false, "loop-continue evidence destination %#x != static target %#x", p.Dst, site.StaticTarget)
			} else {
				succ(brConsume, site.StaticTarget, cursor+1)
			}
		case cfg.ClassIndirectCall:
			p, have := s.peek(cursor)
			if !have || p.Src != site.RecordAddr {
				note(ReasonMissingEvidence, false, "missing indirect-call evidence for site %#x", pc)
			} else if !v.entries[p.Dst] {
				note(ReasonJOP, true, "indirect call to %#x, which is not a function entry (JOP)", p.Dst)
			} else {
				add(move{kind: moveCall, to: p.Dst, at: cursor + 1})
			}
		}
	} else if stub, isGuard := v.link.Guards[pc]; isGuard {
		// Exit taken: no evidence consumed.
		succ(brExit, ins.Target, cursor)
		// Continue: falls into the logging B (which consumes); gated.
		if p, have := s.peek(cursor); have && p.Src == stub.RecordAddr {
			succ(brConsume, next, cursor)
		}
	} else if ins.Kind() == isa.KindCall {
		add(move{kind: moveCall, to: ins.Target, at: cursor})
	} else {
		note(ReasonUnexplained, false, "internal: evaluate at non-node %#x", pc)
	}
	return ms, n
}

// call evaluates a call node: callee outcomes compose with continuations.
func (s *summarizer) call(pc, retSite, callee uint32, cursor int, loopCtx loopMap,
	extend func(uint8, *outcome, []*outcome)) {
	couts := s.walkState(callee, cursor, nil)
	for _, co := range couts {
		if s.decided {
			return
		}
		switch co.kind {
		case exitHalt:
			// The program ended inside the callee.
			extend(brCallHalt, co, []*outcome{{kind: exitHalt, cursor: co.cursor}})
		case exitLeaf:
			extend(brCall, co, s.walkState(retSite, co.cursor, loopCtx))
		case exitRet:
			if co.retDst == retSite {
				extend(brCall, co, s.walkState(retSite, co.cursor, loopCtx))
			} else {
				s.noteAttack(ReasonROP, pc, "return destination %#x != call-site successor %#x (ROP)", co.retDst, retSite)
			}
		}
	}
}

// certifyMinPackets is the shortest declined stream worth certifying.
// Below it the pass can cost more than stopping early saves: insert-hijack
// rejects of 27 to 33 packets ran up to 1.9x slower certified (syringe
// with the segment cache, gps prefixes), while from 64 packets on the
// certified render won on every app measured.
const certifyMinPackets = 64

// reconstruct runs the worklist fixed-point search over packets and, on
// acceptance, materializes the witness path. A caller that already knows
// the stream is no accept — the automaton decoded it without accepting —
// and finds it at least certifyMinPackets long sets certify: a certify
// pass then runs first, and when it proves the stream rejects within
// budget, the search stops at the contradiction that decides the verdict
// instead of completing the fixed point. An accept never pays for the
// pass.
func (v *Verifier) reconstruct(packets []trace.Packet, certify bool) *Verdict {
	img := v.link.Image
	entryPC, err := img.EntryAddr()
	if err != nil {
		return &Verdict{OK: false, Code: ReasonBadImage, Detail: fmt.Sprintf("golden image has no entry: %v", err), Packets: len(packets)}
	}
	s := newSummarizer(v, packets)
	if certify {
		s.stop, s.pre = v.certify(packets, entryPC)
	}

	fail := func(code ReasonCode, detail string, pc uint32) *Verdict {
		return &Verdict{
			OK: false, Code: code, Detail: detail, FailPC: pc,
			Packets: len(packets), Instrs: s.work, Passes: int(s.evals),
		}
	}

	s.drain(entryPC)
	if s.aborted {
		return fail(ReasonWorkBudget, fmt.Sprintf("verification exceeded the %d-instruction work budget", v.opts.maxInstrs), 0)
	}

	for _, o := range s.walkState(entryPC, 0, nil) {
		if o.cursor != len(packets) {
			continue
		}
		switch o.kind {
		case exitHalt, exitLeaf:
			return s.materialize(entryPC, o)
		case exitRet:
			if o.retDst == retToHaltSentinel {
				return s.materialize(entryPC, o)
			}
		}
	}
	code, detail := ReasonUnexplained, "no benign path explains the evidence"
	if s.firstReason != "" {
		code = s.firstCode
		detail = "no benign path explains the evidence; first contradiction: " + s.firstReason
	}
	return fail(code, detail, s.firstPC)
}
