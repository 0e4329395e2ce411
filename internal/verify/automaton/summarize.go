package automaton

import (
	"encoding/binary"
	"math/bits"

	"raptrack/internal/trace"
)

// This file is the decoder's rescue pass for recursive programs.
//
// Speculative decoding explores derivations depth-first, and
// presence-encoded conditionals inside a self-recursive function make that
// search exponential: the packets of every deeper dynamic instance match
// the same static site, so each mis-guessed recursion depth is only
// contradicted far downstream. The interpreter solves this with pushdown
// summarization; this pass is the same idea lowered onto the compiled
// table. Frame walks are tabulated per context — (entry row, start cursor)
// — so every dynamic instance of a call at the same evidence position
// shares one exploration, and outcomes ("returns at cursor E consuming a
// return packet to D", "returns deterministically at E") propagate to
// waiting call sites until a root derivation covering the whole stream is
// found. That is polynomial in stream length where the speculative walk
// is exponential.
//
// The pass does not render verdicts. Its product is an oracle: the
// take/fall-through bit sequence of the accepting derivation's choice
// points, in execution order. The caller replays the normal decode loop
// with that oracle in place of speculation, so every evidence check
// (conditional presence, ROP/JOP/escape policies, loop trips, stream
// exhaustion) is re-validated by the same code that validates speculative
// accepts. A summarizer bug can therefore cost a fallback to the
// interpreter, never an unsound accept.
//
// All scratch lives in flat pooled slices keyed by packed integers: one
// open-addressing set dedups configurations, contexts chain their
// outcomes and waiting call sites through index lists, and loop-register
// vectors are interned. A rescued decode allocates only on first use of
// its pooled state and on growth.

// Summarizer caps: bounded scratch, not evidence judgments. Exceeding
// them abandons the rescue (the interpreter takes over). The bit widths
// back the packed configuration key: context 16, row 16, cursor 22,
// loop-state 10.
const (
	sumMaxStream = 1 << 22 // expanded packets materialized for indexing
	sumMaxFacts  = 1 << 21
	sumMaxCtxs   = 1 << 16
	sumMaxRows   = 1 << 16
	sumMaxLoops  = 1 << 10
)

// outKind classifies how a frame context completes.
type outKind uint8

const (
	outLeaf outKind = iota // deterministic return (BX LR): no packet
	outRet                 // monitored return: consumed packet, dst checked by caller
)

// sumOutcome is one way a frame context completes: the cursor after its
// derivation and, for monitored returns, the recorded destination the
// caller must match (ROP). fact anchors the derivation for the oracle.
type sumOutcome struct {
	end  int32
	dst  uint32
	fact int32
	next int32 // next outcome of the same context (-1 ends)
	kind outKind
}

// sumFact is one reached configuration with its derivation back-pointer:
// prev is the predecessor fact (-1 at a context start), choice the
// decision taken at the predecessor's row to get here (-1 when forced),
// and splice* identify a callee derivation interposed between prev (the
// call row) and this resume point.
type sumFact struct {
	row       int32
	cur       int32
	ctx       int32
	loops     int32
	prev      int32
	spliceCtx int32
	spliceOut int32
	choice    int8
}

// u64set is an open-addressing hash set of packed configuration keys
// (linear probing, 0 is the empty slot; the zero key is tracked aside).
type u64set struct {
	tab     []uint64
	n       int
	hasZero bool
}

func (s *u64set) reset() {
	if s.tab == nil {
		s.tab = make([]uint64, 1<<13)
	} else {
		clear(s.tab)
	}
	s.n = 0
	s.hasZero = false
}

// add inserts k, reporting whether it was absent.
func (s *u64set) add(k uint64) bool {
	if k == 0 {
		if s.hasZero {
			return false
		}
		s.hasZero = true
		return true
	}
	if (s.n+1)*4 >= len(s.tab)*3 {
		old := s.tab
		s.tab = make([]uint64, len(old)*2)
		for _, ok := range old {
			if ok != 0 {
				s.place(ok)
			}
		}
	}
	mask := uint64(len(s.tab) - 1)
	i := hash64(k, len(s.tab))
	for {
		switch s.tab[i] {
		case 0:
			s.tab[i] = k
			s.n++
			return true
		case k:
			return false
		}
		i = (i + 1) & mask
	}
}

func (s *u64set) place(k uint64) {
	mask := uint64(len(s.tab) - 1)
	i := hash64(k, len(s.tab))
	for s.tab[i] != 0 {
		i = (i + 1) & mask
	}
	s.tab[i] = k
}

// hash64 is Fibonacci hashing into a power-of-two table: the HIGH bits of
// the product mix every input bit, so packed keys differing only in their
// high fields (context, row) spread instead of clustering.
func hash64(k uint64, n int) uint64 {
	return (k * 0x9e3779b97f4a7c15) >> (64 - uint(bits.TrailingZeros(uint(n))))
}

// u64map is an open-addressing map from non-zero packed keys to ids
// (keys are stored +1 so the zero slot means empty).
type u64map struct {
	keys []uint64
	vals []int32
	n    int
}

func (m *u64map) reset() {
	if m.keys == nil {
		m.keys = make([]uint64, 1<<10)
		m.vals = make([]int32, 1<<10)
	} else {
		clear(m.keys)
	}
	m.n = 0
}

// get looks k up, returning (id, true) when present.
func (m *u64map) get(k uint64) (int32, bool) {
	k++
	mask := uint64(len(m.keys) - 1)
	i := hash64(k, len(m.keys))
	for {
		switch m.keys[i] {
		case 0:
			return 0, false
		case k:
			return m.vals[i], true
		}
		i = (i + 1) & mask
	}
}

func (m *u64map) put(k uint64, v int32) {
	k++
	if (m.n+1)*4 >= len(m.keys)*3 {
		ok, ov := m.keys, m.vals
		m.keys = make([]uint64, len(ok)*2)
		m.vals = make([]int32, len(ok)*2)
		for i, kk := range ok {
			if kk != 0 {
				m.place(kk, ov[i])
			}
		}
	}
	m.place(k, v)
	m.n++
}

func (m *u64map) place(k uint64, v int32) {
	mask := uint64(len(m.keys) - 1)
	i := hash64(k, len(m.keys))
	for m.keys[i] != 0 {
		i = (i + 1) & mask
	}
	m.keys[i], m.vals[i] = k, v
}

// summarizer is the pooled tabulation scratch (one per decodeState).
type summarizer struct {
	c  *core
	pk []trace.Packet

	facts []sumFact
	queue []int32
	seen  u64set

	ctxIDs   u64map
	outHead  []int32 // per context: first outcome index (-1 none)
	waitHead []int32 // per context: first waiter index (-1 none)
	outs     []sumOutcome
	waits    []int32 // call-site fact ids
	waitNext []int32

	loopTab [][]uint64 // interned per-frame loop registers (0: all idle)
	loopIDs map[string]int32
	loopKey []byte // setSlot's reused lookup-key buffer

	work   uint64
	budget uint64
	accept int32
}

// summarize tabulates the stream against the compiled table and returns
// the accepting derivation's choice-bit oracle. ok is false when no
// derivation was found within budget — from exhaustion or from any cap —
// and the caller falls back to the interpreter either way.
func (s *summarizer) summarize(c *core, pk []trace.Packet, budget uint64) (oracle []uint8, work uint64, ok bool) {
	if len(c.nodes) > sumMaxRows || len(pk) >= sumMaxStream {
		return nil, 0, false
	}
	s.c, s.pk, s.budget = c, pk, budget
	s.work, s.accept = 0, -1
	s.facts = s.facts[:0]
	s.queue = s.queue[:0]
	s.outs = s.outs[:0]
	s.waits = s.waits[:0]
	s.waitNext = s.waitNext[:0]
	s.outHead = s.outHead[:0]
	s.waitHead = s.waitHead[:0]
	s.seen.reset()
	s.ctxIDs.reset()
	s.loopTab = append(s.loopTab[:0], make([]uint64, c.slots))
	clear(s.loopIDs)

	root := s.rowOf(c.entry)
	if root < 0 {
		return nil, 0, false
	}
	s.newCtx(int64(root) << 32)
	s.addFact(sumFact{row: root, ctx: 0, prev: -1, spliceCtx: -1, choice: -1})
	for len(s.queue) > 0 && s.accept < 0 {
		fi := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		if !s.process(fi) {
			return nil, s.work, false
		}
	}
	if s.accept < 0 {
		return nil, s.work, false
	}
	return s.oracle(), s.work, true
}

func (s *summarizer) rowOf(addr uint32) int32 {
	if addr < s.c.base || addr >= s.c.limit || (addr-s.c.base)&1 != 0 {
		return -1
	}
	return int32((addr - s.c.base) >> 1)
}

func (s *summarizer) addFact(f sumFact) {
	k := uint64(f.ctx)<<48 | uint64(f.row)<<32 | uint64(f.cur)<<10 | uint64(f.loops)
	if !s.seen.add(k) {
		return
	}
	s.facts = append(s.facts, f)
	s.queue = append(s.queue, int32(len(s.facts)-1))
}

// step derives a successor configuration within the same frame.
func (s *summarizer) step(fi int32, row, cur, loops int32, choice int8) {
	if row < 0 {
		return
	}
	f := &s.facts[fi]
	s.addFact(sumFact{row: row, cur: cur, ctx: f.ctx, loops: loops,
		prev: fi, spliceCtx: -1, choice: choice})
}

func (s *summarizer) newCtx(key int64) int32 {
	id := int32(len(s.outHead))
	s.outHead = append(s.outHead, -1)
	s.waitHead = append(s.waitHead, -1)
	s.ctxIDs.put(uint64(key), id)
	return id
}

// ctxOf interns the frame context starting at row with cursor cur,
// seeding its start configuration on first use.
func (s *summarizer) ctxOf(row, cur int32) int32 {
	k := int64(row)<<32 | int64(uint32(cur))
	if id, have := s.ctxIDs.get(uint64(k)); have {
		return id
	}
	if len(s.outHead) >= sumMaxCtxs {
		return -1
	}
	id := s.newCtx(k)
	s.addFact(sumFact{row: row, cur: cur, ctx: id, prev: -1, spliceCtx: -1, choice: -1})
	return id
}

// call registers fact fi (an opCall/opICall row) as a waiter on the
// callee context and resumes it against outcomes already tabulated.
func (s *summarizer) call(fi int32, calleeRow, startCur int32) {
	cid := s.ctxOf(calleeRow, startCur)
	if cid < 0 {
		return
	}
	s.waits = append(s.waits, fi)
	s.waitNext = append(s.waitNext, s.waitHead[cid])
	s.waitHead[cid] = int32(len(s.waits) - 1)
	for oi := s.outHead[cid]; oi >= 0; oi = s.outs[oi].next {
		s.resume(fi, cid, oi)
	}
}

// resume continues a waiting call site with one callee outcome: the
// return address stored by the call is its next address, so a monitored
// return must carry exactly that destination (ROP, as in the decode loop).
func (s *summarizer) resume(fi, cid, oi int32) {
	out := s.outs[oi]
	nd := &s.c.nodes[s.facts[fi].row]
	if out.kind == outRet && out.dst != nd.next {
		return
	}
	row := s.rowOf(nd.next)
	if row < 0 {
		return
	}
	f := &s.facts[fi]
	s.addFact(sumFact{row: row, cur: out.end, ctx: f.ctx, loops: f.loops,
		prev: fi, spliceCtx: cid, spliceOut: oi, choice: -1})
}

// complete records a context outcome and resumes every waiter.
func (s *summarizer) complete(cid int32, out sumOutcome) {
	for oi := s.outHead[cid]; oi >= 0; oi = s.outs[oi].next {
		o := &s.outs[oi]
		if o.end == out.end && o.kind == out.kind && o.dst == out.dst {
			return
		}
	}
	out.next = s.outHead[cid]
	s.outs = append(s.outs, out)
	oi := int32(len(s.outs) - 1)
	s.outHead[cid] = oi
	for w := s.waitHead[cid]; w >= 0; w = s.waitNext[w] {
		s.resume(s.waits[w], cid, oi)
	}
}

// setSlot interns the loop-register vector equal to base with slot
// replaced by val (0 idle, rem+1 when an entered loop has rem continues).
// The lookup key is built in a reused buffer; only a vector not seen
// before is allocated.
func (s *summarizer) setSlot(base int32, slot uint16, val uint64) int32 {
	v := s.loopTab[base]
	if v[slot] == val {
		return base
	}
	kb := s.loopKey[:0]
	for i, x := range v {
		if i == int(slot) {
			x = val
		}
		kb = binary.LittleEndian.AppendUint64(kb, x)
	}
	s.loopKey = kb
	if id, have := s.loopIDs[string(kb)]; have {
		return id
	}
	if len(s.loopTab) >= sumMaxLoops {
		return -1
	}
	nv := make([]uint64, len(v))
	copy(nv, v)
	nv[slot] = val
	if s.loopIDs == nil {
		s.loopIDs = make(map[string]int32, 8)
	}
	id := int32(len(s.loopTab))
	s.loopTab = append(s.loopTab, nv)
	s.loopIDs[string(kb)] = id
	return id
}

// process executes one configuration's row semantics, deriving successor
// facts, context outcomes, or the root accept. Returns false when a
// scratch cap or the work budget is exceeded.
func (s *summarizer) process(fi int32) bool {
	f := s.facts[fi] // copied: addFact may grow s.facts
	nd := &s.c.nodes[f.row]
	s.work += uint64(nd.cost)
	if s.work > s.budget || len(s.facts) > sumMaxFacts {
		return false
	}
	n := int32(len(s.pk))
	var p trace.Packet
	if f.cur < n {
		p = s.pk[f.cur]
	}

	switch nd.op {
	case opNone:
		s.step(fi, s.rowOf(nd.next), f.cur, f.loops, -1)

	case opDirect:
		s.step(fi, s.rowOf(nd.target), f.cur, f.loops, -1)

	case opCond:
		if f.cur < n && p.Src == nd.record && p.Dst == nd.target {
			s.step(fi, s.rowOf(nd.target), f.cur+1, f.loops, 1)
			s.step(fi, s.rowOf(nd.next), f.cur, f.loops, 0)
		} else {
			s.step(fi, s.rowOf(nd.next), f.cur, f.loops, -1)
		}

	case opCondFwd:
		if f.cur < n && p.Src == nd.record && p.Dst == nd.target {
			s.step(fi, s.rowOf(nd.target), f.cur+1, f.loops, -1)
		}

	case opGuard:
		if f.cur < n && p.Src == nd.record {
			s.step(fi, s.rowOf(nd.next), f.cur, f.loops, 1)
			s.step(fi, s.rowOf(nd.target), f.cur, f.loops, 0)
		} else {
			s.step(fi, s.rowOf(nd.target), f.cur, f.loops, -1)
		}

	case opRet:
		if f.cur >= n || p.Src != nd.record {
			return true
		}
		if f.ctx == 0 {
			if p.Dst == retToHaltSentinel && f.cur+1 == n {
				s.accept = fi
			}
			return true
		}
		s.complete(f.ctx, sumOutcome{end: f.cur + 1, dst: p.Dst, fact: fi, kind: outRet})

	case opLeafRet:
		if f.ctx == 0 {
			if f.cur == n {
				s.accept = fi
			}
			return true
		}
		s.complete(f.ctx, sumOutcome{end: f.cur, fact: fi, kind: outLeaf})

	case opHalt:
		if f.cur == n {
			s.accept = fi
		}

	case opCall:
		if cr := s.rowOf(nd.target); cr >= 0 {
			s.call(fi, cr, f.cur)
		}

	case opICall:
		if f.cur < n && p.Src == nd.record && s.c.isEntry(p.Dst) {
			s.call(fi, s.rowOf(p.Dst), f.cur+1)
		}

	case opIJump:
		if f.cur < n && p.Src == nd.record && p.Dst >= nd.lo && p.Dst < nd.hi {
			s.step(fi, s.rowOf(p.Dst), f.cur+1, f.loops, -1)
		}

	case opLoopCond:
		// Replicate the decode loop's register logic exactly (0 encodes an
		// idle slot; an entered loop with rem continues left is rem+1).
		val := s.loopTab[f.loops][nd.slot]
		if val == 0 {
			if nd.flags&nfStatic == 0 || nd.flags&nfStaticBad != 0 {
				return true
			}
			val = nd.trips + 1
		}
		rem := val - 1
		taken := false
		if nd.flags&nfFwd != 0 {
			if rem == 0 {
				taken = true
				val = 0
			} else {
				rem--
				val = rem + 1
			}
		} else {
			if rem > 0 {
				taken = true
				rem--
				val = rem + 1
			} else {
				val = 0
			}
		}
		nl := s.setSlot(f.loops, nd.slot, val)
		if nl < 0 {
			return true
		}
		succ := nd.next
		if taken {
			succ = nd.target
		}
		s.step(fi, s.rowOf(succ), f.cur, nl, -1)

	case opLoopLog:
		if f.cur < n && p.Src == nd.record {
			if trips, err := nd.loop.TripCount(p.Dst); err == nil {
				if nl := s.setSlot(f.loops, nd.slot, trips+1); nl >= 0 {
					s.step(fi, s.rowOf(nd.next), f.cur+1, nl, -1)
				}
			}
		}
	}
	return true
}

// oracle linearizes the accepting derivation into its choice bits in
// execution order: each fact's predecessor chain first, then any spliced
// callee derivation, then the fact's own choice.
func (s *summarizer) oracle() []uint8 {
	var bits []uint8
	var rec func(fi int32)
	rec = func(fi int32) {
		f := &s.facts[fi]
		if f.prev >= 0 {
			rec(f.prev)
		}
		if f.spliceCtx >= 0 {
			rec(s.outs[f.spliceOut].fact)
		}
		if f.choice >= 0 {
			bits = append(bits, uint8(f.choice))
		}
	}
	rec(s.accept)
	return bits
}

// expandStream materializes the (possibly compressed) evidence for
// cursor-indexed tabulation. ok is false on an unknown marker, expansion
// overflow, or a stream too large to index (all of which end in the
// interpreter pipeline anyway).
func expandStream(m *Machine, stream []trace.Packet, expand bool) ([]trace.Packet, bool) {
	if !expand {
		if len(stream) > sumMaxStream {
			return nil, false
		}
		return stream, true
	}
	rd := evReader{stream: stream, markers: &m.markers, expand: true}
	out := make([]trace.Packet, 0, len(stream)*2)
	for {
		p, ok := rd.peek()
		if !ok {
			if rd.failed {
				return nil, false
			}
			return out, true
		}
		if len(out) >= sumMaxStream {
			return nil, false
		}
		out = append(out, p)
		rd.advance()
	}
}
