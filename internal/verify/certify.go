package verify

import "raptrack/internal/trace"

// This file is the reject certifier: a set-semantics reachability pass
// over the search's own configuration space, run before the search so a
// rejecting stream can stop at the contradiction that decides its
// verdict. reconstruct runs it only on streams the automaton declined:
// an accept gains nothing from it and would pay for it.
//
// The fixed-point search keeps, per memo node, every outcome with its
// derivation, so its outcome sets grow quadratically in the stream on
// ambiguous evidence — yet a reject needs none of them. The pass keeps
// only what reachability needs, in flat tables keyed by packed integers:
// frame contexts (callee entry, start cursor), the node configurations
// reached in each, the outcome values each context completes with, and
// the call sites waiting on them. It steps nodes through the search's
// own moves and segments through advanceOnce, so it reaches exactly
// the nodes, segments and contradictions the full fixed point does.
//
// It certifies three facts: no root outcome accepts, the fixed point's
// work — counted as if no cache were attached — fits maxInstrs, and
// whether any ROP, JOP or escape contradiction is reachable. Together
// they fix the verdict before the search runs: the first note when no
// attack is reachable, else the first attack note (see stopRule). Any
// fact it cannot establish leaves the search to run the full fixed point.

// certifyMaxFacts caps the pass's configurations, outcomes and resumed
// call sites: bounded scratch, not an evidence judgment. Past it the
// search runs the full fixed point, as it does when nothing is certified.
const certifyMaxFacts = 1 << 21

// certOut is one outcome value of a frame context; next chains the
// context's outcomes.
type certOut struct {
	cursor int32
	retDst uint32
	next   int32
	kind   exitKind
}

// certWait is a call node waiting in context ctx for a callee context's
// outcomes; next chains the callee's waiters.
type certWait struct {
	ctx, node, next int32
}

// certItem is a unit of pending work: evaluate node in ctx (out < 0), or
// resume the call node in ctx with callee outcome out.
type certItem struct {
	ctx, node, out int32
}

// certNode is one branching or calling node configuration.
type certNode struct {
	pc      uint32
	cursor  int
	loopCtx loopMap
}

type certifier struct {
	s      *summarizer
	target int // stream length: accepting root outcomes end here

	ctxIDs   map[uint64]int32
	outHead  []int32
	waitHead []int32
	outSeen  map[[2]uint64]struct{}
	outs     []certOut
	waits    []certWait

	nodeIDs map[nodeKey]int32
	nodes   []certNode
	seen    map[uint64]struct{} // (ctx, node) configurations reached

	work   []certItem
	facts  int
	accept bool
}

// certify runs the pass and returns the stop rule it licenses (stopNever
// when the stream accepts, or the pass hit the budget or its fact cap)
// with its segment walks for the search to reuse.
func (v *Verifier) certify(packets []trace.Packet, entryPC uint32) (stopRule, map[nodeKey]memoSeg) {
	s := newSummarizer(v, packets)
	s.certifying = true
	s.debug = false
	// The pass reaches every configuration, so its tables are sized for
	// the few nodes per packet a stream typically has up front instead
	// of growing there.
	n := 2*len(packets) + 64
	s.advMemo = make(map[nodeKey]memoSeg, n)
	c := &certifier{
		s:       s,
		target:  len(packets),
		ctxIDs:  make(map[uint64]int32),
		outSeen: make(map[[2]uint64]struct{}, n),
		nodeIDs: make(map[nodeKey]int32, n),
		nodes:   make([]certNode, 0, n),
		seen:    make(map[uint64]struct{}, n),
		work:    make([]certItem, 0, 256),
	}
	c.context(entryPC, 0)
	for len(c.work) > 0 && c.live() {
		it := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		if it.out < 0 {
			c.evaluate(it.ctx, it.node)
		} else {
			c.resume(it.ctx, it.node, it.out)
		}
	}
	switch {
	case !c.live():
		return stopNever, s.advMemo
	case s.attackNoted:
		return stopFirstAttack, s.advMemo
	}
	return stopFirstNote, s.advMemo
}

// live reports whether the pass can still certify a reject.
func (c *certifier) live() bool {
	return !c.accept && !c.s.aborted && c.facts <= certifyMaxFacts
}

// context returns the id of the frame entered at (pc, cursor), walking
// its entry segment on first sight. Context 0 is the root frame.
func (c *certifier) context(pc uint32, cursor int) int32 {
	k := uint64(pc)<<32 | uint64(uint32(cursor))
	if id, ok := c.ctxIDs[k]; ok {
		return id
	}
	id := int32(len(c.outHead))
	c.ctxIDs[k] = id
	c.outHead = append(c.outHead, -1)
	c.waitHead = append(c.waitHead, -1)
	c.walk(id, pc, cursor, nil)
	return id
}

// walk follows the segment from (pc, cursor, loopCtx) in ctx to a node
// configuration or a frame outcome.
func (c *certifier) walk(ctx int32, pc uint32, cursor int, loopCtx loopMap) {
	st := c.s.advanceOnce(pc, cursor, loopCtx)
	switch st.kind {
	case advExit:
		c.complete(ctx, st.exit, st.cursor, st.retDst)
	case advNode:
		k := keyOf(st.pc, st.cursor, st.loopCtx)
		node, ok := c.nodeIDs[k]
		if !ok {
			node = int32(len(c.nodes))
			c.nodeIDs[k] = node
			c.nodes = append(c.nodes, certNode{pc: st.pc, cursor: st.cursor, loopCtx: st.loopCtx})
		}
		cfg := uint64(ctx)<<32 | uint64(node)
		if _, ok := c.seen[cfg]; !ok {
			c.seen[cfg] = struct{}{}
			c.facts++
			c.work = append(c.work, certItem{ctx: ctx, node: node, out: -1})
		}
	}
}

// complete records that ctx can exit with (kind, cursor, retDst) and
// resumes every call site waiting on it.
func (c *certifier) complete(ctx int32, kind exitKind, cursor int, retDst uint32) {
	o := outcome{kind: kind, cursor: cursor, retDst: retDst}
	k := [2]uint64{uint64(ctx), o.valueKey()}
	if _, ok := c.outSeen[k]; ok {
		return
	}
	c.outSeen[k] = struct{}{}
	c.facts++
	if ctx == 0 && cursor == c.target && (kind != exitRet || retDst == retToHaltSentinel) {
		c.accept = true
	}
	id := int32(len(c.outs))
	c.outs = append(c.outs, certOut{cursor: int32(cursor), retDst: retDst, next: c.outHead[ctx], kind: kind})
	c.outHead[ctx] = id
	for w := c.waitHead[ctx]; w >= 0; w = c.waits[w].next {
		c.work = append(c.work, certItem{ctx: c.waits[w].ctx, node: c.waits[w].node, out: id})
	}
}

// evaluate steps a node configuration through the search's moves.
func (c *certifier) evaluate(ctx, node int32) {
	n := c.nodes[node]
	ms, k := c.s.moves(n.pc, n.cursor)
	for _, m := range ms[:k] {
		switch m.kind {
		case moveSucc:
			c.walk(ctx, m.to, m.at, n.loopCtx)
		case moveCall:
			callCtx := c.context(m.to, m.at)
			c.waits = append(c.waits, certWait{ctx: ctx, node: node, next: c.waitHead[callCtx]})
			c.waitHead[callCtx] = int32(len(c.waits) - 1)
			for o := c.outHead[callCtx]; o >= 0; o = c.outs[o].next {
				c.work = append(c.work, certItem{ctx: ctx, node: node, out: o})
			}
		case moveNote:
			c.s.record(m.note)
		}
	}
}

// resume continues the call node in ctx after callee outcome out, as
// summarizer.call does.
func (c *certifier) resume(ctx, node, out int32) {
	c.facts++
	n := c.nodes[node]
	co := c.outs[out]
	retSite := n.pc + c.s.v.link.Image.Code[n.pc].Size()
	switch co.kind {
	case exitHalt:
		c.complete(ctx, exitHalt, int(co.cursor), 0)
	case exitLeaf:
		c.walk(ctx, retSite, int(co.cursor), n.loopCtx)
	case exitRet:
		if co.retDst == retSite {
			c.walk(ctx, retSite, int(co.cursor), n.loopCtx)
		} else {
			c.s.noteAttack(ReasonROP, n.pc, "return destination %#x != call-site successor %#x (ROP)", co.retDst, retSite)
		}
	}
}
