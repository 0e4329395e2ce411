// Package automaton compiles a linked RAP-Track artifact (the per-app CFG
// with its trampoline/stub metadata) plus a SpecCFA sub-path dictionary
// into a flat, table-driven path automaton, and decodes evidence streams
// against it with a zero-allocation speculative loop.
//
// # Why a table
//
// The interpretive reconstruction in package verify re-walks the image
// graph per packet: every step consults four address-keyed maps (Sites,
// Guards, LoopConds, Loops) before the instruction itself, and every frame
// outcome flows through a memoized fixed point built from heap-allocated
// outcome nodes. All of that dispatch is static — it depends only on the
// golden image — so it is paid once here, at compile time: each
// instruction address lowers to one dense table entry whose opcode already
// encodes the site class, the evidence source it must match, its
// taken/fall-through successors and its loop binding. Runs of
// deterministic instructions (plain ALU ops ending in the next decision
// point) fold into a single entry carrying the accumulated instruction
// cost, so the decode loop touches exactly one table row per decision
// rather than one per instruction.
//
// # Soundness contract
//
// The decoder is a sound-accept fast path, not a second authority:
//
//   - It explores exactly the derivations the interpreter's pushdown
//     search admits — every evidence check (conditional presence
//     encoding, return/ROP matching, JOP entry policy, indirect-jump
//     range policy, loop trip replay) is replicated bit-for-bit — so an
//     accept is a validated benign derivation carrying a complete witness
//     path. When recursive evidence admits several benign derivations the
//     witness may interleave recursion levels differently than the
//     interpreter's materialization, but it covers the same edge multiset
//     (the differential conformance suite pins this invariant).
//   - On ANY other outcome — contradictions exhausted, caps or budget
//     exceeded, unknown dictionary marker, expansion overflow — it
//     returns a non-accept status and the caller runs the interpreter,
//     which renders the authoritative verdict. A non-accept lets the
//     interpreter certify the reject first and stop at its deciding
//     contradiction, which is exact. Reject, Inconclusive, error and
//     budget verdicts are therefore identical to the interpreter's by
//     construction.
//
// Speculation uses consume-first checkpointing: at a presence-encoded
// conditional whose next packet matches, the taken (consuming) direction
// is followed and a checkpoint records the fall-through alternative;
// contradictions rewind through an undo trail. The checkpoint stack is a
// bounded ring — overflow commits the oldest alternative, which can only
// convert a would-be reject into a fallback, never an unsound accept.
package automaton

import (
	"sync"
	"sync/atomic"
	"time"

	"raptrack/internal/isa"
	"raptrack/internal/speccfa"
	"raptrack/internal/trace"
)

// Edge is one reconstructed control transfer (mirrors verify.Edge, which
// aliases this type to avoid an import cycle).
type Edge struct {
	Src, Dst uint32
	Kind     isa.BranchKind
}

// Status classifies one decode attempt.
type Status uint8

const (
	// StatusAccept: the stream is a complete benign derivation; Result
	// carries the witness. The only status with verdict authority.
	StatusAccept Status = iota
	// StatusNoPath: every speculative alternative contradicted the
	// evidence. The caller must re-run the interpreter, which renders the
	// (bit-identical) reject with its diagnostic notes.
	StatusNoPath
	// StatusFallback: the decoder gave up without exhausting the space —
	// work budget, frame/backtrack caps, committed checkpoints lost to
	// ring overflow, or a dictionary condition (unknown marker, expansion
	// overflow) that the interpreter pipeline reports as an error.
	StatusFallback
)

func (s Status) String() string {
	switch s {
	case StatusAccept:
		return "accept"
	case StatusNoPath:
		return "no-path"
	case StatusFallback:
		return "fallback"
	}
	return "invalid"
}

// Result is the witness of one accepted decode.
type Result struct {
	Path          []Edge // recorded transfers, capped at the caller's path cap
	Transfers     uint64 // all transfers on the accepted path (not capped)
	LoopsReplayed uint64 // optimized-loop trip counts applied
	PacketsUsed   int    // packets consumed (expanded count in marker mode)
	Work          uint64 // abstract instructions charged against the budget
	Steps         uint64 // table rows visited
	Backtracks    uint64 // checkpoints rewound
}

// Stats describes one compiled table (size metrics for observability).
type Stats struct {
	States     int   // populated table rows (decision points after folding)
	Rows       int   // total table rows (dense address space / 2)
	TableBytes int64 // resident size of the transition table
	LoopSlots  int   // optimized-loop registers per frame
	DictPaths  int   // dictionary sub-paths bound as precomputed jumps
}

// Counters aggregates decode/compile activity across recompiles: a
// gateway attaches one Counters per app so DICT-bump recompiles (which
// produce fresh Machines) keep the exported metrics monotonic.
type Counters struct {
	Decodes      atomic.Uint64
	Accepts      atomic.Uint64
	NoPaths      atomic.Uint64
	Fallbacks    atomic.Uint64
	Rescues      atomic.Uint64 // accepts recovered by the tabulating rescue pass
	Steps        atomic.Uint64
	Backtracks   atomic.Uint64
	Compiles     atomic.Uint64
	CompileNanos atomic.Uint64
}

func (c *Counters) noteRescue() {
	if c != nil {
		c.Rescues.Add(1)
	}
}

// NoteCompile records one table (re)compilation that took d. Compilation
// happens outside the Machine (the caller times Compile/WithDictionary),
// so this is the caller-facing half of the counter block.
func (c *Counters) NoteCompile(d time.Duration) {
	if c != nil {
		c.Compiles.Add(1)
		c.CompileNanos.Add(uint64(d.Nanoseconds()))
	}
}

func (c *Counters) noteDecode(st Status, steps, backtracks uint64) {
	if c == nil {
		return
	}
	c.Decodes.Add(1)
	switch st {
	case StatusAccept:
		c.Accepts.Add(1)
	case StatusNoPath:
		c.NoPaths.Add(1)
	default:
		c.Fallbacks.Add(1)
	}
	c.Steps.Add(steps)
	c.Backtracks.Add(backtracks)
}

// Machine is one compiled automaton: the dictionary-independent transition
// core plus the marker jump tables of one bound dictionary. Machines are
// immutable and safe for concurrent decodes; WithDictionary rebinds share
// the core, so a DICT version bump recompiles in O(dictionary) time.
type Machine struct {
	core     *core
	dict     *speccfa.Dictionary
	markers  [speccfa.MaxPaths][]trace.Packet
	counters *Counters
}

// core is the dictionary-independent compiled table (see compile.go), plus
// the shared pool of decode scratch states.
type core struct {
	base    uint32
	limit   uint32
	entry   uint32
	nodes   []node
	entries []uint64 // bitset over rows: function-entry policy (JOP)
	slots   int      // loop registers per frame
	segCap  uint64   // visits without progress before a cycle prune
	states  int      // populated rows, for Stats

	pool sync.Pool // *decodeState

	// admit is the lazily built packet-admissibility screen (admit.go);
	// dictionary recompiles share it through the shared core.
	admitOnce sync.Once
	admit     *admitIndex
}

// Dictionary returns the bound dictionary (nil when compiled without one).
func (m *Machine) Dictionary() *speccfa.Dictionary { return m.dict }

// SetCounters attaches the persistent counter block decode activity is
// reported to (nil detaches). Returns m for chaining.
func (m *Machine) SetCounters(c *Counters) *Machine {
	m.counters = c
	return m
}

// Counters returns the attached counter block (nil when detached).
func (m *Machine) Counters() *Counters { return m.counters }

// WithCounters returns a Machine reporting decode activity to c, sharing
// the compiled core and dictionary binding (m itself when already
// attached). Unlike SetCounters it never mutates m, so it is safe on a
// machine other goroutines are decoding with.
func (m *Machine) WithCounters(c *Counters) *Machine {
	if m.counters == c {
		return m
	}
	nm := *m
	nm.counters = c
	return &nm
}

// Stats sizes the compiled table.
func (m *Machine) Stats() Stats {
	return Stats{
		States:     m.core.states,
		Rows:       len(m.core.nodes),
		TableBytes: int64(len(m.core.nodes))*int64(nodeBytes) + int64(len(m.core.entries))*8,
		LoopSlots:  m.core.slots,
		DictPaths:  m.dict.Len(),
	}
}

// WithDictionary returns a Machine decoding against dict, sharing the
// compiled core. Passing the already-bound dictionary returns m itself.
func (m *Machine) WithDictionary(dict *speccfa.Dictionary) *Machine {
	if dict == m.dict {
		return m
	}
	nm := &Machine{core: m.core, dict: dict, counters: m.counters}
	nm.bindDict()
	return nm
}

func (m *Machine) bindDict() {
	for _, sp := range m.dict.Paths() {
		m.markers[sp.ID] = sp.Packets
	}
}

// isEntry reports whether addr is a function entry (indirect-call policy).
func (c *core) isEntry(addr uint32) bool {
	if addr < c.base || addr >= c.limit || (addr-c.base)&1 != 0 {
		return false
	}
	i := (addr - c.base) >> 1
	return c.entries[i>>6]&(1<<(i&63)) != 0
}
