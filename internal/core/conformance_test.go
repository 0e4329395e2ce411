package core

import (
	"fmt"
	"testing"

	"raptrack/internal/apps"
	"raptrack/internal/attest"
	"raptrack/internal/cpu"
	"raptrack/internal/trace"
	"raptrack/internal/trace/pipeline"
	"raptrack/internal/verify"
)

// decodeMTB decodes a CFLog through the pipeline's lenient MTB path —
// the same framing the verifier applies to assembled chains.
func decodeMTB(tb testing.TB, b []byte) []trace.Packet {
	tb.Helper()
	ps, derr := pipeline.New(pipeline.Raw(pipeline.FormatMTB, b)).Packets()
	if derr != nil {
		tb.Fatal(derr)
	}
	return ps
}

// Differential engine conformance: the compiled table-driven automaton
// (the default accept path) against the interpretive pushdown search (the
// reference oracle), over benign fuzz programs, the evaluation workloads,
// corrupted evidence, trace-loss evidence, and budget-abort edges. The
// two engines must render identical Verdicts on the invariant projection
// below; the single documented divergence is the work budget (see
// Verifier.VerifyWithAutomaton), which gets its own weaker check.

// engineInvariant is the Verdict projection both engines must agree on.
// Instrs and Passes describe per-engine search effort, Timing is wall
// clock, and Evidence is stamped by the calling pipeline — all excluded
// by design, everything else compared field for field.
type engineInvariant struct {
	OK            bool
	Code          verify.ReasonCode
	Detail        string
	FailPC        uint32
	Packets       int
	PacketsUsed   int
	Transfers     uint64
	LoopsReplayed uint64
	Path          []verify.Edge
}

func invariantOf(vd *verify.Verdict) engineInvariant {
	return engineInvariant{
		OK:            vd.OK,
		Code:          vd.Code,
		Detail:        vd.Detail,
		FailPC:        vd.FailPC,
		Packets:       vd.Packets,
		PacketsUsed:   vd.PacketsUsed,
		Transfers:     vd.Transfers,
		LoopsReplayed: vd.LoopsReplayed,
		Path:          vd.Path,
	}
}

func (a engineInvariant) equal(b engineInvariant) bool {
	if a.OK != b.OK || a.Code != b.Code || a.Detail != b.Detail || a.FailPC != b.FailPC ||
		a.Packets != b.Packets || a.PacketsUsed != b.PacketsUsed ||
		a.Transfers != b.Transfers || a.LoopsReplayed != b.LoopsReplayed ||
		len(a.Path) != len(b.Path) {
		return false
	}
	ordered := true
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			ordered = false
			break
		}
	}
	if ordered {
		return true
	}
	// Non-accepts come from the same interpreter run on both engines, so
	// their paths must match edge for edge. On accepts, presence-encoded
	// evidence from recursive programs can admit several benign
	// derivations; each engine materializes one valid witness, so the
	// invariant is the edge multiset (same transfers, possibly interleaved
	// differently across recursion levels), not the edge order.
	if !a.OK {
		return false
	}
	counts := make(map[verify.Edge]int, len(a.Path))
	for _, e := range a.Path {
		counts[e]++
	}
	for _, e := range b.Path {
		counts[e]--
		if counts[e] < 0 {
			return false
		}
	}
	return true
}

func (a engineInvariant) String() string {
	return fmt.Sprintf("ok=%v code=%v detail=%q failpc=%#x packets=%d/%d transfers=%d loops=%d path=%d edges",
		a.OK, a.Code, a.Detail, a.FailPC, a.PacketsUsed, a.Packets, a.Transfers, a.LoopsReplayed, len(a.Path))
}

// diffEngines replays pk through both engines and fails the test on any
// invariant divergence. The one tolerated asymmetry is the documented
// budget band: when the interpreter aborts on ReasonWorkBudget, the
// automaton may accept instead (its single walk can fit a budget the full
// fixed point does not), but it must never render a different rejection.
func diffEngines(t *testing.T, ref, fast *verify.Verifier, pk []trace.Packet, label string) {
	t.Helper()
	ri := invariantOf(ref.ReplayPackets(pk))
	fi := invariantOf(fast.ReplayPacketsAutomaton(pk))
	if ri.equal(fi) {
		return
	}
	if ri.Code == verify.ReasonWorkBudget && fi.OK {
		return // documented budget-band divergence
	}
	t.Errorf("%s: engines diverge\n  interpreter: %s\n  automaton:   %s", label, ri, fi)
}

// attestedPackets runs prog attested and returns its linked artifact, key
// and the decoded (pre-expansion) evidence stream.
func attestedPackets(t *testing.T, seed int64) (*verify.Verifier, *verify.Verifier, []trace.Packet) {
	t.Helper()
	prog := generate(seed)
	out, err := LinkForCFA(prog, DefaultLinkOptions())
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	key, err := attest.GenerateHMACKey()
	if err != nil {
		t.Fatal(err)
	}
	prover, err := NewProver(out, key, ProverConfig{MaxSteps: 20_000_000})
	if err != nil {
		t.Fatal(err)
	}
	chal := mustChal(t, prog.Name)
	reports, _, err := prover.Attest(chal)
	if err != nil {
		t.Fatalf("attest: %v", err)
	}
	log, _, err := attest.AssembleChain(reports, chal, key)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	ref := NewVerifier(out, key, verify.WithAutomaton(false))
	fast := NewVerifier(out, key)
	return ref, fast, decodeMTB(t, log)
}

// TestEngineConformanceFuzz: benign evidence from random structured
// programs must verify identically through both engines.
func TestEngineConformanceFuzz(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			ref, fast, pk := attestedPackets(t, seed)
			if fast.Automaton() == nil {
				t.Fatal("automaton did not compile for fuzz program")
			}
			diffEngines(t, ref, fast, pk, "benign")
		})
	}
}

// TestEngineConformanceCorrupted: every corruption must reject (or
// coincidentally accept) identically through both engines — rejection
// codes, details, fail PCs and witness paths may never depend on the
// engine. The instruction budget is lowered so degenerate corruptions
// cannot make the interpreter's fixed point excessively expensive.
func TestEngineConformanceCorrupted(t *testing.T) {
	seeds := []int64{3, 7, 11, 19}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			ref, fast, pk := attestedPackets(t, seed)
			ref = ref.With(verify.WithMaxInstrs(20_000_000))
			fast = fast.With(verify.WithMaxInstrs(20_000_000))
			for name, mpk := range Corruptions(pk) {
				diffEngines(t, ref, fast, mpk, name)
			}
		})
	}
}

// TestEngineConformanceApps: the evaluation workloads — including the
// deep-recursion stream that forces the automaton through its
// summarization rescue pass — must verify identically.
func TestEngineConformanceApps(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			out, err := LinkForCFA(a.Build(), DefaultLinkOptions())
			if err != nil {
				t.Fatalf("link: %v", err)
			}
			key, err := attest.GenerateHMACKey()
			if err != nil {
				t.Fatal(err)
			}
			prover, err := NewProver(out, key, ProverConfig{SetupMem: a.SetupMem()})
			if err != nil {
				t.Fatal(err)
			}
			chal := mustChal(t, a.Name)
			reports, _, err := prover.Attest(chal)
			if err != nil {
				t.Fatalf("attest: %v", err)
			}
			log, _, err := attest.AssembleChain(reports, chal, key)
			if err != nil {
				t.Fatal(err)
			}
			pk := decodeMTB(t, log)
			ref := NewVerifier(out, key, verify.WithAutomaton(false))
			fast := NewVerifier(out, key)
			diffEngines(t, ref, fast, pk, "benign")
			for name, mpk := range Corruptions(pk) {
				diffEngines(t, ref.With(verify.WithMaxInstrs(20_000_000)),
					fast.With(verify.WithMaxInstrs(20_000_000)), mpk, name)
			}
		})
	}
}

// TestEngineConformanceInconclusive: wrap-loss evidence (the MTB
// overruns with the watermark drain suppressed, the loss counters ride
// the signed reports) must render the identical Inconclusive verdict
// through the full Verify pipeline of both engines.
func TestEngineConformanceInconclusive(t *testing.T) {
	a, err := apps.Get("prime")
	if err != nil {
		t.Fatal(err)
	}
	out, err := LinkForCFA(a.Build(), DefaultLinkOptions())
	if err != nil {
		t.Fatal(err)
	}
	key, err := attest.GenerateHMACKey()
	if err != nil {
		t.Fatal(err)
	}
	prover, err := NewProver(out, key, ProverConfig{
		SetupMem:      a.SetupMem(),
		MTBBufferSize: 256, // 32-packet buffer: prime overruns it
		Watermark:     128,
	})
	if err != nil {
		t.Fatal(err)
	}
	chal := mustChal(t, a.Name)
	if err := prover.Engine.Begin(chal); err != nil {
		t.Fatal(err)
	}
	prover.Engine.MTB.OnWatermark = nil // suppress draining: force wraps
	c, err := cpu.New(prover.Engine.CPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	reports, err := prover.Engine.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if reports[len(reports)-1].Wraps == 0 {
		t.Fatal("schedule did not wrap the MTB; the fixture no longer forces loss")
	}

	rv, err := NewVerifier(out, key, verify.WithAutomaton(false)).Verify(chal, reports)
	if err != nil {
		t.Fatal(err)
	}
	fv, err := NewVerifier(out, key).Verify(chal, reports)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Code != verify.ReasonInconclusive {
		t.Fatalf("interpreter code = %v, want inconclusive", rv.Code)
	}
	if ri, fi := invariantOf(rv), invariantOf(fv); !ri.equal(fi) {
		t.Errorf("engines diverge on trace loss\n  interpreter: %s\n  automaton:   %s", ri, fi)
	}
}

// TestEngineConformanceBudget probes the budget-abort edge directly: under
// a budget too small for the interpreter's fixed point, the automaton must
// either accept (the documented divergence — its single validated walk can
// fit the budget) or render the interpreter's exact budget verdict. Any
// third outcome is a conformance failure. Seeds 12 and 2 sit at budgets
// where the interpreter's search fits with little to spare: replaying the
// accepted derivation as the witness must not charge the budget again.
func TestEngineConformanceBudget(t *testing.T) {
	for _, c := range []struct {
		seed    int64
		budgets []uint64
	}{
		{5, []uint64{1, 100, 10_000, 1_000_000}},
		{12, []uint64{2000}},
		{2, []uint64{500}},
	} {
		ref, fast, pk := attestedPackets(t, c.seed)
		for _, budget := range c.budgets {
			r := ref.With(verify.WithMaxInstrs(budget)).ReplayPackets(pk)
			f := fast.With(verify.WithMaxInstrs(budget)).ReplayPacketsAutomaton(pk)
			switch {
			case f.OK:
				// Documented budget-band acceptance, or both engines fit.
			case invariantOf(r).equal(invariantOf(f)):
			default:
				t.Errorf("seed=%d budget=%d: interpreter %s vs automaton %s",
					c.seed, budget, invariantOf(r), invariantOf(f))
			}
			if !r.OK && r.Code != verify.ReasonWorkBudget && !f.OK && f.Code != r.Code {
				t.Errorf("seed=%d budget=%d: non-budget rejection diverged: %v vs %v", c.seed, budget, r.Code, f.Code)
			}
		}
	}
}
