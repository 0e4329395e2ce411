// Early-exit render tests: a rejecting stream stops the search at the
// contradiction that decides its verdict, and that verdict must equal the
// full fixed point's on every evidence stream, cache off and on.
package verify_test

import (
	"reflect"
	"sync"
	"testing"

	"raptrack/internal/apps"
	"raptrack/internal/attest"
	"raptrack/internal/core"
	"raptrack/internal/linker"
	"raptrack/internal/trace"
	"raptrack/internal/trace/pipeline"
	"raptrack/internal/verify"
)

// renderInvariant is the Verdict projection the early exit must keep:
// everything but the search-effort counters, wall clock and evidence.
type renderInvariant struct {
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

func renderOf(vd *verify.Verdict) renderInvariant {
	return renderInvariant{vd.OK, vd.Code, vd.Detail, vd.FailPC, vd.Packets, vd.PacketsUsed,
		vd.Transfers, vd.LoopsReplayed, vd.Path}
}

// sameRender fails t when the early-exit verdict differs from the full
// fixed point's.
func sameRender(t *testing.T, label string, full, early *verify.Verdict) {
	t.Helper()
	if f, e := renderOf(full), renderOf(early); !reflect.DeepEqual(f, e) {
		t.Errorf("%s: early exit diverges from the full fixed point\n  full:  ok=%v %s failpc=%#x path=%d\n  early: ok=%v %s failpc=%#x path=%d",
			label, f.OK, full.Reason(), f.FailPC, len(f.Path), e.OK, early.Reason(), e.FailPC, len(e.Path))
	}
}

// attestedApp links and attests an evaluation app, returning the artifact,
// its key and the decoded evidence stream.
func attestedApp(tb testing.TB, name string) (*linker.Output, attest.Authenticator, []trace.Packet) {
	tb.Helper()
	a, err := apps.Get(name)
	if err != nil {
		tb.Fatal(err)
	}
	out, err := core.LinkForCFA(a.Build(), core.DefaultLinkOptions())
	if err != nil {
		tb.Fatal(err)
	}
	key, err := attest.GenerateHMACKey()
	if err != nil {
		tb.Fatal(err)
	}
	prover, err := core.NewProver(out, key, core.ProverConfig{SetupMem: a.SetupMem(), MaxSteps: a.MaxSteps})
	if err != nil {
		tb.Fatal(err)
	}
	chal, err := attest.NewChallenge(name)
	if err != nil {
		tb.Fatal(err)
	}
	reports, _, err := prover.Attest(chal)
	if err != nil {
		tb.Fatal(err)
	}
	log, _, err := attest.AssembleChain(reports, chal, key)
	if err != nil {
		tb.Fatal(err)
	}
	return out, key, decodeLog(tb, log)
}

func decodeLog(tb testing.TB, log []byte) []trace.Packet {
	tb.Helper()
	pk, derr := pipeline.New(pipeline.Raw(pipeline.FormatMTB, log)).Packets()
	if derr != nil {
		tb.Fatal(derr)
	}
	return pk
}

// TestRejectRenderApps: on every evaluation app and corruption class, the
// early exit renders the full fixed point's verdict, uncached and on one
// shared cache, both through the certify hook and behind the automaton.
// The honest stream replayed on that cache after all its rejects must
// still accept: the early exit may not leave a truncated segment summary
// behind.
func TestRejectRenderApps(t *testing.T) {
	for _, name := range apps.EvalOrder {
		name := name
		t.Run(name, func(t *testing.T) {
			out, key, pk := attestedApp(t, name)
			ref := core.NewVerifier(out, key, verify.WithAutomaton(false), verify.WithMaxInstrs(20_000_000))
			fast := core.NewVerifier(out, key, verify.WithMaxInstrs(20_000_000))
			cache := verify.NewCache(64 << 20)
			refC, fastC := ref.With(verify.WithCache(cache)), fast.With(verify.WithCache(cache))
			for class, mpk := range core.Corruptions(pk) {
				full := ref.ReplayPackets(mpk)
				sameRender(t, class+"/certified", full, verify.ReplayCertified(ref, mpk))
				sameRender(t, class+"/automaton", full, fast.ReplayPacketsAutomaton(mpk))
				sameRender(t, class+"/certified+cache", full, verify.ReplayCertified(refC, mpk))
				sameRender(t, class+"/automaton+cache", full, fastC.ReplayPacketsAutomaton(mpk))
			}
			honest := refC.ReplayPackets(pk)
			if !honest.OK {
				t.Fatalf("honest stream after rejects on a shared cache: %s", honest.Reason())
			}
			sameRender(t, "honest+cache", ref.ReplayPackets(pk), honest)
		})
	}
}

// TestRejectRenderConcurrent: sessions rendering rejects at once on one
// shared cache replay each other's segment walks, notes included, and
// must each render the full fixed point's verdict.
func TestRejectRenderConcurrent(t *testing.T) {
	out, key, pk := attestedApp(t, "fibcall")
	ref := core.NewVerifier(out, key, verify.WithAutomaton(false))
	fast := core.NewVerifier(out, key, verify.WithCache(verify.NewCache(8<<20)))
	var streams [][]trace.Packet
	var want []*verify.Verdict
	for _, mpk := range core.Corruptions(pk) {
		streams = append(streams, mpk)
		want = append(want, ref.ReplayPackets(mpk))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range streams {
				j := (g + i) % len(streams)
				if f, e := renderOf(want[j]), renderOf(fast.ReplayPacketsAutomaton(streams[j])); !reflect.DeepEqual(f, e) {
					t.Errorf("stream %d: concurrent render %s, want %s", j, e.Code, f.Code)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRejectRenderBudget: a stream whose full fixed point just exceeds the
// budget still renders ReasonWorkBudget through both engines, and one
// instruction more of budget renders the decided verdict.
func TestRejectRenderBudget(t *testing.T) {
	out, key, pk := attestedApp(t, "fibcall")
	mpk := core.Corruptions(pk)["insert-hijack"]
	v := core.NewVerifier(out, key)
	work := v.ReplayPackets(mpk).Instrs

	tight := v.With(verify.WithMaxInstrs(work - 1))
	for label, vd := range map[string]*verify.Verdict{
		"full":      tight.ReplayPackets(mpk),
		"certified": verify.ReplayCertified(tight, mpk),
		"automaton": tight.ReplayPacketsAutomaton(mpk),
	} {
		if vd.Code != verify.ReasonWorkBudget {
			t.Errorf("%s at budget %d: %s, want work-budget", label, work-1, vd.Reason())
		}
	}

	fits := v.With(verify.WithMaxInstrs(work))
	full := fits.ReplayPackets(mpk)
	if full.Code != verify.ReasonEscape && full.Code != verify.ReasonROP && full.Code != verify.ReasonJOP {
		t.Fatalf("hijack renders %s, want an attack code", full.Reason())
	}
	sameRender(t, "certified", full, verify.ReplayCertified(fits, mpk))
	sameRender(t, "automaton", full, fits.ReplayPacketsAutomaton(mpk))
}

// FuzzRejectRender replays arbitrary MTB bytes against a linked program
// and compares the early-exit render (the certify hook) with the full
// fixed point. Seeds are the honest stream and every corruption class.
func FuzzRejectRender(f *testing.F) {
	out, key, pk := attestedApp(f, "fibcall")
	f.Add(pipeline.EncodeMTB(pk))
	for _, mpk := range core.Corruptions(pk) {
		f.Add(pipeline.EncodeMTB(mpk))
	}
	v := core.NewVerifier(out, key, verify.WithAutomaton(false), verify.WithMaxInstrs(2_000_000))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip("stream beyond fuzz size budget")
		}
		mpk := decodeLog(t, data)
		sameRender(t, "fuzz", v.ReplayPackets(mpk), verify.ReplayCertified(v, mpk))
	})
}
