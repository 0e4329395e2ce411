package core

import (
	"testing"

	"raptrack/internal/attest"
	"raptrack/internal/trace/pipeline"
	"raptrack/internal/verify"
)

// FuzzAutomatonDifferential fuzzes the engine-equivalence contract
// itself: arbitrary bytes are decoded as an MTB packet stream and
// replayed through both the interpretive pushdown search and the
// compiled automaton. Any divergence on the invariant Verdict projection
// (outside the documented budget band — see diffEngines) is a bug in one
// of the engines. Seeds cover a benign attested stream of a structured
// fuzz program plus every corruption class the conformance suite pins.
// Both engines render non-accepts through the same early-exit search, so
// this target does not check the early exit against the full fixed
// point; FuzzRejectRender in internal/verify does.
func FuzzAutomatonDifferential(f *testing.F) {
	prog := generate(7)
	out, err := LinkForCFA(prog, DefaultLinkOptions())
	if err != nil {
		f.Fatal(err)
	}
	key, err := attest.GenerateHMACKey()
	if err != nil {
		f.Fatal(err)
	}
	prover, err := NewProver(out, key, ProverConfig{MaxSteps: 20_000_000})
	if err != nil {
		f.Fatal(err)
	}
	chal, err := attest.NewChallenge(prog.Name)
	if err != nil {
		f.Fatal(err)
	}
	reports, _, err := prover.Attest(chal)
	if err != nil {
		f.Fatal(err)
	}
	log, _, err := attest.AssembleChain(reports, chal, key)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	for _, mpk := range Corruptions(decodeMTB(f, log)) {
		f.Add(pipeline.EncodeMTB(mpk))
	}
	f.Add([]byte{})
	f.Add([]byte{0xfe, 0xff, 0xff, 0xff, 0x00, 0x00, 0x20, 0x00}) // halt-sentinel-ish

	// The work budget bounds the interpreter's fixed point on adversarial
	// streams; the budget band in diffEngines keeps that sound.
	ref := NewVerifier(out, key, verify.WithAutomaton(false), verify.WithMaxInstrs(2_000_000))
	fast := NewVerifier(out, key, verify.WithMaxInstrs(2_000_000))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip("stream beyond fuzz size budget")
		}
		diffEngines(t, ref, fast, decodeMTB(t, data), "fuzz")
	})
}
