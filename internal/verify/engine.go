package verify

import (
	"raptrack/internal/attest"
	"raptrack/internal/speccfa"
	"raptrack/internal/trace"
	"raptrack/internal/verify/automaton"
)

// Automaton is the compiled table-driven verifier core: the per-app CFG
// and its SpecCFA dictionary lowered into a flat transition table with a
// zero-allocation decode loop (see package verify/automaton). It is the
// default engine for the accept path; the interpretive pushdown search
// stays on as the reference oracle and renders every non-accept verdict,
// which keeps reject/Inconclusive/error verdicts bit-identical to the
// interpreter by construction. A stream the automaton declined goes
// through the interpreter's certify pass first, so a reject stops at the
// contradiction that decides it (see reconstruct).
type Automaton = automaton.Machine

// AutomatonCounters aggregates automaton compile/decode activity. A
// gateway attaches one per app so metrics stay monotonic across the fresh
// Machines produced by DICT-bump recompiles.
type AutomatonCounters = automaton.Counters

// AutomatonStats sizes one compiled table.
type AutomatonStats = automaton.Stats

// Automaton returns the Verifier's compiled machine (nil when the
// automaton is disabled or compilation failed, leaving the interpreter).
func (v *Verifier) Automaton() *Automaton { return v.aut }

// CompileAutomaton lowers v's golden artifact against dict, reusing v's
// compiled transition core when available so a gateway DICT version bump
// recompiles in O(dictionary) rather than O(image). Returns (nil, nil)
// when the automaton is disabled on v. Gateways pair each dictionary
// snapshot with the machine compiled for it (the per-session-snapshot
// invariant: a session verifies against one consistent dictionary+machine
// pair even while mining promotes a new version concurrently).
func (v *Verifier) CompileAutomaton(dict *speccfa.Dictionary) (*Automaton, error) {
	if !v.opts.automaton {
		return nil, nil
	}
	if v.aut != nil {
		return v.aut.WithDictionary(dict), nil
	}
	return automaton.Compile(v.link, dict)
}

// reconcileAutomaton re-derives v.aut after option changes (Verifier.With):
// disabling drops the machine, a dictionary change rebinds the shared
// core, and enabling from scratch compiles. Compile errors leave the
// interpreter (aut == nil), matching New.
func (v *Verifier) reconcileAutomaton() {
	switch {
	case !v.opts.automaton:
		v.aut = nil
	case v.aut != nil:
		if v.aut.Dictionary() != v.opts.spec {
			v.aut = v.aut.WithDictionary(v.opts.spec)
		}
	default:
		if m, err := automaton.Compile(v.link, v.opts.spec); err == nil {
			v.aut = m
		}
	}
}

// VerifyWithAutomaton is VerifyWithDictionary with an explicit engine: aut
// decodes the accept path (nil, or a machine bound to a different
// dictionary than required, degrades to the interpreter). Gateways pass
// the machine snapshotted with the session's dictionary.
//
// Engine equivalence: an automaton accept is a validated benign
// derivation carrying the same witness the interpreter materializes; on
// any non-accept the interpreter runs and renders the authoritative
// verdict — certified first, so it stops at the deciding contradiction
// when the pass allows, which is exact — so rejection codes, details and
// errors never depend on the engine. The one
// documented exception is the work budget: the automaton
// counts abstract instructions on the single speculative walk, not the
// whole fixed point, so a stream the interpreter would abort on
// ReasonWorkBudget can instead be accepted if the walk fits the budget —
// the same engine-dependence the verdict cache already has (budget
// verdicts are never cached for exactly that reason).
// VerifyWithAutomaton is a thin Begin/Feed/Seal loop over [Session]: the
// whole chain is fed with per-slice checking disabled, so the only work is
// the incremental chain authentication (identical to AssembleChain) and
// the sealed whole-stream verification. Streamed sessions run the same
// Seal, which is what keeps their verdicts bit-identical to this path.
func (v *Verifier) VerifyWithAutomaton(chal attest.Challenge, reports []*attest.Report, dict *speccfa.Dictionary, aut *Automaton) (*Verdict, error) {
	s := v.Begin(chal, SessionDictionary(dict), SessionAutomaton(aut), SessionSliceChecks(false))
	for _, r := range reports {
		s.Feed(r)
	}
	return s.Seal()
}

// ReplayPacketsAutomaton is ReplayPackets through the fast path: the
// stream is decoded against v's compiled table, with any non-accept
// certified and rendered by the interpreter. The differential conformance suite
// compares this against ReplayPackets (pure interpreter) packet-for-packet.
func (v *Verifier) ReplayPacketsAutomaton(packets []trace.Packet) *Verdict {
	if v.opts.automaton && v.aut != nil {
		res, st := v.aut.Decode(packets, v.opts.pathCap, v.opts.maxInstrs)
		if st == automaton.StatusAccept {
			return acceptVerdict(&res)
		}
		return v.reconstruct(packets, len(packets) >= certifyMinPackets)
	}
	return v.reconstruct(packets, false)
}

// acceptVerdict shapes an automaton accept as the Verdict the interpreter
// would materialize: same witness edges, transfers, loop replays and
// consumed-packet accounting. Instrs/Passes describe this engine's effort
// (decode work and 1+backtracks), as they describe search effort on the
// interpreter.
func acceptVerdict(res *automaton.Result) *Verdict {
	return &Verdict{
		OK:            true,
		Packets:       res.PacketsUsed,
		PacketsUsed:   res.PacketsUsed,
		Instrs:        res.Work,
		Transfers:     res.Transfers,
		LoopsReplayed: res.LoopsReplayed,
		Passes:        int(res.Backtracks) + 1,
		Path:          res.Path,
	}
}
