package verify

import "raptrack/internal/trace"

// ReplayCertified is ReplayPackets with the certify pass on whatever the
// stream's length, as if the automaton had declined it: the early-exit
// render, checked against the full fixed point ReplayPackets runs.
func ReplayCertified(v *Verifier, packets []trace.Packet) *Verdict {
	return v.reconstruct(packets, true)
}
