package verify

import "raptrack/internal/trace"

// Diag runs the full fixed-point search and reports memo geometry
// (diagnostic/benchmark aid): entry count, total outcomes, advance-memo
// size and abstract work.
func Diag(v *Verifier, packets []trace.Packet) (entries, outcomes, advs int, work uint64) {
	entryPC, _ := v.link.Image.EntryAddr()
	s := newSummarizer(v, packets)
	s.drain(entryPC)
	for _, e := range s.memo {
		outcomes += len(e.outs)
	}
	return len(s.memo), outcomes, len(s.advMemo), s.work
}
