package core

import "raptrack/internal/trace"

// HijackTarget is the out-of-image destination of the insert-hijack
// corruption: a transfer from a genuine branch site to an address the
// linked image does not cover.
const HijackTarget = 0x0ff0_0000

// Corruptions returns deterministic evidence mutations of pk covering the
// rejection space, keyed by class: wrong destinations, spurious and
// missing packets, truncation, reordering, an inserted hijack and an
// empty stream. The conformance suites, the verifier fuzz seeds and the
// reject cells of the verifier benchmark all draw from this one set.
func Corruptions(pk []trace.Packet) map[string][]trace.Packet {
	mut := make(map[string][]trace.Packet)
	cp := func() []trace.Packet { return append([]trace.Packet(nil), pk...) }
	if len(pk) == 0 {
		return mut
	}
	mid := len(pk) / 2

	m := cp()
	m[mid].Dst ^= 4
	mut["flip-dst"] = m

	m = cp()
	m[mid].Src ^= 4
	mut["flip-src"] = m

	mut["drop-packet"] = append(cp()[:mid], pk[mid+1:]...)
	mut["truncate"] = cp()[:mid]
	mut["empty"] = nil

	m = cp()
	m = append(m, m[len(m)-1])
	mut["dup-last"] = m

	if len(pk) > 1 {
		m = cp()
		m[mid-1], m[mid] = m[mid], m[mid-1]
		mut["swap-adjacent"] = m
	}

	m = cp()
	m = append(m, trace.Packet{Src: 0x1000_0000, Dst: 0x2000_0000})
	mut["append-bogus"] = m

	// The compromised-device shape: one extra packet mid-stream, leaving
	// from the genuine source of the packet it lands before.
	m = append(cp()[:mid], trace.Packet{Src: pk[mid].Src, Dst: HijackTarget})
	mut["insert-hijack"] = append(m, pk[mid:]...)
	return mut
}
