package speccfa

import (
	"sort"

	"raptrack/internal/trace"
	"raptrack/internal/trace/pipeline"
)

// ReferenceMine is the straightforward miner Mine must match bit for bit:
// a map keyed by each window's MTB encoding per length, then a stable
// sort of every candidate. It is the oracle for the
// differential tests and the baseline for BenchmarkMine.
func ReferenceMine(stream []trace.Packet, maxPaths, minLen, maxLen int) (*Dictionary, error) {
	if maxPaths <= 0 || maxPaths > MaxPaths {
		maxPaths = 16
	}
	if minLen < 2 {
		minLen = 2
	}
	if maxLen < minLen {
		maxLen = minLen
	}
	var cands []refCand
	// nextMarker[i] is the smallest j >= i with a marker at j (len(stream)
	// when none), so each window is a range check.
	nextMarker := make([]int, len(stream)+1)
	nextMarker[len(stream)] = len(stream)
	for i := len(stream) - 1; i >= 0; i-- {
		if stream[i].Src >= MarkerBase {
			nextMarker[i] = i
		} else {
			nextMarker[i] = nextMarker[i+1]
		}
	}
	for l := maxLen; l >= minLen; l-- {
		counts := make(map[string]int)
		firsts := make(map[string]int)
		for i := 0; i+l <= len(stream); i++ {
			if nextMarker[i] < i+l {
				continue
			}
			key := packetsKey(stream[i : i+l])
			if _, ok := firsts[key]; !ok {
				firsts[key] = i
			}
			counts[key]++
		}
		for key, n := range counts {
			if n < 2 {
				continue
			}
			cands = append(cands, refCand{
				seq:    append([]trace.Packet(nil), stream[firsts[key]:firsts[key]+l]...),
				saving: (n*l - 1) * trace.PacketSize,
			})
		}
	}
	// Highest saving first (deterministic tiebreak by key). The order is
	// total over distinct sequences, so any stable sort gives the same
	// result as the insertion sort the production miner once used.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].better(cands[j]) })
	var chosen [][]trace.Packet
	for _, c := range cands {
		if len(chosen) >= maxPaths {
			break
		}
		redundant := false
		for _, ch := range chosen {
			if containsSub(ch, c.seq) {
				redundant = true
				break
			}
		}
		if !redundant {
			chosen = append(chosen, c.seq)
		}
	}
	return NewDictionary(chosen...)
}

type refCand struct {
	seq    []trace.Packet
	saving int
}

func (a refCand) better(b refCand) bool {
	if a.saving != b.saving {
		return a.saving > b.saving
	}
	if len(a.seq) != len(b.seq) {
		return len(a.seq) > len(b.seq)
	}
	return packetsKey(a.seq) < packetsKey(b.seq)
}

func packetsKey(ps []trace.Packet) string {
	return string(pipeline.EncodeMTB(ps))
}
