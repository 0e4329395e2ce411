package speccfa

import (
	"math/bits"
	"slices"

	"raptrack/internal/trace"
)

// Mine derives a dictionary from an observed packet stream (typically the
// Verifier's reconstruction input from a previous accepted session): it
// scores subsequences of length minLen..maxLen by the bytes a compression
// pass would save and keeps the best non-redundant maxPaths of them.
//
// Candidates rank by saving, then length (both descending), then by their
// little-endian MTB encoding (ascending); a candidate that is a substring
// of an already-chosen path is skipped. Windows are counted with
// overlaps, and a window overlapping a marker-range source is never
// minable.
//
// Cost: n packets × (maxLen-minLen+1) lengths of hashing and table
// probes, plus a heap offer per repeated window. The number of
// allocations is fixed; none is made per window.
func Mine(stream []trace.Packet, maxPaths, minLen, maxLen int) (*Dictionary, error) {
	if maxPaths <= 0 || maxPaths > MaxPaths {
		maxPaths = 16
	}
	if minLen < 2 {
		minLen = 2
	}
	if maxLen < minLen {
		maxLen = minLen
	}
	n := len(stream)
	maxLen = min(maxLen, n) // longer windows do not exist
	if maxLen < minLen {
		return NewDictionary()
	}
	// Markers stand for already-compressed sub-paths, and a dictionary
	// path may never contain one. nextMarker[i] is the smallest j >= i
	// with a marker at j (n when none), so each window is a range check.
	nextMarker := make([]int32, n+1)
	nextMarker[n] = int32(n)
	for i := n - 1; i >= 0; i-- {
		if stream[i].Src >= MarkerBase {
			nextMarker[i] = int32(i)
		} else {
			nextMarker[i] = nextMarker[i+1]
		}
	}
	// hash[i] covers stream[i:i+l] and grows by one packet per length.
	hash := make([]uint64, n)
	for l := 1; l < minLen; l++ {
		for i := 0; i+l <= n; i++ {
			hash[i] = roll(hash[i], stream[i+l-1])
		}
	}
	tabBits := bits.Len(uint(2*n - 1))
	tab := make([]slot, 1<<tabBits)
	mask := uint64(len(tab) - 1)
	top := &ranking{stream: stream, heap: make([]window, 0, rankDepth(n, maxPaths, minLen, maxLen))}
	for l := minLen; l <= maxLen; l++ {
		clear(tab)
		for i := 0; i+l <= n; i++ {
			h := roll(hash[i], stream[i+l-1])
			hash[i] = h
			if int(nextMarker[i]) < i+l {
				continue
			}
			// The hash only picks the bucket chain: every hit is confirmed
			// packet by packet.
			for j := (h * 0x9E37_79B9_7F4A_7C15) >> (64 - tabBits); ; j = (j + 1) & mask {
				s := &tab[j]
				if s.count == 0 {
					*s = slot{hash: h, first: int32(i), count: 1}
					break
				}
				if s.hash == h && slices.Equal(stream[s.first:int(s.first)+l], stream[i:i+l]) {
					s.count++
					break
				}
			}
		}
		for _, s := range tab {
			if s.count >= 2 {
				// A run of count occurrences collapses to one marker packet.
				top.offer(window{first: s.first, length: int32(l), saving: (int(s.count)*l - 1) * trace.PacketSize})
			}
		}
	}
	chosen := make([][]trace.Packet, 0, maxPaths)
	for _, w := range top.sorted() {
		if len(chosen) >= maxPaths {
			break
		}
		seq := top.seq(w)
		// Skip candidates that are substrings of an already-chosen path
		// (the longer path subsumes them under longest-first matching).
		if !slices.ContainsFunc(chosen, func(ch []trace.Packet) bool { return containsSub(ch, seq) }) {
			chosen = append(chosen, seq)
		}
	}
	return NewDictionary(chosen...)
}

// slot is one entry of Mine's open-addressing window table; count 0
// marks it empty.
type slot struct {
	hash  uint64
	first int32 // stream index of the window's first occurrence
	count int32
}

// window is one mining candidate: the repeated subsequence
// stream[first:first+length] and the bytes its compression would save.
type window struct {
	first, length int32
	saving        int
}

// roll extends a window hash by one packet.
func roll(h uint64, p trace.Packet) uint64 {
	return (bits.RotateLeft64(h, 29) ^ (uint64(p.Src)<<32 | uint64(p.Dst))) * 0xBF58_476D_1CE4_E5B9
}

// rankDepth bounds how many top-ranked candidates the greedy choice in
// Mine can examine. Each examined candidate is either chosen (at most
// maxPaths) or a distinct proper substring of a chosen path; a path of at
// most maxLen packets has fewer than maxLen*(maxLen-1)/2 of those. There
// are also at most n/2 candidates per length.
func rankDepth(n, maxPaths, minLen, maxLen int) int {
	return min(maxPaths*(1+maxLen*(maxLen-1)/2), n/2*(maxLen-minLen+1))
}

// ranking keeps the cap(heap) best candidates offered so far, as a heap
// whose root is the worst of them.
type ranking struct {
	stream []trace.Packet
	heap   []window
}

func (r *ranking) seq(w window) []trace.Packet {
	return r.stream[w.first : w.first+w.length]
}

// ahead reports whether a ranks before b: higher saving, then longer,
// then smaller little-endian encoding. Distinct sequences never tie.
func (r *ranking) ahead(a, b window) bool {
	if a.saving != b.saving {
		return a.saving > b.saving
	}
	if a.length != b.length {
		return a.length > b.length
	}
	return lessLE(r.seq(a), r.seq(b))
}

func (r *ranking) offer(w window) {
	h := r.heap
	if len(h) < cap(h) {
		h = append(h, w)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !r.ahead(h[p], h[i]) {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		r.heap = h
		return
	}
	if !r.ahead(w, h[0]) {
		return
	}
	h[0] = w
	for i := 0; ; {
		worst, c := i, 2*i+1
		if c < len(h) && r.ahead(h[worst], h[c]) {
			worst = c
		}
		if c+1 < len(h) && r.ahead(h[worst], h[c+1]) {
			worst = c + 1
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// sorted returns the kept candidates best first.
func (r *ranking) sorted() []window {
	slices.SortFunc(r.heap, func(a, b window) int {
		if r.ahead(a, b) {
			return -1
		}
		if r.ahead(b, a) {
			return 1
		}
		return 0
	})
	return r.heap
}

// lessLE orders equal-length packet sequences as their MTB encodings
// (little-endian Src then Dst per packet) compare bytewise.
func lessLE(a, b []trace.Packet) bool {
	for i := range a {
		if x, y := bits.ReverseBytes32(a[i].Src), bits.ReverseBytes32(b[i].Src); x != y {
			return x < y
		}
		if x, y := bits.ReverseBytes32(a[i].Dst), bits.ReverseBytes32(b[i].Dst); x != y {
			return x < y
		}
	}
	return false
}
