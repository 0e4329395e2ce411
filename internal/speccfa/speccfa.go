// Package speccfa implements speculative sub-path compression of CFLog
// evidence, in the spirit of SpecCFA (Caulfield et al., ACSAC 2024), which
// the paper cites as the remedy for CFA's communication bottleneck (§V-B:
// "CFLog size directly impacts communication overhead/latency, often
// becoming the system's primary bottleneck [57]").
//
// The Verifier provisions a dictionary of speculated packet sub-paths
// (typically mined from a previous verified session). The Prover's CFA
// engine, before signing each report window, replaces maximal runs of
// matched sub-paths with one 8-byte marker packet carrying the path id and
// the repeat count. Loop-dominated evidence (per-iteration packets all
// alike) collapses dramatically. Decompression is exact, so verification
// remains lossless; a stream without markers decompresses to itself, so
// the Verifier can apply expansion unconditionally.
//
// Marker packets use source addresses in [MarkerBase, MarkerBase+256),
// a range that can never hold application code (the NS code window is far
// below it), so markers cannot collide with genuine evidence.
package speccfa

import (
	"fmt"

	"raptrack/internal/trace"
)

// MarkerBase is the source-address namespace for marker packets.
const MarkerBase uint32 = 0xFF00_0000

// MaxPaths is the dictionary capacity (path ids are one byte).
const MaxPaths = 256

// SubPath is one speculated packet subsequence.
type SubPath struct {
	ID      byte
	Packets []trace.Packet
}

// Dictionary is a Verifier-provisioned speculation set. Construct with
// NewDictionary or Mine.
type Dictionary struct {
	paths []SubPath
}

// NewDictionary builds a dictionary from packet subsequences, assigning
// ids in order. Paths must have length >= 2 (a 1-packet path cannot save
// anything) and must not contain marker-range sources.
func NewDictionary(paths ...[]trace.Packet) (*Dictionary, error) {
	if len(paths) > MaxPaths {
		return nil, fmt.Errorf("speccfa: %d paths exceed the %d-entry dictionary", len(paths), MaxPaths)
	}
	d := &Dictionary{}
	for i, p := range paths {
		if len(p) < 2 {
			return nil, fmt.Errorf("speccfa: path %d has %d packets (need >= 2)", i, len(p))
		}
		for _, pkt := range p {
			if pkt.Src >= MarkerBase {
				return nil, fmt.Errorf("speccfa: path %d contains a marker-range source %#x", i, pkt.Src)
			}
		}
		d.paths = append(d.paths, SubPath{ID: byte(i), Packets: append([]trace.Packet(nil), p...)})
	}
	// Longest-first matching maximizes savings.
	for i := 1; i < len(d.paths); i++ {
		for j := i; j > 0 && len(d.paths[j].Packets) > len(d.paths[j-1].Packets); j-- {
			d.paths[j], d.paths[j-1] = d.paths[j-1], d.paths[j]
		}
	}
	return d, nil
}

// Len returns the number of dictionary paths.
func (d *Dictionary) Len() int {
	if d == nil {
		return 0
	}
	return len(d.paths)
}

// Paths returns the dictionary contents (read-only use).
func (d *Dictionary) Paths() []SubPath {
	if d == nil {
		return nil
	}
	return d.paths
}

// matchAt reports whether path p occurs in stream at position i.
func matchAt(stream []trace.Packet, i int, p []trace.Packet) bool {
	if i+len(p) > len(stream) {
		return false
	}
	for k, pk := range p {
		if stream[i+k] != pk {
			return false
		}
	}
	return true
}

// Compress replaces maximal non-overlapping runs of dictionary sub-paths
// with marker packets {Src: MarkerBase|id, Dst: repeatCount}. A nil
// dictionary returns the input unchanged.
func (d *Dictionary) Compress(stream []trace.Packet) []trace.Packet {
	if d.Len() == 0 {
		return stream
	}
	out := make([]trace.Packet, 0, len(stream))
	for i := 0; i < len(stream); {
		var hit *SubPath
		for pi := range d.paths {
			if matchAt(stream, i, d.paths[pi].Packets) {
				hit = &d.paths[pi]
				break
			}
		}
		if hit == nil {
			out = append(out, stream[i])
			i++
			continue
		}
		n := len(hit.Packets)
		repeats := uint32(1)
		for matchAt(stream, i+int(repeats)*n, hit.Packets) {
			repeats++
		}
		out = append(out, trace.Packet{Src: MarkerBase | uint32(hit.ID), Dst: repeats})
		i += int(repeats) * n
	}
	return out
}

// ErrUnknownMarker is wrapped by Decompress for markers outside the
// dictionary (evidence from a mismatched provisioning).
var ErrUnknownMarker = fmt.Errorf("speccfa: unknown sub-path marker")

// Decompress expands marker packets. It is exact: for any stream s,
// Decompress(Compress(s)) == s. Expansion is capped to guard against a
// forged repeat count blowing up verifier memory.
func (d *Dictionary) Decompress(stream []trace.Packet) ([]trace.Packet, error) {
	const maxExpanded = 1 << 24 // packets (128 MiB of evidence)
	out := make([]trace.Packet, 0, len(stream))
	for _, p := range stream {
		if p.Src < MarkerBase {
			out = append(out, p)
			continue
		}
		id := int(p.Src & 0xff)
		var sub *SubPath
		for pi := range d.Paths() {
			if int(d.paths[pi].ID) == id {
				sub = &d.paths[pi]
				break
			}
		}
		if sub == nil {
			return nil, fmt.Errorf("%w: id %d", ErrUnknownMarker, id)
		}
		total := uint64(p.Dst) * uint64(len(sub.Packets))
		if uint64(len(out))+total > maxExpanded {
			return nil, fmt.Errorf("speccfa: expansion exceeds %d packets", maxExpanded)
		}
		for r := uint32(0); r < p.Dst; r++ {
			out = append(out, sub.Packets...)
		}
	}
	return out, nil
}

func containsSub(haystack, needle []trace.Packet) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if matchAt(haystack, i, needle) {
			return true
		}
	}
	return false
}
