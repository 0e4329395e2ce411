package speccfa

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"raptrack/internal/trace"
)

func pk(src, dst uint32) trace.Packet { return trace.Packet{Src: src, Dst: dst} }

func TestCompressDecompressBasic(t *testing.T) {
	loop := []trace.Packet{pk(0x100, 0x200), pk(0x300, 0x100)}
	d, err := NewDictionary(loop)
	if err != nil {
		t.Fatal(err)
	}
	stream := []trace.Packet{pk(1, 2)}
	for i := 0; i < 5; i++ {
		stream = append(stream, loop...)
	}
	stream = append(stream, pk(3, 4))

	comp := d.Compress(stream)
	if len(comp) != 3 {
		t.Fatalf("compressed to %d packets, want 3 (pre, marker, post): %v", len(comp), comp)
	}
	if comp[1].Src != MarkerBase|0 || comp[1].Dst != 5 {
		t.Errorf("marker = %v", comp[1])
	}

	out, err := d.Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(stream) {
		t.Fatalf("expanded to %d, want %d", len(out), len(stream))
	}
	for i := range out {
		if out[i] != stream[i] {
			t.Fatalf("packet %d: %v != %v", i, out[i], stream[i])
		}
	}
}

func TestCompressLongestFirst(t *testing.T) {
	short := []trace.Packet{pk(1, 2), pk(3, 4)}
	long := []trace.Packet{pk(1, 2), pk(3, 4), pk(5, 6)}
	d, err := NewDictionary(short, long)
	if err != nil {
		t.Fatal(err)
	}
	stream := append(append([]trace.Packet{}, long...), long...)
	comp := d.Compress(stream)
	if len(comp) != 1 {
		t.Fatalf("want a single long-path marker, got %v", comp)
	}
	out, _ := d.Decompress(comp)
	if len(out) != 6 {
		t.Fatalf("expanded to %d", len(out))
	}
}

func TestDictionaryValidation(t *testing.T) {
	if _, err := NewDictionary([]trace.Packet{pk(1, 2)}); err == nil {
		t.Error("1-packet path accepted")
	}
	if _, err := NewDictionary([]trace.Packet{pk(MarkerBase, 2), pk(1, 2)}); err == nil {
		t.Error("marker-range source accepted")
	}
	many := make([][]trace.Packet, MaxPaths+1)
	for i := range many {
		many[i] = []trace.Packet{pk(uint32(i), 1), pk(uint32(i), 2)}
	}
	if _, err := NewDictionary(many...); err == nil {
		t.Error("oversized dictionary accepted")
	}
}

func TestDecompressRejections(t *testing.T) {
	d, _ := NewDictionary([]trace.Packet{pk(1, 2), pk(3, 4)})
	if _, err := d.Decompress([]trace.Packet{pk(MarkerBase|7, 1)}); err == nil {
		t.Error("unknown marker accepted")
	}
	if _, err := d.Decompress([]trace.Packet{pk(MarkerBase|0, 1<<30)}); err == nil {
		t.Error("expansion bomb accepted")
	}
}

// TestRoundTripProperty: for random streams and dictionaries,
// Decompress(Compress(s)) == s.
func TestRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		// Random dictionary of 1-3 short paths over a small alphabet (to
		// force frequent matches).
		alphabet := []trace.Packet{pk(0x10, 0x20), pk(0x30, 0x40), pk(0x50, 0x60), pk(0x70, 0x80)}
		nPaths := 1 + r.Intn(3)
		paths := make([][]trace.Packet, nPaths)
		for i := range paths {
			l := 2 + r.Intn(3)
			paths[i] = make([]trace.Packet, l)
			for j := range paths[i] {
				paths[i][j] = alphabet[r.Intn(len(alphabet))]
			}
		}
		d, err := NewDictionary(paths...)
		if err != nil {
			return false
		}
		stream := make([]trace.Packet, r.Intn(200))
		for i := range stream {
			stream[i] = alphabet[r.Intn(len(alphabet))]
		}
		out, err := d.Decompress(d.Compress(stream))
		if err != nil || len(out) != len(stream) {
			return false
		}
		for i := range out {
			if out[i] != stream[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMineFindsLoopPattern(t *testing.T) {
	iter := []trace.Packet{pk(0xa0, 0xb0), pk(0xc0, 0xa0)}
	var stream []trace.Packet
	stream = append(stream, pk(1, 1))
	for i := 0; i < 50; i++ {
		stream = append(stream, iter...)
	}
	stream = append(stream, pk(2, 2))

	d, err := Mine(stream, 4, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() == 0 {
		t.Fatal("mining found nothing")
	}
	comp := d.Compress(stream)
	if len(comp) >= len(stream)/4 {
		t.Errorf("mined dictionary compresses %d -> %d (poor)", len(stream), len(comp))
	}
	out, err := d.Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(stream) {
		t.Fatalf("round trip %d != %d", len(out), len(stream))
	}
}

// TestMineHashCollision: two different windows with equal rolling hashes
// are counted apart, because Mine confirms every hash hit packet by
// packet. roll is invertible in its last packet, so the colliding window
// can be constructed.
func TestMineHashCollision(t *testing.T) {
	a1, a2 := pk(0x100, 0x200), pk(0x300, 0x400)
	target := bits.RotateLeft64(roll(0, a1), 29) ^ (uint64(a2.Src)<<32 | uint64(a2.Dst))
	var b1, b2 trace.Packet
	for src := uint32(0x500); ; src += 4 {
		b1 = pk(src, 0x600)
		w := target ^ bits.RotateLeft64(roll(0, b1), 29)
		if b2 = pk(uint32(w>>32), uint32(w)); b2.Src < MarkerBase {
			break
		}
	}
	if roll(roll(0, a1), a2) != roll(roll(0, b1), b2) {
		t.Fatal("constructed windows do not collide")
	}
	var stream []trace.Packet
	for i := 0; i < 3; i++ {
		stream = append(stream, a1, a2, pk(1, uint32(i)))
	}
	for i := 0; i < 2; i++ {
		stream = append(stream, b1, b2, pk(2, uint32(i)))
	}
	got, err := Mine(stream, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceMine(stream, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), want.Encode()) || got.Len() != 2 {
		t.Fatalf("Mine chose %v, reference %v", got.Paths(), want.Paths())
	}
}

func TestNilDictionaryIsIdentity(t *testing.T) {
	var d *Dictionary
	stream := []trace.Packet{pk(1, 2), pk(3, 4)}
	if got := d.Compress(stream); len(got) != 2 {
		t.Error("nil dictionary must not compress")
	}
	if d.Len() != 0 {
		t.Error("nil Len")
	}
}
