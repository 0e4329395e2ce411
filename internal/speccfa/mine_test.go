package speccfa_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"raptrack/internal/apps"
	"raptrack/internal/attest"
	"raptrack/internal/core"
	"raptrack/internal/speccfa"
	"raptrack/internal/trace"
	"raptrack/internal/trace/pipeline"
)

type appEvidence struct {
	name    string
	packets []trace.Packet
}

var (
	evalOnce sync.Once
	evalEv   []appEvidence
	evalErr  error
)

// evalEvidence records one attested run of every evaluation app and
// returns its packet stream, the evidence the gateway's miner sees.
func evalEvidence(tb testing.TB) []appEvidence {
	tb.Helper()
	evalOnce.Do(func() {
		key, err := attest.GenerateHMACKey()
		if err != nil {
			evalErr = err
			return
		}
		for _, name := range apps.EvalOrder {
			pk, err := recordApp(name, key)
			if err != nil {
				evalErr = err
				return
			}
			evalEv = append(evalEv, appEvidence{name, pk})
		}
	})
	if evalErr != nil {
		tb.Fatal(evalErr)
	}
	return evalEv
}

func recordApp(name string, key *attest.HMACKey) ([]trace.Packet, error) {
	a, err := apps.Get(name)
	if err != nil {
		return nil, err
	}
	link, err := core.LinkForCFA(a.Build(), core.DefaultLinkOptions())
	if err != nil {
		return nil, err
	}
	p, err := core.NewProver(link, key, core.ProverConfig{SetupMem: a.SetupMem()})
	if err != nil {
		return nil, err
	}
	chal, err := attest.NewChallenge(name)
	if err != nil {
		return nil, err
	}
	reports, _, err := p.Attest(chal)
	if err != nil {
		return nil, err
	}
	var log []byte
	for _, r := range reports {
		log = append(log, r.CFLog...)
	}
	pk, derr := pipeline.DecodeMTB(log)
	if derr != nil {
		return nil, derr
	}
	return pk, nil
}

// diffMine fails t unless Mine and ReferenceMine agree on the encoded
// dictionary (paths, order and ids) and on the error.
func diffMine(t *testing.T, stream []trace.Packet, maxPaths, minLen, maxLen int) {
	t.Helper()
	got, gerr := speccfa.Mine(stream, maxPaths, minLen, maxLen)
	want, werr := speccfa.ReferenceMine(stream, maxPaths, minLen, maxLen)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("Mine(%d packets, %d, %d, %d): err %v, reference err %v", len(stream), maxPaths, minLen, maxLen, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if g, w := got.Encode(), want.Encode(); !bytes.Equal(g, w) {
		t.Fatalf("Mine(%d packets, %d, %d, %d) encodes %d bytes (%d paths), reference %d bytes (%d paths)",
			len(stream), maxPaths, minLen, maxLen, len(g), got.Len(), len(w), want.Len())
	}
}

// TestMineMatchesReference pins the bit-identity contract on every
// evaluation app's evidence at the gateway's parameters and a few others.
func TestMineMatchesReference(t *testing.T) {
	for _, ev := range evalEvidence(t) {
		t.Run(ev.name, func(t *testing.T) {
			diffMine(t, ev.packets, 8, 2, 8)
			diffMine(t, ev.packets, 16, 2, 8)
			diffMine(t, ev.packets, 3, 3, 5)
			diffMine(t, ev.packets, 256, 2, 12)
		})
	}
}

// TestMineMatchesReferenceRandom runs the differential over random
// small-alphabet streams that contain marker-range sources.
func TestMineMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		data := make([]byte, r.Intn(400))
		r.Read(data)
		stream := fuzzStream(data, uint8(1+r.Intn(6)))
		diffMine(t, stream, r.Intn(20), r.Intn(5), r.Intn(10))
	}
}

// fuzzStream maps fuzz bytes to a packet stream. Alphabet 0 reads data
// as raw little-endian (Src, Dst) packets; otherwise each byte picks one
// of alphabet%16 packets, and bytes from 0xf8 up are marker packets.
func fuzzStream(data []byte, alphabet uint8) []trace.Packet {
	k := int(alphabet % 16)
	if k == 0 {
		out := make([]trace.Packet, 0, len(data)/trace.PacketSize)
		for ; len(data) >= trace.PacketSize; data = data[trace.PacketSize:] {
			out = append(out, trace.Packet{Src: binary.LittleEndian.Uint32(data), Dst: binary.LittleEndian.Uint32(data[4:])})
		}
		return out
	}
	out := make([]trace.Packet, len(data))
	for i, b := range data {
		if b >= 0xf8 {
			out[i] = trace.Packet{Src: speccfa.MarkerBase | uint32(b&7), Dst: 1 + uint32(b&3)}
			continue
		}
		idx := uint32(b) % uint32(k)
		out[i] = trace.Packet{Src: 0x0020_0000 + 4*idx, Dst: 0x0020_0100 + 8*(idx/2)}
	}
	return out
}

// FuzzMineDifferential compares Mine against ReferenceMine on the
// encoded dictionary over arbitrary packet streams and parameters. Seeds
// are every evaluation app's evidence plus small-alphabet streams.
func FuzzMineDifferential(f *testing.F) {
	for _, ev := range evalEvidence(f) {
		f.Add(pipeline.EncodeMTB(ev.packets), uint8(0), uint8(8), uint8(2), uint8(8))
	}
	f.Add([]byte{}, uint8(0), uint8(8), uint8(2), uint8(8))
	f.Add([]byte("abababababab"), uint8(1), uint8(4), uint8(2), uint8(8))
	f.Add([]byte("abcabcabc\xf9abcabcabcab\xfaab"), uint8(3), uint8(8), uint8(2), uint8(8))
	f.Add([]byte("aabbaabbaabbaabbabab"), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, alphabet, maxPaths, minLen, maxLen uint8) {
		stream := fuzzStream(data, alphabet)
		if len(stream) > 1<<12 {
			t.Skip("stream beyond fuzz size budget")
		}
		diffMine(t, stream, int(maxPaths), int(minLen%12), int(maxLen%12))
	})
}

// BenchmarkMine records the per-call cost and allocations of Mine and of
// the reference miner on every evaluation app's evidence, at the
// gateway's parameters.
func BenchmarkMine(b *testing.B) {
	impls := []struct {
		name string
		mine func([]trace.Packet, int, int, int) (*speccfa.Dictionary, error)
	}{{"fast", speccfa.Mine}, {"reference", speccfa.ReferenceMine}}
	for _, impl := range impls {
		for _, ev := range evalEvidence(b) {
			b.Run(impl.name+"/"+ev.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := impl.mine(ev.packets, 8, 2, 8); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(ev.packets)), "packets")
			})
		}
	}
}
