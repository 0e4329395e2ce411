// Gateway streaming-attestation tests: slice delivery end to end, the
// batch/stream verdict differential, the device healing lifecycle
// (HEAL push, HEALACK, re-attest to healthy), journal/replay parity for
// sliced sessions, and a hostile-transport leg driving hand-crafted
// SLICE frames (loss, reorder, duplication, dropped acks) against the
// zero-false-accept invariant. All must pass under -race.
package server_test

import (
	"net"
	"strings"
	"sync"
	"testing"

	"raptrack/internal/attest"
	"raptrack/internal/core"
	"raptrack/internal/journal"
	"raptrack/internal/linker"
	"raptrack/internal/remote"
	"raptrack/internal/server"
	"raptrack/internal/verify"
)

// streamWatermark slices the gps run into a handful of partial reports.
const streamWatermark = 512

// streamEndpoint provisions f's app with a watermark so the prover emits
// several partial reports per run — one slice each.
func streamEndpoint(f *appFixture) *remote.ProverEndpoint {
	ep := remote.NewProverEndpoint()
	f.provision(ep, streamWatermark)
	return ep
}

// tamperedLink links f's firmware with different padding: the session
// transports fine, but H_MEM disagrees with the gateway's golden image.
func tamperedLink(t *testing.T, f *appFixture) *linker.Output {
	t.Helper()
	opts := core.DefaultLinkOptions()
	opts.NopPad++
	link, err := core.LinkForCFA(f.app.Build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return link
}

func tamperedEndpoint(t *testing.T, f *appFixture) *remote.ProverEndpoint {
	t.Helper()
	link := tamperedLink(t, f)
	ep := remote.NewProverEndpoint()
	ep.Provision(f.name, func() (*core.Prover, error) {
		return core.NewProver(link, f.key, core.ProverConfig{
			SetupMem:  f.app.SetupMem(),
			Watermark: streamWatermark,
		})
	})
	return ep
}

// healLog collects HEAL directives delivered to the prover callback.
type healLog struct {
	mu    sync.Mutex
	heals []remote.Heal
}

func (l *healLog) add(h remote.Heal) {
	l.mu.Lock()
	l.heals = append(l.heals, h)
	l.mu.Unlock()
}

func (l *healLog) all() []remote.Heal {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]remote.Heal(nil), l.heals...)
}

func TestGatewayStreamingRoundTrip(t *testing.T) {
	f := fixture(t, "gps")
	g, addr, _ := startGateway(t, nil, "gps")
	cli := remote.NewClient(streamEndpoint(f),
		remote.WithDevice("dev-stream-1"), remote.WithStreaming(nil))

	gv, err := cli.Attest(dial(t, addr), "gps")
	if err != nil {
		t.Fatal(err)
	}
	if !gv.OK {
		t.Fatalf("verdict: %s", gv.Reason())
	}
	st := waitStats(t, g, func(s server.Stats) bool { return s.VerdictOK == 1 })
	if st.StreamSessions != 1 {
		t.Errorf("StreamSessions = %d, want 1", st.StreamSessions)
	}
	if st.StreamSlices < 2 {
		t.Errorf("StreamSlices = %d, want several (watermark slices the run)", st.StreamSlices)
	}
	// Only the seal is a verification; slice feeds ride the pool but are
	// counted separately.
	if st.Verifications != 1 {
		t.Errorf("Verifications = %d, want 1", st.Verifications)
	}
	if st.StreamAlarms != 0 || st.HealDirectives != 0 {
		t.Errorf("honest session raised alarms: %+v", st)
	}
	if hs := g.HealState("gps", "dev-stream-1"); hs != server.HealHealthy {
		t.Errorf("HealState = %v, want healthy", hs)
	}
}

// TestGatewayStreamingMatchesBatch runs the same honest and tampered
// provers through both delivery modes: the delivered verdicts must agree
// — streaming changes when the gateway learns, never what it concludes.
func TestGatewayStreamingMatchesBatch(t *testing.T) {
	f := fixture(t, "gps")
	_, addr, _ := startGateway(t, nil, "gps")

	for _, tc := range []struct {
		name string
		ep   *remote.ProverEndpoint
	}{
		{"honest", streamEndpoint(f)},
		{"tampered-hmem", tamperedEndpoint(t, f)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batch := remote.NewClient(tc.ep, remote.WithDevice("dev-batch"))
			stream := remote.NewClient(tc.ep,
				remote.WithDevice("dev-stream"), remote.WithStreaming(nil))
			bv, err := batch.Attest(dial(t, addr), "gps")
			if err != nil {
				t.Fatal(err)
			}
			sv, err := stream.Attest(dial(t, addr), "gps")
			if err != nil {
				t.Fatal(err)
			}
			if bv.OK != sv.OK || bv.Code != sv.Code || bv.Detail != sv.Detail {
				t.Fatalf("verdicts diverge:\n batch:  %+v\n stream: %+v", bv, sv)
			}
		})
	}
}

// TestGatewayStreamingHealLifecycle walks one device through the full
// healing state machine: a tampered run raises a mid-stream H_MEM alarm
// (HEAL re-provision pushed before the run ends), the prover's ack moves
// it to healing, and an honest re-attestation returns it to healthy.
func TestGatewayStreamingHealLifecycle(t *testing.T) {
	f := fixture(t, "gps")
	g, addr, _ := startGateway(t, nil, "gps")
	const device = "dev-heal-1"

	var hl healLog
	bad := remote.NewClient(tamperedEndpoint(t, f),
		remote.WithDevice(device), remote.WithStreaming(hl.add))
	gv, err := bad.Attest(dial(t, addr), "gps")
	if err != nil {
		t.Fatal(err)
	}
	if gv.OK || !strings.Contains(gv.Reason(), "H_MEM") {
		t.Fatalf("tampered verdict = %+v", gv)
	}
	heals := hl.all()
	if len(heals) == 0 {
		t.Fatal("prover never received a HEAL directive")
	}
	if heals[0].Directive != remote.HealReprovision {
		t.Errorf("directive = %v, want re-provision (H_MEM mismatch)", heals[0].Directive)
	}
	st := waitStats(t, g, func(s server.Stats) bool { return s.HealAcks >= 1 })
	if st.StreamAlarms == 0 || st.HealDirectives == 0 {
		t.Errorf("stats = %+v", st)
	}
	// The ack committed the device to remediation: healing, not
	// quarantined, even though the sealed verdict confirmed the attack.
	if hs := g.HealState("gps", device); hs != server.HealHealing {
		t.Errorf("HealState after ack = %v, want healing", hs)
	}

	// Remediated (honest) re-attestation heals the device.
	good := remote.NewClient(streamEndpoint(f),
		remote.WithDevice(device), remote.WithStreaming(nil))
	gv, err = good.Attest(dial(t, addr), "gps")
	if err != nil || !gv.OK {
		t.Fatalf("re-attestation: %+v, %v", gv, err)
	}
	if hs := g.HealState("gps", device); hs != server.HealHealthy {
		t.Errorf("HealState after re-attest = %v, want healthy", hs)
	}
}

// TestGatewayStreamingJournalReplay seals streamed sessions — honest and
// tampered — and re-verifies every journaled record over its stored
// evidence, exactly as `raptrack replay` does: outcomes must reproduce
// bit-for-bit from the wire-fed report chain.
func TestGatewayStreamingJournalReplay(t *testing.T) {
	f := fixture(t, "gps")
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{Fsync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })

	g, addr, _ := startGateway(t, []server.Option{
		server.WithJournal(j),
		server.WithMining(-1, 0, 0), // keep the replay dictionary empty
	}, "gps")

	honest := remote.NewClient(streamEndpoint(f),
		remote.WithDevice("dev-replay-1"), remote.WithStreaming(nil))
	if gv, err := honest.Attest(dial(t, addr), "gps"); err != nil || !gv.OK {
		t.Fatalf("honest: %+v, %v", gv, err)
	}
	bad := remote.NewClient(tamperedEndpoint(t, f),
		remote.WithDevice("dev-replay-2"), remote.WithStreaming(nil))
	if gv, err := bad.Attest(dial(t, addr), "gps"); err != nil || gv.OK {
		t.Fatalf("tampered: %+v, %v", gv, err)
	}
	waitStats(t, g, func(s server.Stats) bool { return s.VerdictOK+s.VerdictAttack == 2 })
	st := waitVerdicts(t, j, 2)

	v := core.NewVerifier(f.link, f.key)
	for _, rec := range st.verdicts {
		chal, reports, err := attest.DecodeEvidence(rec.Payload)
		if err != nil {
			t.Fatalf("evidence decode: %v", err)
		}
		got, err := v.Verify(chal, reports)
		if err != nil {
			t.Fatalf("replay verify: %v", err)
		}
		want := journal.OutcomeAttack
		if got.OK {
			want = journal.OutcomeOK
		} else if got.Code == verify.ReasonInconclusive {
			want = journal.OutcomeInconclusive
		}
		if rec.Outcome != want || rec.Detail != got.Detail {
			t.Fatalf("replay diverges: journaled (%v, %q), replayed (%v, %q)",
				rec.Outcome, rec.Detail, want, got.Detail)
		}
	}
	if len(st.verdicts) != 2 {
		t.Fatalf("journaled %d verdicts for 2 sessions", len(st.verdicts))
	}
}

// --- hostile transport: hand-crafted SLICE frames -------------------

// runReports executes one attested run locally and returns its signed
// report chain, for crafting slice frames by hand.
func runReports(t *testing.T, link *linker.Output, f *appFixture, chal attest.Challenge) []*attest.Report {
	t.Helper()
	p, err := core.NewProver(link, f.key, core.ProverConfig{
		SetupMem:  f.app.SetupMem(),
		Watermark: streamWatermark,
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, _, err := p.Attest(chal)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) < 3 {
		t.Fatalf("watermark produced only %d reports; hostile schedules need several", len(reports))
	}
	return reports
}

// streamHandshake dials, announces (app, device), and consumes the
// DICT/CHAL handshake, returning the live connection and challenge.
func streamHandshake(t *testing.T, addr, app, device string) (net.Conn, attest.Challenge) {
	t.Helper()
	conn := dial(t, addr)
	if err := remote.WriteFrame(conn, remote.FrameHello, remote.EncodeHelloID(app, device)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := remote.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ == remote.FrameDict {
		if typ, payload, err = remote.ReadFrame(conn); err != nil {
			t.Fatal(err)
		}
	}
	if typ != remote.FrameChal {
		t.Fatalf("expected challenge, got frame type %d", typ)
	}
	chal, err := attest.DecodeChallenge(payload)
	if err != nil {
		t.Fatal(err)
	}
	return conn, chal
}

// encodeSlices builds the honest SLICE payload sequence for reports:
// consecutive sequence numbers and the correct running tag chain.
func encodeSlices(chal attest.Challenge, reports []*attest.Report) [][]byte {
	tag := remote.SliceTagInit(chal.Nonce)
	var mark uint32
	out := make([][]byte, len(reports))
	for i, r := range reports {
		tag = remote.SliceTagNext(tag, r.Auth)
		mark += uint32(len(r.CFLog))
		out[i] = remote.EncodeSlice(remote.Slice{
			Seq: uint32(i), Mark: mark, Final: r.Final, Tag: tag, Report: r.Encode(),
		})
	}
	return out
}

// sendSlices writes the given payloads as SLICE frames.
func sendSlices(t *testing.T, conn net.Conn, payloads [][]byte) {
	t.Helper()
	for _, p := range payloads {
		if err := remote.WriteFrame(conn, remote.FrameSlice, p); err != nil {
			t.Fatal(err)
		}
	}
}

// expectFrame reads frames until one of type want arrives (skipping HEAL
// frames, which ride interleaved), failing on anything else.
func expectFrame(t *testing.T, conn net.Conn, want byte) []byte {
	t.Helper()
	for {
		typ, payload, err := remote.ReadFrame(conn)
		if err != nil {
			t.Fatalf("reading for frame type %d: %v", want, err)
		}
		if typ == want {
			return payload
		}
		if typ == remote.FrameHeal {
			continue
		}
		t.Fatalf("expected frame type %d, got %d (%q)", want, typ, payload)
	}
}

// TestGatewayStreamChaos drives hostile slice schedules — loss, loss
// with renumbering, reordering, duplication — plus a compromised device
// that never acks its HEAL. The invariants: no schedule ever yields an
// accepted verdict it did not earn, the tag chain catches every
// transport mutation, and a compromise is alarmed within one slice of
// the evidence that proves it.
func TestGatewayStreamChaos(t *testing.T) {
	f := fixture(t, "gps")
	g, addr, _ := startGateway(t, []server.Option{server.WithMining(-1, 0, 0)}, "gps")

	// Every hostile schedule must end in a FAIL frame (never VRDT-OK).
	hostile := []struct {
		name    string
		mutate  func([][]byte) [][]byte
		failSub string // expected FAIL payload substring
	}{
		{
			name: "slice-dropped",
			mutate: func(s [][]byte) [][]byte {
				return append(s[:1:1], s[2:]...) // drop slice 1: seq jumps
			},
			failSub: "out of order",
		},
		{
			name: "slice-dropped-renumbered",
			mutate: func(s [][]byte) [][]byte {
				// A smarter middle box re-sequences after the drop; the
				// running tag chain still betrays the missing slice.
				kept := append(s[:1:1], s[2:]...)
				out := make([][]byte, len(kept))
				for i, p := range kept {
					sl, err := remote.DecodeSlice(p)
					if err != nil {
						t.Fatal(err)
					}
					sl.Seq = uint32(i)
					out[i] = remote.EncodeSlice(sl)
				}
				return out
			},
			failSub: "tag chain",
		},
		{
			name: "slices-reordered",
			mutate: func(s [][]byte) [][]byte {
				out := append([][]byte(nil), s...)
				out[0], out[1] = out[1], out[0]
				return out
			},
			failSub: "out of order",
		},
		{
			name: "slice-duplicated",
			mutate: func(s [][]byte) [][]byte {
				out := append([][]byte(nil), s[:2]...)
				out = append(out, s[1]) // replay slice 1
				return append(out, s[2:]...)
			},
			failSub: "out of order",
		},
	}
	for i, tc := range hostile {
		t.Run(tc.name, func(t *testing.T) {
			conn, chal := streamHandshake(t, addr, "gps", "dev-hostile")
			reports := runReports(t, f.link, f, chal)
			slices := tc.mutate(encodeSlices(chal, reports))
			// The gateway FAILs at the first bad frame and hangs up; a
			// write into the closed half is acceptable, detection is not.
			for _, p := range slices {
				if remote.WriteFrame(conn, remote.FrameSlice, p) != nil {
					break
				}
			}
			payload := expectFrame(t, conn, remote.FrameFail)
			if !strings.Contains(string(payload), tc.failSub) {
				t.Errorf("FAIL = %q, want substring %q", payload, tc.failSub)
			}
			st := g.Snapshot()
			if st.VerdictOK != 0 {
				t.Fatalf("false accept under %s: %+v", tc.name, st)
			}
			_ = i
		})
	}
	st := waitStats(t, g, func(s server.Stats) bool {
		return s.SessionsFailed >= uint64(len(hostile))
	})
	if st.StreamTagBreaks == 0 {
		t.Errorf("renumbered drop never broke the tag chain: %+v", st)
	}

	// Bounded detection: a tampered device is alarmed on the very first
	// slice — the HEAL directive arrives while the rest of the evidence
	// is still unsent — and never acking leaves it quarantined.
	t.Run("heal-ack-dropped", func(t *testing.T) {
		conn, chal := streamHandshake(t, addr, "gps", "dev-noack")
		reports := runReports(t, tamperedLink(t, f), f, chal)
		slices := encodeSlices(chal, reports)
		sendSlices(t, conn, slices[:1])
		healPayload := expectFrame(t, conn, remote.FrameHeal)
		h, err := remote.DecodeHeal(healPayload)
		if err != nil {
			t.Fatal(err)
		}
		if h.Directive != remote.HealReprovision || h.Seq != 0 {
			t.Errorf("heal = %+v, want re-provision at slice 0", h)
		}
		sendSlices(t, conn, slices[1:])
		vp := expectFrame(t, conn, remote.FrameVerdict)
		gv, err := remote.DecodeVerdict(vp)
		if err != nil {
			t.Fatal(err)
		}
		if gv.OK || !strings.Contains(gv.Reason(), "H_MEM") {
			t.Fatalf("verdict = %+v", gv)
		}
		// No ack ever sent: the sealed attack leaves the device quarantined.
		waitStats(t, g, func(s server.Stats) bool { return s.VerdictAttack >= 1 })
		if hs := g.HealState("gps", "dev-noack"); hs != server.HealQuarantined {
			t.Errorf("HealState = %v, want quarantined", hs)
		}
		if st := g.Snapshot(); st.HealAcks != 0 {
			t.Errorf("HealAcks = %d, want 0", st.HealAcks)
		}
	})
}
