// Gateway × evidence-journal integration: every verdict the gateway
// hands a device lands in the journal with a decodable evidence payload,
// and a storming journal disk never fails a session — the gateway sheds
// records into the journal's ring and keeps verifying. Under -race.
package server_test

import (
	"testing"
	"time"

	"raptrack/internal/attest"
	"raptrack/internal/faults"
	"raptrack/internal/journal"
	"raptrack/internal/server"
)

// journalState is one consistent view of a journal: counters and ring
// read with no record appended or shed in between. Counters only grow, so
// two equal reads around the ring copy bracket an unchanged journal.
type journalState struct {
	counters journal.Counters
	ring     []journal.Record
	verdicts []journal.Record // verdict records on disk, then in the ring
}

// waitVerdicts polls until n verdict records are journaled, on disk or
// shed to the ring, and returns the state it saw them in. The gateway
// commits each verdict just after delivering it, and mining promotions
// add dictionary records alongside, so neither the session count nor
// the record counters say when the last verdict has landed.
func waitVerdicts(t *testing.T, j *journal.Journal, n int) journalState {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st journalState
		rep, err := journal.ScanDir(nil, j.Dir())
		for {
			st.counters = j.Counters()
			st.ring = j.Ring()
			if j.Counters() == st.counters {
				break
			}
		}
		if err == nil && rep.Break == nil {
			for _, rec := range append(rep.Records, st.ring...) {
				if rec.Kind == journal.KindVerdict {
					st.verdicts = append(st.verdicts, rec)
				}
			}
			if len(st.verdicts) >= n {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d verdict records journaled (scan err=%v, break=%v); counters %+v",
				len(st.verdicts), n, err, rep.Break, st.counters)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGatewayJournalsEveryVerdict(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{Fsync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// Registered before startGateway so LIFO cleanup closes the gateway
	// (and its in-flight appends) before the journal.
	t.Cleanup(func() { _ = j.Close() })

	g, addr, ep := startGateway(t, []server.Option{server.WithJournal(j)}, "prime")
	const sessions = 6
	for i := 0; i < sessions; i++ {
		gv, err := attestApp(ep, dial(t, addr), "prime")
		if err != nil {
			t.Fatal(err)
		}
		if !gv.OK {
			t.Fatalf("session %d rejected: %s", i, gv.Reason())
		}
	}
	waitStats(t, g, func(s server.Stats) bool { return s.VerdictOK == sessions })
	st := waitVerdicts(t, j, sessions)
	if len(st.ring) != 0 {
		t.Fatalf("healthy journal shed %d records", len(st.ring))
	}
	for _, rec := range st.verdicts {
		if rec.App != "prime" || rec.Device == "" {
			t.Fatalf("verdict record missing identity: %+v", rec)
		}
		if rec.Outcome != journal.OutcomeOK {
			t.Fatalf("healthy session journaled as %v: %+v", rec.Outcome, rec)
		}
		if _, reports, err := attest.DecodeEvidence(rec.Payload); err != nil || len(reports) == 0 {
			t.Fatalf("evidence payload does not decode (%d reports): %v", len(reports), err)
		}
	}
	if len(st.verdicts) != sessions {
		t.Fatalf("journaled %d verdicts for %d sessions", len(st.verdicts), sessions)
	}
}

func TestGatewayJournalFsyncStormNeverFailsSessions(t *testing.T) {
	dir := t.TempDir()
	in := faults.New(11, faults.Plan{DiskFsyncErr: 1.0}) // every fsync fails
	fs := in.WrapFS(nil)
	fs.Disarm() // healthy disk for Open; the storm targets live commits
	j, err := journal.Open(dir, journal.Options{FS: fs, Fsync: journal.SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	fs.Arm()

	g, addr, ep := startGateway(t, []server.Option{server.WithJournal(j)}, "prime")
	const sessions = 8
	for i := 0; i < sessions; i++ {
		// The journal's disk is on fire; devices must not notice.
		gv, err := attestApp(ep, dial(t, addr), "prime")
		if err != nil {
			t.Fatalf("session %d failed during fsync storm: %v", i, err)
		}
		if !gv.OK {
			t.Fatalf("session %d rejected during fsync storm: %s", i, gv.Reason())
		}
	}
	waitStats(t, g, func(s server.Stats) bool { return s.VerdictOK == sessions })
	st := waitVerdicts(t, j, sessions)
	c := st.counters

	if !j.Degraded() {
		t.Fatal("journal not degraded under a total fsync storm")
	}
	if ok, detail := j.Health(); ok || detail == "" {
		t.Fatalf("health = %v %q", ok, detail)
	}
	// Every shed record is accounted: still held in the ring or counted
	// as evicted from it — nothing vanishes without a number attached.
	if c.Shed != uint64(len(st.ring))+c.RingDropped {
		t.Fatalf("shed accounting: shed=%d ring=%d dropped=%d", c.Shed, len(st.ring), c.RingDropped)
	}
	if len(st.verdicts) != sessions {
		t.Fatalf("journaled %d verdicts for %d sessions", len(st.verdicts), sessions)
	}
	if in.Counts().DiskFsyncErrs == 0 {
		t.Fatal("injector recorded no fsync errors")
	}
}
