package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"raptrack/internal/apps"
	"raptrack/internal/journal"
	"raptrack/internal/router"
	"raptrack/internal/server"
)

// workload is one traffic mix against the gateway. Every workload runs
// all ten apps.EvalOrder apps; README.md and BENCHMARK.json give the
// reason for each.
type workload struct {
	name string

	clients   int  // closed-loop concurrency
	streamed  bool // SLICE-framed sessions (else batch RPRT)
	watermark int  // prover MTB watermark (0: engine default)
	every     int  // one compromised session in `every` (0: none)
	shards    int  // >0: sessions go through router with this many shards
	journal   bool // commit every verdict to a journal (fsync never)
	cache     bool // gateway verify cache
	mining    bool // online SpecCFA mining (gateway default cadence)
}

// Workloads run two clients, one per core of the 2-core host the bounds
// were set on, except under-attack: its crc32 rejects take up to 1.7 s
// each, and with two clients the way they happened to overlap decided a
// run's throughput and tail (session_p90_ms spread 0.35 over ten runs,
// above any bound allowed). One client runs them back to back.
var workloads = []workload{
	{name: "warm-batch", clients: 2, shards: 2, journal: true, cache: true, mining: true},
	{name: "cold-batch", clients: 2},
	{name: "under-attack", clients: 1, every: 50, cache: true},
	{name: "stream-heal", clients: 2, streamed: true, watermark: 512, every: 20},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// journalOptions keeps fsync out of the measurement: fsync never, and
// segments larger than a run writes, because sealing a rotated segment
// fsyncs it and rewrites the manifest whatever the fsync policy.
var journalOptions = journal.Options{Fsync: journal.SyncNever, SegmentBytes: 4 << 30}

// devicesPerApp sizes each app's honest fleet; the router pins devices to
// shards, so several per app spread every app over both shards.
const devicesPerApp = 8

// env is one set-up gateway plane with its device generator.
type env struct {
	w     workload
	specs []*appSpec
	gen   *generator
	plan  *planner

	rt       *router.Router
	gws      []*server.Gateway
	journals []*journal.Journal
	dir      string // journal directories (removed at close)

	ln        net.Listener
	serveDone chan error

	times setupTimes
	setup time.Duration // set-up wall time, up to the first timed session
}

// setupEnv links, records, compiles, starts the gateway on a loopback
// listener and warms it up.
func setupEnv(w workload, seed uint64, workdir string) (e *env, err error) {
	t0 := time.Now()
	e = &env{w: w}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.specs, err = provision(apps.EvalOrder, seed, w.watermark, &e.times); err != nil {
		return nil, err
	}
	for _, s := range e.specs {
		if lim := s.link.Image.Base + s.link.Image.CodeSize; lim > 0x0ff0_0000 {
			return nil, fmt.Errorf("%s image reaches %#x, inside the hijack target range", s.name, lim)
		}
	}
	e.gen = newGenerator(e.specs, w.watermark)
	for _, s := range e.specs {
		if _, err := e.gen.template(s.name, nil); err != nil {
			return nil, err
		}
	}
	e.plan = newPlanner(seed, apps.EvalOrder, devicesPerApp, w.every)
	if w.journal {
		if e.dir, err = os.MkdirTemp(workdir, "journal-"); err != nil {
			return nil, err
		}
	}
	newShard := func(i int) (*server.Gateway, error) {
		opts := []server.Option{}
		if !w.cache {
			opts = append(opts, server.WithCache(-1))
		}
		if !w.mining {
			opts = append(opts, server.WithMining(-1, 0, 0))
		}
		if w.journal {
			j, err := journal.Open(filepath.Join(e.dir, fmt.Sprint("shard-", i, "-", len(e.journals))), journalOptions)
			if err != nil {
				return nil, err
			}
			e.journals = append(e.journals, j)
			opts = append(opts, server.WithJournal(j))
		}
		g := server.New(opts...)
		for _, s := range e.specs {
			c0 := time.Now()
			v := s.newVerifier()
			e.times.compile += time.Since(c0)
			g.Register(s.name, v)
		}
		e.gws = append(e.gws, g)
		return g, nil
	}
	if e.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	e.serveDone = make(chan error, 1)
	if w.shards > 0 {
		if e.rt, err = router.New(router.Config{Shards: w.shards, NewShard: newShard}); err != nil {
			return nil, err
		}
		go func() { e.serveDone <- e.rt.Serve(e.ln) }()
	} else {
		g, err := newShard(0)
		if err != nil {
			return nil, err
		}
		go func() { e.serveDone <- g.Serve(e.ln) }()
	}
	if err := e.warmUp(); err != nil {
		return nil, err
	}
	e.times.record = e.gen.record
	e.setup = time.Since(t0)
	return e, nil
}

// verdictTries bounds how often set-up and the heal probe run a session
// that ended without a verdict: a dial error, or a connection the plane
// dropped while the host stalled (the router drops one whose HELO it has
// not read within 2 s). A session that got its verdict is never run
// again, whatever the verdict.
const verdictTries = 3

// warmUp runs honest sessions for every (app, device) pair, pass after
// pass, until a whole pass accepts everything without a dictionary
// version change: caches are full, mining has converged and every
// template the timed run needs is recorded.
func (e *env) warmUp() error {
	d := &device{gen: e.gen, streamed: e.w.streamed}
	for pass := 0; pass < 20; pass++ {
		before := e.dictVersions()
		for _, s := range e.specs {
			for k := 0; k < devicesPerApp; k++ {
				spec := sessionSpec{app: s.name, device: fmt.Sprintf("%s-dev-%d", s.name, k)}
				o := d.run(spec, e.dial)
				for try := 1; !o.verdict && try < verdictTries; try++ {
					fmt.Fprintf(os.Stderr, "perfbench: warm-up %s: %v; running the session again\n", s.name, o.err)
					o = d.run(spec, e.dial)
				}
				if !o.verdict {
					return fmt.Errorf("warm-up %s: %w", s.name, o.err)
				}
				if !o.ok {
					return fmt.Errorf("warm-up %s: honest session rejected", s.name)
				}
			}
		}
		if pass > 0 && e.dictVersions() == before {
			return nil
		}
	}
	return errors.New("warm-up: dictionaries did not converge in 20 passes")
}

// dictVersions sums every gateway's live dictionary versions.
func (e *env) dictVersions() uint64 {
	var v uint64
	for _, g := range e.gws {
		for _, s := range e.specs {
			n, _ := g.DictSnapshot(s.name)
			v += n
		}
	}
	return v
}

func (e *env) dial() (net.Conn, error) {
	c, err := net.Dial("tcp", e.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	// Bound a session that would otherwise hang on a wedged gateway.
	_ = c.SetDeadline(time.Now().Add(60 * time.Second))
	return c, nil
}

// close stops the plane and waits for its goroutines.
func (e *env) close() {
	if e.ln != nil {
		if e.rt != nil {
			_ = e.rt.Close()
		} else {
			for _, g := range e.gws {
				_ = g.Close()
			}
		}
		_ = e.ln.Close()
		<-e.serveDone
	} else {
		for _, g := range e.gws {
			_ = g.Close()
		}
	}
	for _, j := range e.journals {
		_ = j.Close()
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

// stats reads the gateway-side counters across every replica.
func (e *env) stats() server.Stats {
	if e.rt != nil {
		return e.rt.Snapshot()
	}
	return e.gws[0].Snapshot()
}

// loop is a closed loop: each of n clients takes the next planned session,
// from plan index first on, as soon as its previous one ends, until d has
// passed or limit sessions started. Sessions in flight at the deadline
// finish and count.
func (e *env) loop(n int, first int, d time.Duration, limit int, dev *device) ([]outcome, time.Time) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []outcome
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The store is sized up front: a store growing over the window
			// would raise the live heap as the run goes on, and with it the
			// gateway's GC pacing, so throughput would climb through the run.
			mine := make([]outcome, 0, storeSize(d, limit))
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					break
				}
				mine = append(mine, dev.run(e.plan.at(first+i), e.dial))
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, start
}

// storeSize is a client's outcome capacity for a window: the session
// limit, or the window at 3000 sessions/s, above any workload's rate.
func storeSize(d time.Duration, limit int) int {
	if limit > 0 {
		return limit
	}
	return int(d.Seconds() * 3000)
}

// verdictCheck is the correctness gate over a run's outcomes: an honest
// session answered with a reject, or a hijacked one accepted (a false
// accept), or a streamed hijack rejected without any HEAL directive.
type verdictCheck struct {
	attempted, failed           int
	honestRejects, falseAccepts int
	missedHeals                 int
	firstFailure                error
	firstWrong                  string // the first session that broke the gate
}

func (v *verdictCheck) add(o outcome) {
	v.attempted++
	if !o.verdict {
		v.failed++
		if v.firstFailure == nil {
			v.firstFailure = fmt.Errorf("session %d: %v", o.index, o.err)
		}
		return
	}
	wrong := ""
	switch {
	case !o.hijacked && !o.ok:
		v.honestRejects++
		wrong = "honest session rejected"
	case o.hijacked && o.ok:
		v.falseAccepts++
		wrong = "hijacked session accepted"
	case o.hijacked && o.streamed && !o.healed:
		v.missedHeals++
		wrong = "hijacked session rejected without HEAL"
	}
	if wrong != "" && v.firstWrong == "" {
		v.firstWrong = fmt.Sprintf("session %d: %s", o.index, wrong)
	}
}

// String summarises the gate for the error stream.
func (v *verdictCheck) String() string {
	s := fmt.Sprintf("%d honest rejects, %d false accepts, %d hijacks without HEAL; %d of %d sessions without a verdict",
		v.honestRejects, v.falseAccepts, v.missedHeals, v.failed, v.attempted)
	if v.firstWrong != "" {
		s += "; first: " + v.firstWrong
	}
	if v.firstFailure != nil {
		s += "; first without a verdict: " + v.firstFailure.Error()
	}
	return s
}

func (v *verdictCheck) correct() bool {
	return v.honestRejects == 0 && v.falseAccepts == 0 && v.missedHeals == 0
}

// geomeanOverheadPct is the geometric mean over apps of RAP-Track cycles
// over uninstrumented cycles, as a percentage above 1.
func geomeanOverheadPct(specs []*appSpec) float64 {
	var lg float64
	for _, s := range specs {
		lg += math.Log(float64(s.ledger.cycles) / float64(s.ledger.baselineCycles))
	}
	return (math.Exp(lg/float64(len(specs))) - 1) * 100
}
