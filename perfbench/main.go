// Command perfbench is the attestation-gateway benchmark: one workload
// per run against the real internal/server gateway (behind
// internal/router on warm-batch), served in-process on loopback TCP to a
// closed loop of simulated device clients. See README.md.
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1 [-workdir DIR]
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 the
// per-layer ledger. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Any honest session rejected, or any hijacked session accepted, makes
// the run incorrect and the exit status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// extra holds reported-only metrics: those that apply to some
	// workloads only, or read zero on a healthy run. notes annotate them.
	extra map[string]metric
	notes map[string]string
	gate  string // the correctness gate's summary
}

func newResult() *result {
	return &result{Metrics: map[string]metric{}, extra: map[string]metric{}, notes: map[string]string{}}
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }
func (r *result) report(name string, v float64, unit string) {
	r.extra[name] = metric{v, unit}
}

// options is one run's configuration.
type options struct {
	workload workload
	seed     uint64
	seconds  float64
	workdir  string
	// smoke runs a handful of sessions per phase instead of a timed
	// window, for the package test.
	smoke bool
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: warm-batch, cold-batch, under-attack or stream-heal")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		traced  = flag.Int("trace", 0, "1: per-layer traced run; 0: end-to-end run")
		workdir = flag.String("workdir", ".bench_build", "scratch directory for journals and span dumps")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	opt := options{workload: w, seed: *seed, seconds: *seconds, workdir: *workdir}
	var (
		res *result
		err error
	)
	if *traced == 1 {
		res, err = runTraced(opt)
	} else {
		res, err = runE2E(opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, w.name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", res.gate)
		os.Exit(1)
	}
	if res.Failed > 0 {
		fmt.Fprintln(os.Stderr, "perfbench:", res.gate)
	}
}

// print writes one line per metric, then the JSON result line.
func (r *result) print(w io.Writer, workload string) error {
	lines := func(m map[string]metric, tag string) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			note := ""
			if s := r.notes[n]; s != "" {
				note = "  (" + s + ")"
			}
			fmt.Fprintf(w, "%-13s %-30s %14.4f %-6s %s%s\n", workload, n, m[n].Value, m[n].Unit, tag, note)
		}
	}
	lines(r.Metrics, "")
	lines(r.extra, "reported")
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// setups is how many times an end-to-end run sets the plane up; setup_s
// is their median. The first set-ups in a fresh process run slower (page
// faults, cold caches), so the median needs several after them.
const setups = 11

// counted returns how many plan sessions, from index 0, an end-to-end
// run's figures cover, and the time from start to their last verdict.
// They are the whole plan periods (one hijack of each app on the attack
// workloads, one session of each app otherwise) whose sessions all ended
// inside the window d: a window that ends mid-period would otherwise
// decide how many of the expensive sessions, crc32 rejects of up to
// 1.7 s, a run counts. With less than one period done, it takes every
// session that ended inside the window.
func counted(outs []outcome, start time.Time, d time.Duration, period int) (int, time.Duration) {
	late := make([]bool, len(outs))
	for _, o := range outs {
		if o.index < len(late) {
			late[o.index] = o.verdict && o.done.Sub(start) > d
		}
	}
	n := 0
	for n < len(late) && !late[n] {
		n++
	}
	if n >= period {
		n -= n % period
	}
	var last time.Time
	for _, o := range outs {
		if o.index < n && o.done.After(last) {
			last = o.done
		}
	}
	return n, last.Sub(start)
}

// lastDone is the latest verdict time among outs.
func lastDone(outs []outcome) time.Time {
	var t time.Time
	for _, o := range outs {
		if o.done.After(t) {
			t = o.done
		}
	}
	return t
}

func runE2E(opt options) (*result, error) {
	w := opt.workload
	n := setups
	if opt.smoke {
		n = 1
	}
	var (
		e      *env
		setupS []float64
	)
	for i := 0; i < n; i++ {
		runtime.GC() // each set-up starts from the same heap state
		ee, err := setupEnv(w, opt.seed, opt.workdir)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, ee.setup.Seconds())
		if i < n-1 {
			ee.close()
		} else {
			e = ee
		}
	}
	defer e.close()

	dev := &device{gen: e.gen, streamed: w.streamed}
	d, limit := opt.window(1)
	runtime.GC()
	outs, start := e.loop(w.clients, 0, d, limit, dev)

	res := newResult()
	check := gate(outs)
	res.Correct, res.Attempted, res.Failed = check.correct(), check.attempted, check.failed
	res.gate = check.String()

	if opt.smoke {
		d = lastDone(outs).Sub(start) + time.Nanosecond
	}
	n, took := counted(outs, start, d, len(e.specs)*max(w.every, 1))
	var all, honest, reject, detect []float64
	var wire int
	for _, o := range outs {
		if !o.verdict || o.index >= n {
			continue
		}
		if o.hijacked {
			reject = append(reject, ms(o.latency))
			if o.healed {
				detect = append(detect, ms(o.detect))
			}
		}
		wire += o.wire
		all = append(all, ms(o.latency))
		if !o.hijacked {
			honest = append(honest, ms(o.latency))
		}
	}
	if len(all) == 0 || len(honest) == 0 {
		return nil, fmt.Errorf("no session completed: %v", check.firstFailure)
	}
	res.set("sessions_per_s", float64(len(all))/took.Seconds(), "1/s")
	res.notes["sessions_per_s"] = fmt.Sprintf("%d sessions in %.3f s", len(all), took.Seconds())
	res.set("session_p50_ms", median(all), "ms")
	// The gate holds p90: p99 doubles the host's run-to-run noise (see
	// README.md) and is reported beside it.
	res.set("session_p90_ms", quantile(all, 0.9), "ms")
	p, label := tailQuantile(all)
	res.report("session_p99_ms", p, "ms")
	res.notes["session_p99_ms"] = fmt.Sprintf("%s of %d sessions", label, len(all))
	p, label = tailQuantile(honest)
	res.report("honest_p99_ms", p, "ms")
	res.notes["honest_p99_ms"] = fmt.Sprintf("%s of %d honest sessions", label, len(honest))
	res.set("wire_kb_per_session", float64(wire)/float64(len(all))/1024, "kB")
	res.set("setup_s", median(setupS), "s")
	res.notes["setup_s"] = fmt.Sprintf("median of %d set-ups: %.3f", len(setupS), setupS)
	res.report("peak_rss_mb", peakRSSMB(), "MB")
	res.set("prover_overhead_pct", geomeanOverheadPct(e.specs), "%")

	res.report("failed_frac", float64(check.failed)/float64(check.attempted), "frac")
	res.notes["failed_frac"] = fmt.Sprintf("%d of %d attempted", check.failed, check.attempted)
	if w.every > 0 {
		res.report("reject_p50_ms", median(reject), "ms")
		res.notes["reject_p50_ms"] = fmt.Sprintf("%d hijacked sessions", len(reject))
	}
	if w.streamed {
		res.report("detect_p50_ms", median(detect), "ms")
		res.report("detect_p90_ms", quantile(detect, 0.9), "ms")
		res.notes["detect_p90_ms"] = fmt.Sprintf("%d detections", len(detect))
	}
	return res, nil
}

// window returns a phase's measuring time (share of the run) and session
// limit; smoke mode runs a fixed handful of sessions instead.
func (o options) window(share float64) (time.Duration, int) {
	if o.smoke {
		return time.Hour, 60
	}
	return time.Duration(share * o.seconds * float64(time.Second)), 0
}

func gate(outs []outcome) *verdictCheck {
	c := &verdictCheck{}
	for _, o := range outs {
		c.add(o)
	}
	return c
}

// Phases B and C start this far into the plan, so no phase replays a
// session (and a hijack) an earlier phase already put in the verify cache.
const (
	phaseB = 1 << 24
	phaseC = 2 << 24
	// abRounds alternations of A and B; round r starts at r*abStride.
	abRounds = 4
	abStride = 1 << 20
)

// runTraced produces the per-layer ledger (phases A-D, see ledger.go).
func runTraced(opt options) (*result, error) {
	w := opt.workload
	e, err := setupEnv(w, opt.seed, opt.workdir)
	if err != nil {
		return nil, err
	}
	defer e.close()
	res := newResult()
	check := &verdictCheck{}

	// A and B alternate in short rounds, so heap growth and warm-up over
	// the run land on both sides alike.
	d, limit := opt.window(0.5 / abRounds)
	tr := newTracer()
	var (
		outA, outB     []outcome
		allocA         uint64
		gcA, cpuA      float64
		hitsA, missesA uint64
	)
	for r := 0; r < abRounds; r++ {
		rt0, st0 := readRuntime(), e.stats()
		outs, _ := e.loop(w.clients, r*abStride, d, limit, &device{gen: e.gen, streamed: w.streamed})
		rt1, st1 := readRuntime(), e.stats()
		outA = append(outA, outs...)
		allocA += rt1.alloc - rt0.alloc
		gcA, cpuA = gcA+rt1.gcCPU-rt0.gcCPU, cpuA+rt1.total-rt0.total
		hitsA, missesA = hitsA+st1.CacheHits-st0.CacheHits, missesA+st1.CacheMisses-st0.CacheMisses
		outs, _ = e.loop(w.clients, phaseB+r*abStride, d, limit, &device{gen: e.gen, streamed: w.streamed, tr: tr})
		outB = append(outB, outs...)
	}
	// C: one client, unloaded.
	d, limit = opt.window(0.15)
	outC, _ := e.loop(1, phaseC, d, limit, &device{gen: e.gen, streamed: w.streamed})
	for _, outs := range [][]outcome{outA, outB, outC} {
		for _, o := range outs {
			check.add(o)
		}
	}
	res.Correct, res.Attempted, res.Failed = check.correct(), check.attempted, check.failed
	res.gate = check.String()
	if !res.Correct {
		return res, nil
	}

	completed := func(outs []outcome) (n int, lat []float64, busy, attempts int) {
		for _, o := range outs {
			busy += o.busy
			attempts += o.attempts
			if o.verdict {
				n++
				if !o.hijacked {
					lat = append(lat, us(o.latency))
				}
			}
		}
		return
	}
	nA, latA, busyA, attA := completed(outA)
	_, latB, _, _ := completed(outB)
	_, latC, _, _ := completed(outC)
	if len(latA) == 0 || len(latB) == 0 || len(latC) == 0 {
		return nil, errors.New("traced run completed no honest session in a phase")
	}
	res.set("trace.overhead_pct", (median(latB)/median(latA)-1)*100, "%")
	res.notes["trace.overhead_pct"] = "median honest session time, traced over untraced"
	res.set("server.wait_us", median(latA)-median(latC), "us")
	res.set("server.busy_frac", float64(busyA)/float64(attA), "frac")
	hitRatio := 0.0
	if hitsA+missesA > 0 {
		hitRatio = float64(hitsA) / float64(hitsA+missesA)
	}
	res.set("verify.cache_hit_ratio", hitRatio, "ratio")
	res.set("runtime.alloc_kb_per_session", float64(allocA)/float64(nA)/1024, "kB")
	gcFrac := 0.0
	if cpuA > 0 {
		gcFrac = gcA / cpuA
	}
	res.set("runtime.gc_cpu_frac", gcFrac, "frac")

	// D: direct calls over the sessions of C, in plan order.
	kit, err := newLayerKit(e, tr, opt.workdir)
	if err != nil {
		return nil, err
	}
	defer kit.close()
	e2e := map[int]float64{}
	for _, o := range outC {
		if o.verdict {
			e2e[o.index] = us(o.latency)
		}
	}
	d, limit = opt.window(0.25)
	startD := time.Now()
	var replayed []int
	for i := phaseC; i < phaseC+len(outC) && (len(replayed) < 3 || time.Since(startD) < d); i++ {
		if _, ok := e2e[i]; !ok {
			continue
		}
		if err := kit.replay(e.plan.at(i)); err != nil {
			return nil, err
		}
		replayed = append(replayed, i)
	}
	// On-path self times and the probe tree share span names; the probe
	// tree's spans are the single-layer timings, so split by root.
	onPath, probe := splitRoots(tr, replayed)
	pick := func(m map[int]map[string]time.Duration, name string) []float64 {
		var xs []float64
		for _, i := range replayed {
			if t, ok := m[i][name]; ok {
				xs = append(xs, us(t))
			}
		}
		return xs
	}
	res.set("remote.codec_us", median(pick(onPath, "remote.codec")), "us")
	res.set("attest.decode_us", median(pick(onPath, "attest.decode")), "us")
	res.set("attest.auth_us", median(pick(probe, "attest.auth")), "us")
	res.set("pipeline.decode_us", median(pick(probe, "pipeline.decode")), "us")
	res.set("speccfa.expand_us", median(pick(probe, "speccfa.expand")), "us")
	res.set("speccfa.compress_ratio", float64(kit.expanded)/float64(max(kit.compressed, 1)), "ratio")
	res.set("verify.hit_us", median(pick(probe, "verify.hit")), "us")
	res.set("verify.accept_us", median(pick(probe, "verify.accept")), "us")
	res.set("automaton.decode_us", median(pick(probe, "automaton.decode")), "us")
	res.set("automaton.accept_ratio", float64(kit.accepts)/float64(max(kit.decodes, 1)), "ratio")
	res.set("verify.feed_us", median(pick(probe, "verify.feed")), "us")
	res.set("verify.seal_us", median(pick(probe, "verify.seal")), "us")
	res.set("automaton.stream_feed_us", median(pick(probe, "automaton.stream_feed")), "us")
	res.set("journal.append_us", median(pick(probe, "journal.append")), "us")

	// Layer sum: e2e time of C against the on-path self times of D (the
	// root's own self time is the replay loop, not a layer).
	var e2eSum, layerSum float64
	by := map[string]float64{}
	for _, i := range replayed {
		e2eSum += e2e[i]
		for n, t := range onPath[i] {
			by[n] += us(t)
		}
	}
	names := make([]string, 0, len(by))
	for n, t := range by {
		if n != "session" {
			names = append(names, n)
			layerSum += t
		}
	}
	sort.Strings(names)
	res.set("trace.unattributed_frac", (e2eSum-layerSum)/e2eSum, "frac")
	shares := fmt.Sprintf("%d sessions, %.1f us e2e each; layer shares:", len(replayed), e2eSum/float64(len(replayed)))
	for _, n := range names {
		shares += fmt.Sprintf(" %s %.1f%%", n, 100*by[n]/e2eSum)
	}
	res.notes["trace.unattributed_frac"] = shares

	// Reject path on one seeded hijack per app.
	rej, err := kit.rejectProbe(opt.seed)
	if err != nil {
		return nil, err
	}
	var rejUS, renderUS []float64
	for _, r := range rej {
		rejUS = append(rejUS, us(r.reject))
		renderUS = append(renderUS, us(r.reject-r.decode))
	}
	res.set("verify.reject_us", median(rejUS), "us")
	res.set("verify.reject_p90_us", quantile(rejUS, 0.9), "us")
	res.set("interp.render_us", median(renderUS), "us")
	heal, err := healProbe(opt.seed, e)
	if err != nil {
		return nil, err
	}
	res.set("server.heal_us", median(heal), "us")

	// Router and gateway costs on the same honest sessions over pipes.
	if err := pipeOverheads(opt, e, replayed, onPath, res); err != nil {
		return nil, err
	}

	// Set-up and prover ledger.
	res.set("linker.link_ms", ms(e.times.link), "ms")
	res.set("core.record_ms", ms(e.times.record), "ms")
	res.set("verify.compile_ms", ms(e.times.compile), "ms")
	var led proverLedger
	for _, s := range e.specs {
		led.cycles += s.ledger.cycles
		led.baselineCycles += s.ledger.baselineCycles
		led.secureCalls += s.ledger.secureCalls
		led.packets += s.ledger.packets
		led.cflogBytes += s.ledger.cflogBytes
		led.partials += s.ledger.partials
		res.notes["cpu.cycles"] += fmt.Sprintf("%s %+.1f%% ", s.name, (float64(s.ledger.cycles)/float64(s.ledger.baselineCycles)-1)*100)
	}
	res.set("cpu.cycles", float64(led.cycles), "count")
	res.set("cpu.baseline_cycles", float64(led.baselineCycles), "count")
	res.set("tz.secure_calls", float64(led.secureCalls), "count")
	res.set("trace.packets", float64(led.packets), "count")
	res.set("trace.cflog_bytes", float64(led.cflogBytes), "count")
	res.set("trace.partials", float64(led.partials), "count")

	if err := tr.write(spanFile(opt.workdir, w.name)); err != nil {
		return nil, err
	}
	return res, nil
}

// splitRoots groups each replayed session's self times by the root its
// spans hang under: the on-path "session" tree and the "probe" tree.
func splitRoots(tr *tracer, replayed []int) (onPath, probe map[int]map[string]time.Duration) {
	want := map[uint64]int{}
	for _, i := range replayed {
		want[replayID(i)] = i
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent > 0 {
			child[s.Parent-1] += s.End - s.Start
		}
	}
	rootOf := make([]string, len(tr.spans))
	onPath, probe = map[int]map[string]time.Duration{}, map[int]map[string]time.Duration{}
	for h, s := range tr.spans {
		if s.Parent == 0 {
			rootOf[h] = s.Name
		} else {
			rootOf[h] = rootOf[s.Parent-1]
		}
		i, ok := want[s.Session]
		if !ok {
			continue
		}
		dst := onPath
		if rootOf[h] == "probe" {
			dst = probe
		}
		if dst[i] == nil {
			dst[i] = map[string]time.Duration{}
		}
		dst[i][s.Name] += time.Duration(s.End - s.Start - child[h])
	}
	return onPath, probe
}

// pipeOverheads times the replayed honest sessions through a standalone
// gateway and through a 2-shard router, each configured as the workload's
// plane and driven over in-memory pipes: router.overhead_us is the
// difference of their medians, server.overhead_us the gateway's median
// over the median verifier time the direct replay measured.
func pipeOverheads(opt options, e *env, replayed []int, onPath map[int]map[string]time.Duration, res *result) error {
	var specs []sessionSpec
	for _, i := range replayed {
		if s := e.plan.at(i); s.hijack == nil && len(specs) < 200 {
			specs = append(specs, s)
		}
	}
	if len(specs) == 0 {
		return errors.New("no honest session replayed")
	}
	single, sharded := opt.workload, opt.workload
	single.shards, sharded.shards = 0, 2
	ge, err := setupEnv(single, opt.seed, opt.workdir)
	if err != nil {
		return err
	}
	defer ge.close()
	re, err := setupEnv(sharded, opt.seed, opt.workdir)
	if err != nil {
		return err
	}
	defer re.close()
	var gw, rt []float64
	for round := 0; round < 2; round++ {
		g, err := pipeTimes(ge.gen, single.streamed, specs, ge.gws[0].ServeConn)
		if err != nil {
			return err
		}
		r, err := pipeTimes(re.gen, sharded.streamed, specs, re.rt.ServeConn)
		if err != nil {
			return err
		}
		gw, rt = append(gw, g...), append(rt, r...)
	}
	var verifyUS []float64
	for _, s := range specs {
		var t time.Duration
		for _, n := range []string{"verify", "attest.auth", "speccfa.expand", "verify.search", "verify.feed", "verify.seal"} {
			t += onPath[s.index][n]
		}
		verifyUS = append(verifyUS, us(t))
	}
	res.set("router.overhead_us", median(rt)-median(gw), "us")
	res.set("server.overhead_us", median(gw)-median(verifyUS), "us")
	return nil
}

// replayID is phase D's span session id for plan index i, disjoint from
// the ids the traced loop allocates.
func replayID(i int) uint64 { return 1<<40 | uint64(i) }
