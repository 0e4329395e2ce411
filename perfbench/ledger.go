package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"raptrack/internal/apps"
	"raptrack/internal/attest"
	"raptrack/internal/journal"
	"raptrack/internal/remote"
	"raptrack/internal/server"
	"raptrack/internal/speccfa"
	"raptrack/internal/trace/pipeline"
	"raptrack/internal/verify"
	"raptrack/internal/verify/automaton"
)

// The traced run gives the per-layer ledger of a workload in four phases
// over the same seeded session plan:
//
//	A  untraced closed loop (the workload's clients): the loaded reference
//	B  the same loop with client spans on: tracing overhead against A
//	C  one client, unloaded: e2e session times without queueing
//	D  direct calls into each layer's public functions for the sessions
//	   of C, under spans, giving every layer's self time
//
// Phase D's "session" tree replays the workload's own path (codec, report
// decode, the verifier call the gateway makes, the journal append); its
// "probe" tree times single layers on the same evidence (chain
// assembly, MTB decode, expansion, automaton walks, cold and cached
// verification, streaming feeds). Layers the workload's traffic does not
// reach are still timed on its evidence, so every metric exists on every
// workload; reject-path layers use one seeded hijack per app.

// pathCap and maxWork are the verifier defaults, passed to the direct
// automaton calls so they do the work a verifier would.
const (
	pathCap = 4096
	maxWork = 500_000_000
)

// layerKit holds the direct-call state of phase D.
type layerKit struct {
	e    *env
	tr   *tracer
	j    *journal.Journal
	cold map[string]*verify.Verifier // no cache, automaton on
	hot  map[string]*verify.Verifier // warmed verify cache
	// dict and aut are each app's session dictionary (the gateway's live
	// one where mining runs, one mined from the app's evidence elsewhere)
	// and the machine compiled for it.
	dict   map[string]*speccfa.Dictionary
	live   map[string][]byte // DICT payload the gateway ships (nil: none)
	aut    map[string]*verify.Automaton
	plain  map[string]*verify.Automaton // machine without dictionary
	onPath map[string]*verify.Verifier  // the verifier config the gateway runs

	compressed, expanded int // packets before and after expansion
	decodes, accepts     int // automaton walks and accepts
}

func newLayerKit(e *env, tr *tracer, workdir string) (*layerKit, error) {
	k := &layerKit{e: e, tr: tr,
		cold: map[string]*verify.Verifier{}, hot: map[string]*verify.Verifier{},
		dict: map[string]*speccfa.Dictionary{}, live: map[string][]byte{},
		aut: map[string]*verify.Automaton{}, plain: map[string]*verify.Automaton{},
		onPath: map[string]*verify.Verifier{}}
	dir, err := os.MkdirTemp(workdir, "ledger-journal-")
	if err != nil {
		return nil, err
	}
	if k.j, err = journal.Open(dir, journalOptions); err != nil {
		return nil, err
	}
	for _, s := range e.specs {
		cold := s.newVerifier()
		k.cold[s.name] = cold
		k.hot[s.name] = s.newVerifier(verify.WithCache(verify.NewCache(0)))
		k.onPath[s.name] = cold
		if e.w.cache {
			k.onPath[s.name] = k.hot[s.name]
		}
		k.plain[s.name] = cold.Automaton()
		var dict *speccfa.Dictionary
		if len(e.gws) > 0 && e.w.mining {
			_, enc := e.gws[0].DictSnapshot(s.name)
			k.live[s.name] = enc
			if len(enc) > 0 {
				if dict, err = speccfa.DecodeDictionary(enc); err != nil {
					return nil, err
				}
			}
		}
		if dict == nil {
			// Mine the app's honest evidence as the gateway's mining would.
			tpl, err := e.gen.template(s.name, nil)
			if err != nil {
				return nil, err
			}
			pk, derr := pipeline.DecodeMTB(chainLog(tpl.reports))
			if derr != nil {
				return nil, derr
			}
			if dict, err = speccfa.Mine(pk, 8, 2, 8); err != nil {
				return nil, err
			}
		}
		k.dict[s.name] = dict
		if k.aut[s.name], err = cold.CompileAutomaton(dict); err != nil {
			return nil, err
		}
		// Warm the caches with the app's honest evidence, as warm-up does
		// for the gateway.
		tpl, err := e.gen.template(s.name, k.live[s.name])
		if err != nil {
			return nil, err
		}
		chal, reports, _, err := k.instance(s, tpl, nil, false)
		if err != nil {
			return nil, err
		}
		for _, v := range []*verify.Verifier{k.hot[s.name], k.onPath[s.name]} {
			if _, err := v.VerifyWithAutomaton(chal, reports, k.sessionDict(s.name), k.sessionAut(s.name)); err != nil {
				return nil, err
			}
		}
	}
	return k, nil
}

func (k *layerKit) close() {
	dir := k.j.Dir()
	_ = k.j.Close()
	_ = os.RemoveAll(dir)
}

// sessionDict is the dictionary the app's sessions compress with on this
// workload (nil where the gateway ships none).
func (k *layerKit) sessionDict(app string) *speccfa.Dictionary {
	if len(k.live[app]) == 0 {
		return nil
	}
	return k.dict[app]
}

func (k *layerKit) sessionAut(app string) *verify.Automaton {
	if len(k.live[app]) == 0 {
		return k.plain[app]
	}
	return k.aut[app]
}

func (k *layerKit) instance(s *appSpec, tpl *template, h *hijack, streamed bool) (attest.Challenge, []*attest.Report, int, error) {
	chal, err := attest.NewChallenge(s.name)
	if err != nil {
		return chal, nil, 0, err
	}
	reports, edited, err := tpl.instantiate(s, chal.Nonce, h, streamed)
	return chal, reports, edited, err
}

func chainLog(reports []*attest.Report) []byte {
	var b []byte
	for _, r := range reports {
		b = append(b, r.CFLog...)
	}
	return b
}

// replay runs one planned session through phase D: the on-path tree,
// then the probe tree.
func (k *layerKit) replay(spec sessionSpec) error {
	e, tr := k.e, k.tr
	s := e.gen.specs[spec.app]
	tpl, err := e.gen.template(spec.app, k.live[spec.app])
	if err != nil {
		return err
	}
	id := replayID(spec.index)
	root := tr.start(id, "session", 0)

	sp := tr.start(id, "remote.codec", root)
	var wire bytes.Buffer
	_ = remote.WriteFrame(&wire, remote.FrameHello, remote.EncodeHelloID(spec.app, spec.device))
	_, hello, err := remote.ReadFrame(&wire)
	if err == nil {
		_, _, err = remote.ParseHelloID(hello)
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.start(id, "device.sign", root)
	chal, reports, edited, err := k.instance(s, tpl, spec.hijack, e.w.streamed)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.start(id, "remote.codec", root)
	_ = remote.WriteFrame(&wire, remote.FrameChal, chal.Encode())
	_, cb, _ := remote.ReadFrame(&wire)
	_, err = attest.DecodeChallenge(cb)
	// Device-side framing, then gateway-side unframing of the evidence.
	payloads := make([][]byte, len(reports))
	tag := remote.SliceTagInit(chal.Nonce)
	for i, r := range reports {
		if e.w.streamed {
			tag = remote.SliceTagNext(tag, r.Auth)
			_ = remote.WriteFrame(&wire, remote.FrameSlice, remote.EncodeSlice(remote.Slice{Seq: uint32(i), Final: r.Final, Tag: tag, Report: r.Encode()}))
		} else {
			_ = remote.WriteFrame(&wire, remote.FrameRprt, r.Encode())
		}
	}
	for i := range reports {
		_, p, rerr := remote.ReadFrame(&wire)
		if rerr != nil {
			err = rerr
			break
		}
		if e.w.streamed {
			sl, serr := remote.DecodeSlice(p)
			if serr != nil {
				err = serr
				break
			}
			p = sl.Report
		}
		payloads[i] = p
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.start(id, "attest.decode", root)
	decoded := make([]*attest.Report, len(payloads))
	for i, p := range payloads {
		if decoded[i], err = attest.DecodeReport(p); err != nil {
			break
		}
	}
	tr.end(sp)
	if err != nil {
		return err
	}

	dict, aut := k.sessionDict(spec.app), k.sessionAut(spec.app)
	var vd *verify.Verdict
	if e.w.streamed {
		sess := k.cold[spec.app].Begin(chal, verify.SessionDictionary(dict), verify.SessionAutomaton(aut))
		for i, r := range decoded {
			sp = tr.start(id, "verify.feed", root)
			sv := sess.Feed(r)
			tr.end(sp)
			if i == edited && sv.Status.Definitive() {
				sp = tr.start(id, "remote.codec", root)
				_ = remote.WriteFrame(&wire, remote.FrameHeal, remote.EncodeHeal(remote.Heal{Seq: uint32(i), Directive: remote.HealQuarantine}))
				_, hp, _ := remote.ReadFrame(&wire)
				_, _ = remote.DecodeHeal(hp)
				tr.end(sp)
			}
		}
		sp = tr.start(id, "verify.seal", root)
		vd, err = sess.Seal()
		tr.end(sp)
	} else {
		start := time.Now()
		sp = tr.start(id, "verify", root)
		vd, err = k.onPath[spec.app].VerifyWithAutomaton(chal, decoded, dict, aut)
		tr.end(sp)
		if err == nil {
			tm := vd.Timing
			tr.add(id, "attest.auth", sp, start, tm.Auth)
			tr.add(id, "speccfa.expand", sp, start.Add(tm.Auth), tm.Expand)
			tr.add(id, "verify.search", sp, start.Add(tm.Auth+tm.Expand), tm.Search)
		}
	}
	if err != nil {
		return err
	}
	if vd.OK != (spec.hijack == nil) {
		return fmt.Errorf("session %d (%s): direct verdict ok=%v for hijack=%v", spec.index, spec.app, vd.OK, spec.hijack != nil)
	}
	sp = tr.start(id, "remote.codec", root)
	_ = remote.WriteFrame(&wire, remote.FrameVerdict, remote.EncodeVerdict(vd.OK, vd.Code, vd.Detail))
	_, vb, _ := remote.ReadFrame(&wire)
	_, _ = remote.DecodeVerdict(vb)
	tr.end(sp)
	if e.w.journal {
		sp = tr.start(id, "journal.append", root)
		err = k.j.Append(journalEntry(spec, chal, decoded, vd))
		tr.end(sp)
	}
	tr.end(root)
	if err != nil {
		return err
	}
	return k.probe(spec, id, chal, decoded, vd)
}

func journalEntry(spec sessionSpec, chal attest.Challenge, reports []*attest.Report, vd *verify.Verdict) journal.Entry {
	e := journal.Entry{Kind: journal.KindVerdict, App: spec.app, Device: spec.device,
		Payload: attest.EncodeEvidence(chal, reports)}
	if !vd.OK {
		e.Outcome, e.Code, e.Detail = journal.OutcomeAttack, vd.Code, vd.Detail
	}
	return e
}

// probe times single layers on one session's evidence under a separate
// "probe" root, off the session's path.
func (k *layerKit) probe(spec sessionSpec, id uint64, chal attest.Challenge, reports []*attest.Report, vd *verify.Verdict) error {
	tr := k.tr
	app := spec.app
	s := k.e.gen.specs[app]
	root := tr.start(id, "probe", 0)
	defer tr.end(root)

	sp := tr.start(id, "attest.auth", root)
	log, _, err := attest.AssembleChain(reports, chal, s.key)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.start(id, "pipeline.decode", root)
	pk, derr := pipeline.DecodeMTB(log)
	tr.end(sp)
	if derr != nil {
		return derr
	}
	// Expansion runs on compressed evidence: the session's own where the
	// gateway ships a dictionary, else the plain stream compressed with
	// the app's mined one.
	dict := k.dict[app]
	comp := pk
	if k.sessionDict(app) == nil {
		comp = dict.Compress(pk)
	}
	sp = tr.start(id, "speccfa.expand", root)
	full, derr := pipeline.Expand(dict, comp)
	tr.end(sp)
	if derr != nil {
		return derr
	}
	k.compressed += len(comp)
	k.expanded += len(full)

	sp = tr.start(id, "automaton.decode", root)
	_, st := k.plain[app].Decode(full, pathCap, maxWork)
	tr.end(sp)
	k.decodes++
	if st == automaton.StatusAccept {
		k.accepts++
	}
	if spec.hijack != nil {
		return nil
	}
	sd, sa := k.sessionDict(app), k.sessionAut(app)
	sp = tr.start(id, "verify.accept", root)
	v1, err := k.cold[app].VerifyWithAutomaton(chal, reports, sd, sa)
	tr.end(sp)
	if err != nil || !v1.OK {
		return fmt.Errorf("%s: cold verify of honest evidence failed: %v", app, err)
	}
	sp = tr.start(id, "verify.hit", root)
	v2, err := k.hot[app].VerifyWithAutomaton(chal, reports, sd, sa)
	tr.end(sp)
	if err != nil || !v2.OK || !v2.Timing.CacheHit {
		return fmt.Errorf("%s: cached verify missed (err %v)", app, err)
	}
	sess := k.cold[app].Begin(chal, verify.SessionDictionary(sd), verify.SessionAutomaton(sa))
	for _, r := range reports {
		sp = tr.start(id, "verify.feed", root)
		sess.Feed(r)
		tr.end(sp)
	}
	sp = tr.start(id, "verify.seal", root)
	v3, err := sess.Seal()
	tr.end(sp)
	if err != nil || !v3.OK {
		return fmt.Errorf("%s: streamed verify of honest evidence failed: %v", app, err)
	}
	sdec := sa.Stream(pathCap, maxWork)
	for _, r := range reports {
		slice, derr := pipeline.DecodeMTB(r.CFLog)
		if derr != nil {
			return derr
		}
		sp = tr.start(id, "automaton.stream_feed", root)
		sdec.Feed(slice)
		tr.end(sp)
	}
	sp = tr.start(id, "journal.append", root)
	err = k.j.Append(journalEntry(spec, chal, reports, vd))
	tr.end(sp)
	return err
}

// rejectSample is one hijacked session's cold verification time and the
// automaton walk's share of it.
type rejectSample struct {
	reject, decode time.Duration
}

// rejectProbe times the reject path on one seeded hijack per app: cold
// verification (automaton no-path, then the interpreter renders) and a
// bare automaton decode of the same packets.
func (k *layerKit) rejectProbe(seed uint64) ([]rejectSample, error) {
	p := newPlanner(seed, apps.EvalOrder, devicesPerApp, 1)
	var out []rejectSample
	for i := range k.e.specs {
		spec := p.at(i)
		s := k.e.gen.specs[spec.app]
		tpl, err := k.e.gen.template(spec.app, nil)
		if err != nil {
			return nil, err
		}
		chal, reports, _, err := k.instance(s, tpl, spec.hijack, false)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		vd, err := k.cold[spec.app].VerifyWithAutomaton(chal, reports, nil, k.plain[spec.app])
		rej := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if vd.OK {
			return nil, fmt.Errorf("%s: hijacked evidence accepted", spec.app)
		}
		pk, derr := pipeline.DecodeMTB(chainLog(reports))
		if derr != nil {
			return nil, derr
		}
		t0 = time.Now()
		_, _ = k.plain[spec.app].Decode(pk, pathCap, maxWork)
		out = append(out, rejectSample{reject: rej, decode: time.Since(t0)})
	}
	return out, nil
}

// --- router, gateway and heal probes --------------------------------------

// pipeDialer serves each dialed connection with handler on the far end
// of an in-memory pipe; wg counts the handlers still running.
type pipeDialer struct {
	handler func(net.Conn) error
	wg      sync.WaitGroup
}

func (p *pipeDialer) dial() (net.Conn, error) {
	c, s := net.Pipe()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		_ = p.handler(s)
	}()
	return c, nil
}

// pipeTimes runs the honest sessions in specs through handler and returns
// their session times in microseconds.
func pipeTimes(gen *generator, streamed bool, specs []sessionSpec, handler func(net.Conn) error) ([]float64, error) {
	pd := &pipeDialer{handler: handler}
	defer pd.wg.Wait()
	dev := &device{gen: gen, streamed: streamed}
	var out []float64
	for _, spec := range specs {
		o := dev.run(spec, pd.dial)
		if o.err != nil || !o.ok {
			return nil, fmt.Errorf("pipe session %d (%s): ok=%v err=%v", spec.index, spec.app, o.ok, o.err)
		}
		out = append(out, us(o.latency))
	}
	return out, nil
}

// healProbe streams one hijacked session per app to a streaming gateway
// (cache and mining off) over loopback TCP, one at a time, and returns
// hijacked-slice-to-HEAL times in microseconds. (A synchronous net.Pipe
// cannot carry a HEALACK the gateway only reads after its verdict write.)
func healProbe(seed uint64, e *env) ([]float64, error) {
	g := server.New(server.WithCache(-1), server.WithMining(-1, 0, 0))
	for _, s := range e.specs {
		g.Register(s.name, s.newVerifier())
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.Close()
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- g.Serve(l) }()
	defer func() {
		g.Close()
		<-served
	}()
	dial := func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }
	dev := &device{gen: e.gen, streamed: true}
	p := newPlanner(seed, apps.EvalOrder, devicesPerApp, 1)
	var out []float64
	for i := range e.specs {
		o := dev.run(p.at(i), dial)
		for try := 1; !o.verdict && try < verdictTries; try++ {
			o = dev.run(p.at(i), dial)
		}
		if o.err != nil || !o.verdict || o.ok || !o.healed {
			return nil, fmt.Errorf("heal probe %s: verdict=%v ok=%v healed=%v err=%v", p.at(i).app, o.verdict, o.ok, o.healed, o.err)
		}
		out = append(out, us(o.detect))
	}
	return out, nil
}

// --- runtime counters ------------------------------------------------------

type runtimeSample struct {
	alloc        uint64
	gcCPU, total float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	r := runtimeSample{alloc: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.total = s[1].Value.Float64()
	}
	return r
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		var kb float64
		if n, _ := fmt.Sscanf(string(line), "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}

// spanFile names the span dump of a workload's traced run. Each traced
// run replaces the last one's dump, so repeated runs over many seeds
// keep at most one dump per workload on disk.
func spanFile(workdir, workload string) string {
	return filepath.Join(workdir, fmt.Sprintf("spans-%s.jsonl", workload))
}
