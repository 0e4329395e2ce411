package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"raptrack/internal/apps"
	"raptrack/internal/attest"
	"raptrack/internal/baseline/naive"
	"raptrack/internal/core"
	"raptrack/internal/linker"
	"raptrack/internal/speccfa"
	"raptrack/internal/trace"
	"raptrack/internal/verify"
)

// appSpec is one provisioned application: the golden link artifact, the
// device key shared by the app's simulated fleet, and the prover-side
// ledger recorded once at setup.
type appSpec struct {
	name   string
	app    apps.App
	link   *linker.Output
	key    *attest.HMACKey
	ledger proverLedger
}

// proverLedger is the simulated-MCU cost of one attested run of the app
// next to an uninstrumented naive-MTB run (the paper's Fig. 8 pair).
type proverLedger struct {
	cycles, baselineCycles uint64
	secureCalls, packets   uint64
	cflogBytes, partials   int
}

// setupTimes splits one set-up by layer (linker.link_ms, core.record_ms,
// verify.compile_ms).
type setupTimes struct {
	link, record, compile time.Duration
}

// provision links every app, derives its device key from the seed, and
// records the prover ledger: one attested run at the workload's
// watermark and one naive-MTB baseline run.
func provision(names []string, seed uint64, watermark int, st *setupTimes) ([]*appSpec, error) {
	specs := make([]*appSpec, 0, len(names))
	for i, name := range names {
		a, err := apps.Get(name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		link, err := core.LinkForCFA(a.Build(), core.DefaultLinkOptions())
		if err != nil {
			return nil, fmt.Errorf("linking %s: %w", name, err)
		}
		st.link += time.Since(t0)
		var k [32]byte
		binary.LittleEndian.PutUint64(k[:], mix(seed, uint64(i), 0x6b6579))
		spec := &appSpec{name: name, app: a, link: link, key: attest.NewHMACKey(k[:])}
		nres, err := naive.Run(a.Build(), naive.Config{SetupMem: a.SetupMem(), MaxSteps: a.MaxSteps})
		if err != nil {
			return nil, fmt.Errorf("baseline run %s: %w", name, err)
		}
		spec.ledger.baselineCycles = nres.Cycles
		specs = append(specs, spec)
	}
	return specs, nil
}

// newVerifier builds app's verifier; its construction compiles the
// automaton, so callers time it as verify.compile_ms.
func (s *appSpec) newVerifier(opts ...verify.Option) *verify.Verifier {
	return core.NewVerifier(s.link, s.key, opts...)
}

// --- device generator --------------------------------------------------
//
// A live prover per session costs about a millisecond of host CPU, as
// much as the gateway's cold verification, so the load generator would
// take half the machine. The report format makes a cheaper honest device
// possible: each report authenticates (App, Nonce, Seq, Final, loss
// counters, H_MEM, CFLog) under the device key, and the evidence of a
// deterministic firmware run does not depend on the challenge nonce. The
// generator records one real attested run per (app, dictionary) and each
// session replays that chain with the fresh nonce and every report
// re-signed, so the gateway sees byte-exact honest evidence.

// template is one recorded report chain.
type template struct {
	reports []*attest.Report
	packets int // whole MTB packets across the chain
}

// generator owns the recorded templates of one workload.
type generator struct {
	specs     map[string]*appSpec
	watermark int

	mu     sync.Mutex
	cache  map[string]*template
	record time.Duration // summed recording time (core.record_ms)
}

func newGenerator(specs []*appSpec, watermark int) *generator {
	m := make(map[string]*appSpec, len(specs))
	for _, s := range specs {
		m[s.name] = s
	}
	return &generator{specs: m, watermark: watermark, cache: make(map[string]*template)}
}

// template returns the recording for (app, DICT payload), running one real
// attested execution the first time the pair is seen.
func (g *generator) template(app string, dictPayload []byte) (*template, error) {
	sum := sha256.Sum256(dictPayload)
	key := app + "\x00" + string(sum[:])
	g.mu.Lock()
	defer g.mu.Unlock()
	if t, ok := g.cache[key]; ok {
		return t, nil
	}
	spec, ok := g.specs[app]
	if !ok {
		return nil, fmt.Errorf("no provisioned app %q", app)
	}
	t0 := time.Now()
	t, stats, err := recordRun(spec, g.watermark, dictPayload)
	if err != nil {
		return nil, err
	}
	g.record += time.Since(t0)
	if len(dictPayload) == 0 {
		spec.ledger.cycles = stats.Cycles
		spec.ledger.secureCalls = stats.SecureCalls
		spec.ledger.packets = stats.Packets
		spec.ledger.cflogBytes = stats.CFLogBytes
		spec.ledger.partials = stats.Partials
	}
	g.cache[key] = t
	return t, nil
}

func recordRun(spec *appSpec, watermark int, dictPayload []byte) (*template, core.RunStats, error) {
	prover, err := core.NewProver(spec.link, spec.key, core.ProverConfig{
		SetupMem:  spec.app.SetupMem(),
		MaxSteps:  spec.app.MaxSteps,
		Watermark: watermark,
	})
	if err != nil {
		return nil, core.RunStats{}, err
	}
	if len(dictPayload) > 0 {
		dict, err := speccfa.DecodeDictionary(dictPayload)
		if err != nil {
			return nil, core.RunStats{}, fmt.Errorf("decoding session dictionary: %w", err)
		}
		if err := prover.Engine.SetSpeculation(dict); err != nil {
			return nil, core.RunStats{}, err
		}
	}
	chal, err := attest.NewChallenge(spec.name)
	if err != nil {
		return nil, core.RunStats{}, err
	}
	reports, stats, err := prover.Attest(chal)
	if err != nil {
		return nil, core.RunStats{}, fmt.Errorf("recording %s: %w", spec.name, err)
	}
	if len(reports) == 0 {
		return nil, core.RunStats{}, errors.New("attested run produced no reports")
	}
	t := &template{}
	for _, r := range reports {
		// Decouple from engine-owned buffers through the codec.
		rr, err := attest.DecodeReport(r.Encode())
		if err != nil {
			return nil, core.RunStats{}, err
		}
		t.reports = append(t.reports, rr)
		t.packets += len(rr.CFLog) / trace.PacketSize
	}
	return t, stats, nil
}

// hijack describes the compromised-device edit of one session: a
// transfer to an address outside the linked image, inserted as an extra
// MTB packet before packet pos (counted across the whole chain), or, for
// a streamed session, into slice `slice` at fraction pos of its packets.
type hijack struct {
	target uint32
	pos    float64 // in [0,1)
	slice  float64 // in [0,1): which interior slice (streaming only)
}

// instantiate renders the template for one session: the fresh nonce
// substituted, the hijack (if any) inserted, every report re-signed. It
// returns the index of the edited report (-1 for an honest session).
func (t *template) instantiate(spec *appSpec, nonce [attest.NonceSize]byte, h *hijack, streamed bool) ([]*attest.Report, int, error) {
	out := make([]*attest.Report, len(t.reports))
	for i, r := range t.reports {
		cp := *r
		cp.Nonce = nonce
		cp.Auth = nil
		out[i] = &cp
	}
	edited := -1
	if h != nil {
		edited = insertHijack(out, t, h, streamed)
	}
	for _, r := range out {
		if err := attest.SignReport(r, spec.key); err != nil {
			return nil, -1, err
		}
	}
	return out, edited, nil
}

// insertHijack places the hijacked packet and returns the edited report.
// A batch hijack lands at a position over the whole chain; a streamed one
// picks an interior slice first (any slice when the chain has fewer than
// three), so detection happens mid-stream.
func insertHijack(out []*attest.Report, t *template, h *hijack, streamed bool) int {
	idx, at := 0, 0
	if streamed {
		lo, n := 0, len(out)
		if n >= 3 {
			lo, n = 1, n-2
		}
		idx = lo + int(h.slice*float64(n))
		at = int(h.pos * float64(len(out[idx].CFLog)/trace.PacketSize+1))
	} else {
		p := int(h.pos * float64(t.packets+1))
		for idx = 0; idx < len(out)-1; idx++ {
			n := len(out[idx].CFLog) / trace.PacketSize
			if p <= n {
				break
			}
			p -= n
		}
		at = p
	}
	log := out[idx].CFLog
	if max := len(log) / trace.PacketSize; at > max {
		at = max
	}
	// The diverted transfer leaves from a genuine branch site: the source
	// of the packet it lands before (or after, at the end of the log).
	var src uint32
	switch n := len(log) / trace.PacketSize; {
	case at < n:
		src = binary.LittleEndian.Uint32(log[at*trace.PacketSize:])
	case n > 0:
		src = binary.LittleEndian.Uint32(log[(n-1)*trace.PacketSize:])
	}
	var pk [trace.PacketSize]byte
	binary.LittleEndian.PutUint32(pk[:], src)
	binary.LittleEndian.PutUint32(pk[4:], h.target)
	nl := make([]byte, 0, len(log)+trace.PacketSize)
	nl = append(nl, log[:at*trace.PacketSize]...)
	nl = append(nl, pk[:]...)
	nl = append(nl, log[at*trace.PacketSize:]...)
	out[idx].CFLog = nl
	return idx
}

// --- seeded session plan -------------------------------------------------

// sessionSpec is one planned device session.
type sessionSpec struct {
	index  int
	app    string
	device string
	hijack *hijack // nil: honest device
}

// planner maps a session index to its spec as a pure function of the
// seed, so every run of a seed offers the gateway the same sequence and
// the closed loop only decides how far into it a run gets.
type planner struct {
	seed    uint64
	apps    []string
	devices int // devices per app
	// every is the hijack period: session slot, slot+every, ... comes
	// from a compromised device (every 0: none).
	every, slot int
	// offset is where the honest sessions' app round-robin starts.
	offset int
	// perm orders the apps hijacks cycle through; phase offsets each
	// app's low-discrepancy position sequence.
	perm  []int
	phase []float64
}

func newPlanner(seed uint64, appNames []string, devices, every int) *planner {
	p := &planner{seed: seed, apps: appNames, devices: devices, every: every,
		offset: int(mix(seed, 0, 0x6f6666) % uint64(len(appNames)))}
	if every > 0 {
		p.slot = int(mix(seed, 0, 0x736c6f74) % uint64(every))
	}
	p.perm = make([]int, len(appNames))
	for i := range p.perm {
		p.perm[i] = i
	}
	for i := len(p.perm) - 1; i > 0; i-- {
		j := int(mix(seed, uint64(i), 0x7065726d) % uint64(i+1))
		p.perm[i], p.perm[j] = p.perm[j], p.perm[i]
	}
	p.phase = make([]float64, len(appNames))
	for i := range p.phase {
		p.phase[i] = unit(mix(seed, uint64(i), 0x706861))
	}
	return p
}

// goldenStep is the fractional golden ratio: the k-th hijack of an app
// sits at phase + k*goldenStep (mod 1), which covers [0,1) evenly, so a
// run's reject cost tracks the mean over positions instead of the luck of
// a few draws.
var goldenStep = (math.Sqrt(5) - 1) / 2

func (p *planner) at(i int) sessionSpec {
	s := sessionSpec{index: i}
	hijacks := 0 // compromised sessions before i
	if p.every > 0 {
		block := i / p.every
		if i%p.every == p.slot {
			a := p.perm[block%len(p.apps)]
			k := float64(block / len(p.apps))
			s.app = p.apps[a]
			s.device = fmt.Sprintf("%s-compromised-%d", s.app, block)
			s.hijack = &hijack{
				target: 0x0ff0_0000 + 4*uint32(block%0x10000),
				pos:    frac(p.phase[a] + k*goldenStep),
				slice:  frac(p.phase[a] + 0.5 + k*goldenStep*goldenStep),
			}
			return s
		}
		if i > p.slot {
			hijacks = (i - p.slot + p.every - 1) / p.every
		}
	}
	// Honest sessions walk the apps round-robin, so every run carries the
	// same app mix; the device is drawn per session.
	s.app = p.apps[(i-hijacks+p.offset)%len(p.apps)]
	s.device = fmt.Sprintf("%s-dev-%d", s.app, mix(p.seed, uint64(i), 0x686f6e)%uint64(p.devices))
	return s
}

func frac(x float64) float64 { return x - math.Floor(x) }

// mix is a splitmix64-style hash of (seed, i, salt).
func mix(seed, i, salt uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 ^ (i+1)*0xbf58476d1ce4e5b9 ^ salt*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

func unit(x uint64) float64 { return float64(x>>11) / float64(1<<53) }
