package report

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"raptrack/internal/apps"
	"raptrack/internal/attest"
	"raptrack/internal/core"
	"raptrack/internal/trace"
	"raptrack/internal/trace/pipeline"
	"raptrack/internal/verify"
)

// VerifyBenchApps is the workload set the verifier-core benchmark covers
// by default: every evaluation app, so each one's reject cells sit next
// to its accept cells.
var VerifyBenchApps = apps.EvalOrder

// VerifyBenchRejects are the corruption classes (core.Corruptions) the
// reject cells render: the compromised-device hijack inserted
// mid-stream, a flipped destination mid-stream, and a bogus packet
// appended at the tail.
var VerifyBenchRejects = []string{"insert-hijack", "flip-dst", "append-bogus"}

// VerifyBenchResult is one cell of the engine × cache matrix for one
// workload and evidence class. The JSON encoding of the full matrix is
// the BENCH_verify.json artifact CI uploads per PR, so verifier-core
// regressions are visible without re-running the suite locally.
type VerifyBenchResult struct {
	App    string `json:"app"`
	Engine string `json:"engine"` // "interp" or "automaton"
	Cache  bool   `json:"cache"`
	// Class is "accept" for the honest chain through Verify,
	// "accept-replay" for its decoded stream through the replay call the
	// reject cells use, else the corruption class rendered as a reject.
	Class string `json:"class"`

	NsPerOp        int64   `json:"ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	Iterations     int     `json:"iterations"`
	LogBytes       int     `json:"log_bytes"`
	// RejectAcceptRatio is a reject cell's ns/op over the accept-replay
	// cell's at the same engine and cache setting: the same replay call
	// on the honest stream, so neither side includes chain
	// authentication or a verdict-cache hit.
	RejectAcceptRatio float64 `json:"reject_accept_ratio,omitempty"`
}

// VerifyBenchReport is the top-level BENCH_verify.json document.
type VerifyBenchReport struct {
	Suite   string              `json:"suite"`
	Budget  string              `json:"budget_per_cell"`
	Results []VerifyBenchResult `json:"results"`
}

// VerifyBench measures verification of real attested evidence for each
// named workload through the 2x2 engine matrix: interpretive pushdown
// search vs compiled automaton, with and without the cross-session
// summary cache. Each cell reuses one frozen evidence stream (attested
// once up front), so the numbers isolate the verifier core — no
// emulation, signing, or network in the loop.
//
// Accept cells run the whole Verify pipeline on the honest chain. Reject
// cells replay each VerifyBenchRejects corruption of the decoded stream
// (ReplayPackets / ReplayPacketsAutomaton): under attack every hijack is
// distinct, so they skip chain authentication and the verdict cache, and
// with the cache on they measure the segment-cache-warm render. The
// accept-replay cell runs that same replay call on the honest decoded
// stream and is what each reject's ratio divides by. budget is the
// minimum measured wall time per cell; <= 0 picks a default suitable for
// CI (300ms).
func VerifyBench(names []string, budget time.Duration) ([]VerifyBenchResult, error) {
	if budget <= 0 {
		budget = 300 * time.Millisecond
	}
	modes := []struct {
		engine string
		cache  bool
	}{
		{"interp", false},
		{"interp", true},
		{"automaton", false},
		{"automaton", true},
	}
	var out []VerifyBenchResult
	for _, name := range names {
		a, err := apps.Get(name)
		if err != nil {
			return nil, err
		}
		link, err := core.LinkForCFA(a.Build(), core.DefaultLinkOptions())
		if err != nil {
			return nil, fmt.Errorf("report: %s link: %w", name, err)
		}
		key, err := attest.GenerateHMACKey()
		if err != nil {
			return nil, err
		}
		prover, err := core.NewProver(link, key, core.ProverConfig{SetupMem: a.SetupMem(), MaxSteps: a.MaxSteps})
		if err != nil {
			return nil, err
		}
		chal, err := attest.NewChallenge(name)
		if err != nil {
			return nil, err
		}
		reports, stats, err := prover.Attest(chal)
		if err != nil {
			return nil, fmt.Errorf("report: %s attest: %w", name, err)
		}
		log, _, err := attest.AssembleChain(reports, chal, key)
		if err != nil {
			return nil, fmt.Errorf("report: %s assemble: %w", name, err)
		}
		pk, derr := pipeline.New(pipeline.Raw(pipeline.FormatMTB, log)).Packets()
		if derr != nil {
			return nil, fmt.Errorf("report: %s decode: %w", name, derr)
		}
		corrupt := core.Corruptions(pk)

		for _, mode := range modes {
			// A fresh cache per cell: hit rates reflect this stream
			// alone, not a previous cell's residue.
			verifier := func() *verify.Verifier {
				opts := []verify.Option{verify.WithAutomaton(mode.engine == "automaton")}
				if mode.cache {
					opts = append(opts, verify.WithCache(verify.NewCache(64<<20)))
				}
				return core.NewVerifier(link, key, opts...)
			}
			label := fmt.Sprintf("%s %s/cache=%v", name, mode.engine, mode.cache)
			v := verifier()
			acc, err := measureVerify(func() (*verify.Verdict, error) { return v.Verify(chal, reports) }, true, budget)
			if err != nil {
				return nil, fmt.Errorf("report: %s accept: %w", label, err)
			}
			acc.Class = "accept"
			replay := func(pk []trace.Packet, wantOK bool) (VerifyBenchResult, error) {
				v := verifier()
				op := v.ReplayPackets
				if mode.engine == "automaton" {
					op = v.ReplayPacketsAutomaton
				}
				return measureVerify(func() (*verify.Verdict, error) { return op(pk), nil }, wantOK, budget)
			}
			base, err := replay(pk, true)
			if err != nil {
				return nil, fmt.Errorf("report: %s accept-replay: %w", label, err)
			}
			base.Class = "accept-replay"
			rs := []VerifyBenchResult{acc, base}
			for _, class := range VerifyBenchRejects {
				mpk, ok := corrupt[class]
				if !ok {
					return nil, fmt.Errorf("report: unknown corruption class %q", class)
				}
				r, err := replay(mpk, false)
				if err != nil {
					return nil, fmt.Errorf("report: %s %s: %w", label, class, err)
				}
				r.Class = class
				if base.NsPerOp > 0 {
					r.RejectAcceptRatio = float64(r.NsPerOp) / float64(base.NsPerOp)
				}
				rs = append(rs, r)
			}
			for _, r := range rs {
				r.App, r.Engine, r.Cache, r.LogBytes = name, mode.engine, mode.cache, stats.CFLogBytes
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// measureVerify times repeated runs of op on one frozen evidence stream
// until budget wall time has elapsed. Allocation counts come from
// runtime.MemStats deltas over the whole loop — coarser than the testing
// package's per-op accounting, but stable at the iteration counts the
// budget yields, and free of a testing.B dependency in a non-test build.
func measureVerify(op func() (*verify.Verdict, error), wantOK bool, budget time.Duration) (VerifyBenchResult, error) {
	// One warm-up op validates the verdict (and, cache on, pays the
	// cold-miss fill so steady-state numbers describe the hit path).
	verdict, err := op()
	if err != nil {
		return VerifyBenchResult{}, err
	}
	if verdict.OK != wantOK {
		return VerifyBenchResult{}, fmt.Errorf("verdict ok=%v, want %v: %s", verdict.OK, wantOK, verdict.Reason())
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	var elapsed time.Duration
	for elapsed < budget {
		if _, err := op(); err != nil {
			return VerifyBenchResult{}, err
		}
		iters++
		elapsed = time.Since(start)
	}
	runtime.ReadMemStats(&after)

	ns := elapsed.Nanoseconds() / int64(iters)
	r := VerifyBenchResult{
		NsPerOp:     ns,
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(iters),
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
		Iterations:  iters,
	}
	if ns > 0 {
		r.SessionsPerSec = 1e9 / float64(ns)
	}
	return r, nil
}

// VerifyBenchTable renders the matrix for terminal consumption, one row
// per (app, engine, cache, class) cell plus the headline speedup column
// (automaton over interpreter at equal cache setting and class) and each
// reject's ratio to the accept-replay cell.
func VerifyBenchTable(rs []VerifyBenchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Verifier core: interpreter vs compiled automaton (uncached and cached), accepts and rejects\n")
	fmt.Fprintf(&b, "%-12s %-10s %-6s %-14s %14s %12s %12s %10s %9s %9s\n",
		"app", "engine", "cache", "class", "ns/op", "sessions/s", "allocs/op", "B/op", "speedup", "rej/acc")
	cell := func(r VerifyBenchResult) string { return fmt.Sprintf("%s|%v|%s", r.App, r.Cache, r.Class) }
	interp := map[string]int64{} // app|cache|class -> interpreter ns/op
	for _, r := range rs {
		if r.Engine == "interp" {
			interp[cell(r)] = r.NsPerOp
		}
	}
	for _, r := range rs {
		speedup, ratio := "", ""
		if base := interp[cell(r)]; r.Engine == "automaton" && base > 0 && r.NsPerOp > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(base)/float64(r.NsPerOp))
		}
		if r.RejectAcceptRatio > 0 {
			ratio = fmt.Sprintf("%.1fx", r.RejectAcceptRatio)
		}
		fmt.Fprintf(&b, "%-12s %-10s %-6v %-14s %14d %12.1f %12d %10d %9s %9s\n",
			r.App, r.Engine, r.Cache, r.Class, r.NsPerOp, r.SessionsPerSec, r.AllocsPerOp, r.BytesPerOp, speedup, ratio)
	}
	return b.String()
}
