package loadgen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"specslice/internal/lang"
	"specslice/internal/server"
	"specslice/internal/workload"
)

// Scenario is one named workload mix. The fields are data, so tests can
// construct custom mixes; the shipped registry (Scenarios) covers the
// YCSB-style read_heavy / write_heavy / balanced trio.
type Scenario struct {
	Name string
	// ReadFraction is the probability an op re-slices a family's current
	// version (warm path); the remainder are edits — workload.NewEditor
	// steps producing a new version whose request drives the server's
	// version-chain Advance (or a cold build when the edit changed the
	// procedure set and thus the family).
	ReadFraction float64
	// Programs is the corpus size: independently generated program
	// families whose popularity is Zipfian with ProgramTheta. A corpus
	// larger than CacheEntries makes the tail force LRU misses and
	// evictions while the hot head stays warm.
	Programs int
	// CacheEntries is the engine-cache entry budget in-process runs give
	// the server (0 = the server default); read_heavy sets it below
	// Programs deliberately.
	CacheEntries int
	// ProgramTheta and CriterionTheta are the Zipfian skews for program
	// and per-version criterion choice (YCSB's default skew is 0.99).
	ProgramTheta, CriterionTheta float64
	// MonoFraction of criteria ask for monovariant slices; the rest are
	// polyvariant.
	MonoFraction float64
	// DefaultRate is the target throughput (ops/sec) used when the caller
	// does not override it.
	DefaultRate float64
}

// Scenarios is the registry of named workload mixes.
func Scenarios() []Scenario {
	return []Scenario{
		{
			// Warm slices on popular programs: the hot head lives in the
			// LRU, the long tail (24 families vs. 8 cache entries) forces
			// misses and evictions on every excursion down the popularity
			// curve.
			Name:         "read_heavy",
			ReadFraction: 0.95,
			Programs:     24,
			CacheEntries: 8,
			ProgramTheta: 0.99, CriterionTheta: 0.8,
			MonoFraction: 0.15,
			DefaultRate:  400,
		},
		{
			// Edit streams: most ops advance a version chain, piling new
			// cache entries until the LRU churns.
			Name:         "write_heavy",
			ReadFraction: 0.10,
			Programs:     6,
			CacheEntries: 64,
			ProgramTheta: 0.99, CriterionTheta: 0.8,
			MonoFraction: 0.15,
			DefaultRate:  120,
		},
		{
			Name:         "balanced",
			ReadFraction: 0.50,
			Programs:     12,
			CacheEntries: 32,
			ProgramTheta: 0.99, CriterionTheta: 0.8,
			MonoFraction: 0.15,
			DefaultRate:  250,
		},
	}
}

// ScenarioByName returns the named registry entry.
func ScenarioByName(name string) (Scenario, error) {
	var names []string
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
		names = append(names, sc.Name)
	}
	return Scenario{}, fmt.Errorf("loadgen: unknown scenario %q (have %s)", name, strings.Join(names, ", "))
}

// Op is one scheduled request. At is the op's offset from the run start:
// open-loop, the schedule fixes arrival times up front and the driver holds
// to them regardless of response times, so a slow server accumulates
// backlog (visible as shed ops and tail latency) instead of silently
// slowing the arrival process the way a closed loop would.
type Op struct {
	At time.Duration
	// Program indexes Schedule.Sources.
	Program int
	// Write marks ops that send a version the server has not seen — the
	// edit stream driving Advance.
	Write    bool
	Criteria []server.CriterionRequest
}

// Schedule is a fully precomputed run: program version sources plus the
// timed op sequence. Building one is deterministic in (scenario, rate,
// duration, seed) — the determinism test replays a build and requires
// identical output.
type Schedule struct {
	Scenario Scenario
	Seed     int64
	// Rate is the target throughput in ops/sec; Duration the scheduled
	// length of the run (Ops arrivals all land inside it).
	Rate     float64
	Duration time.Duration
	// Sources holds every distinct program version the run can send;
	// ops reference them by index so a version edited ten times is stored
	// once.
	Sources []string
	Ops     []Op
}

// BuildSchedule precomputes a run: generates the corpus, walks the seeded
// edit streams, and lays out Poisson arrivals at the target rate. All
// randomness comes from seed, so equal arguments build equal schedules.
func BuildSchedule(sc Scenario, rate float64, duration time.Duration, seed int64) (*Schedule, error) {
	if rate <= 0 {
		rate = sc.DefaultRate
	}
	if rate <= 0 || duration <= 0 {
		return nil, fmt.Errorf("loadgen: need a positive rate and duration (rate %v, duration %v)", rate, duration)
	}
	if sc.Programs < 1 {
		return nil, fmt.Errorf("loadgen: scenario %q has no programs", sc.Name)
	}
	s := &Schedule{Scenario: sc, Seed: seed, Rate: rate, Duration: duration}
	rng := rand.New(rand.NewSource(seed))
	progZipf := NewZipf(sc.Programs, sc.ProgramTheta, rng.Int63())
	critSeed := rng.Int63()

	// The corpus: one generated family per popularity rank, sized in the
	// Siemens-suite range so cold builds cost single-digit milliseconds —
	// enough to matter at p99, not enough to starve the run.
	type family struct {
		editor  *workload.Editor
		version int // index into s.Sources of the current version
		pool    []server.CriterionRequest
		zipf    *Zipf
	}
	fams := make([]*family, sc.Programs)
	for i := range fams {
		cfg := workload.BenchConfig{
			Name:           fmt.Sprintf("%s-f%02d", sc.Name, i),
			Procs:          5 + i%6,
			TargetVertices: 140 + 25*(i%8),
			CallSites:      10 + 3*(i%5),
			Slices:         4,
			Recursive:      i%4 == 0,
			Seed:           seed + int64(1000*i) + 7,
		}
		prog, err := lang.Parse(workload.GenerateSource(cfg))
		if err != nil {
			return nil, fmt.Errorf("loadgen: corpus family %d does not parse: %v", i, err)
		}
		ed := workload.NewEditor(prog, seed+int64(i)*31+11)
		src := ed.Source()
		pool, err := criterionPool(src)
		if err != nil {
			return nil, fmt.Errorf("loadgen: corpus family %d: %v", i, err)
		}
		s.Sources = append(s.Sources, src)
		fams[i] = &family{
			editor:  ed,
			version: len(s.Sources) - 1,
			pool:    pool,
			zipf:    NewZipf(len(pool), sc.CriterionTheta, critSeed+int64(i)),
		}
	}

	// Poisson arrivals: exponential inter-arrival gaps with mean 1/rate,
	// truncated at duration. The op count is therefore itself seeded —
	// ~rate·duration on average.
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= duration {
			break
		}
		f := progZipf.Next()
		fam := fams[f]
		op := Op{At: at, Program: fam.version}
		if rng.Float64() >= sc.ReadFraction {
			// Edit: step the family's editor to a new version. A "noop"
			// step (degenerate program) re-sends the current version —
			// harmless, it just becomes a warm read.
			fam.editor.Step()
			src := fam.editor.Source()
			if src != s.Sources[fam.version] {
				s.Sources = append(s.Sources, src)
				fam.version = len(s.Sources) - 1
				pool, err := criterionPool(src)
				if err != nil {
					return nil, fmt.Errorf("loadgen: family %d after %q: %v", f, fam.editor.Ops[len(fam.editor.Ops)-1], err)
				}
				fam.pool = pool
				if len(pool) != fam.zipf.n {
					fam.zipf = NewZipf(len(pool), sc.CriterionTheta, critSeed+int64(f)^int64(fam.version)<<20)
				}
				op.Program = fam.version
				op.Write = true
			}
		}
		// 1–2 criteria per request, Zipf-chosen from the version's pool;
		// mode mixed by MonoFraction.
		nCrit := 1
		if rng.Float64() < 0.3 {
			nCrit = 2
		}
		for c := 0; c < nCrit; c++ {
			crit := fam.pool[fam.zipf.Next()]
			if rng.Float64() < sc.MonoFraction {
				crit.Mode = "mono"
			}
			op.Criteria = append(op.Criteria, crit)
		}
		s.Ops = append(s.Ops, op)
	}
	if len(s.Ops) == 0 {
		return nil, fmt.Errorf("loadgen: schedule is empty (rate %v over %v)", rate, duration)
	}
	return s, nil
}

// criterionPool derives the version's criterion choices from its normalized
// source: the always-resolvable printf criteria first (the Zipfian hot
// head), then up to 16 line criteria on assignment statements (the long
// tail). Only procedures reachable from main through direct calls
// contribute lines — the generator and editor both produce procedures main
// never calls, and a criterion there is an "unreachable from main" error,
// which would hollow out the CI gate on errors==0. Every entry resolves on
// this exact version.
func criterionPool(normalizedSource string) ([]server.CriterionRequest, error) {
	prog, err := lang.Parse(normalizedSource)
	if err != nil {
		return nil, fmt.Errorf("version does not parse: %v", err)
	}
	reach := reachableProcs(prog)
	var lines []int
	for _, f := range prog.Funcs {
		if !reach[f.Name] {
			continue
		}
		lang.WalkStmts(f.Body, func(s lang.Stmt) {
			if _, ok := s.(*lang.AssignStmt); ok {
				lines = append(lines, s.Base().Pos.Line)
			}
		})
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("no assignment lines reachable from main")
	}
	sort.Ints(lines)
	lines = dedupInts(lines)
	pool := []server.CriterionRequest{
		{Kind: "printf", Proc: "main"},
		{Kind: "printf"},
	}
	// Sample at most 16 lines, evenly spaced so the pool spans every
	// reachable procedure instead of clustering at the top of the file.
	const maxLines = 16
	step := 1
	if len(lines) > maxLines {
		step = len(lines) / maxLines
	}
	for i := 0; i < len(lines) && len(pool) < 2+maxLines; i += step {
		pool = append(pool, server.CriterionRequest{Kind: "line", Line: lines[i]})
	}
	return pool, nil
}

// reachableProcs returns the procedures reachable from main through direct
// call statements — a safe subset of the engine's interprocedural
// reachability (indirect fnptr calls only ever add procedures).
func reachableProcs(prog *lang.Program) map[string]bool {
	callees := map[string][]string{}
	for _, f := range prog.Funcs {
		lang.WalkStmts(f.Body, func(s lang.Stmt) {
			if cs, ok := s.(*lang.CallStmt); ok && !cs.Indirect {
				callees[f.Name] = append(callees[f.Name], cs.Callee)
			}
		})
	}
	reach := map[string]bool{"main": true}
	work := []string{"main"}
	for len(work) > 0 {
		p := work[0]
		work = work[1:]
		for _, c := range callees[p] {
			if !reach[c] {
				reach[c] = true
				work = append(work, c)
			}
		}
	}
	return reach
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
