package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"specslice/internal/core"
	"specslice/internal/engine"
	"specslice/internal/lang"
	"specslice/internal/loadgen"
	"specslice/internal/par"
	"specslice/internal/sdg"
	"specslice/internal/workload"
)

// PhaseNs is the per-request automaton-pipeline breakdown (paper Fig. 21)
// of the warm loop, in nanoseconds per op. Automaton covers the fused
// reverse/determinize/minimize/reverse chain; Determinize and Minimize are
// its sub-phases as reported by fsa.MRD.
type PhaseNs struct {
	Prestar     float64 `json:"prestar"`
	Automaton   float64 `json:"automaton"`
	Determinize float64 `json:"automaton_determinize"`
	Minimize    float64 `json:"automaton_minimize"`
	Readout     float64 `json:"readout"`
}

// EngineBench is the machine-readable engine-amortization measurement
// written by `experiments -json`: cold (one-shot, rebuild everything) vs.
// warm (engine-cached) polyvariant slices on the Fig. 14 workload, and
// sequential one-shot vs. batch SliceAll over many criteria on a Siemens
// suite. Future PRs track the perf trajectory through these numbers.
type EngineBench struct {
	GeneratedAt     string   `json:"generated_at,omitempty"`
	GoMaxProcs      int      `json:"gomaxprocs"`
	Iterations      int      `json:"iterations"`
	ColdNsPerOp     float64  `json:"cold_ns_per_op"`
	WarmNsPerOp     float64  `json:"warm_ns_per_op"`
	WarmSpeedup     float64  `json:"warm_speedup"`
	WarmAllocsPerOp float64  `json:"warm_allocs_per_op"`
	WarmBytesPerOp  float64  `json:"warm_bytes_per_op"`
	WarmPhases      *PhaseNs `json:"warm_phase_ns,omitempty"`
	BatchSuite      string   `json:"batch_suite"`
	BatchSize       int      `json:"batch_size"`
	SeqNs           int64    `json:"batch_sequential_ns"`
	BatchNs         int64    `json:"batch_parallel_ns"`
	BatchSpeedup    float64  `json:"batch_speedup"`
	// WorkersRequested is the -workers flag value with the 0-means-
	// GOMAXPROCS default already resolved (so the JSON never reports a
	// meaningless 0); Workers is the pool size SliceAll actually used.
	WorkersRequested int `json:"batch_workers_requested"`
	Workers          int `json:"batch_workers"`
	// Incremental measurements: a chain of single-procedure edits on the
	// AdvanceSuite program, each version analyzed both by Engine.Advance
	// from the previous version and by a from-scratch sequential build
	// (workers pinned to 1, so the ratio measures algorithmic
	// incrementality, not core count), warmed either way.
	// AdvanceSpeedup = advance_cold_ns_per_op / incremental_ns_per_op;
	// the PR gate requires >= 1.2x on the gzip suite. (The suite moved
	// from tcas when the dense readout work landed: on a 9-procedure
	// program the per-version fixed costs dominate both paths, and the
	// ratio stops measuring incrementality. The gate dropped from 3x
	// when the bitset mod/ref solver cut the cold build ~12x — both
	// paths are now dominated by the shared engine warm-up, so the
	// honest ratio sits around 1.4-1.5x; see README.)
	AdvanceSuite       string  `json:"advance_suite"`
	AdvanceEdits       int     `json:"advance_edits"`
	IncrementalNsPerOp float64 `json:"incremental_ns_per_op"`
	AdvanceColdNsPerOp float64 `json:"advance_cold_ns_per_op"`
	AdvanceSpeedup     float64 `json:"advance_speedup"`

	// Readout isolation: the Alg. 1 lines 9–24 phase re-run alone against
	// a warm engine's A6, the serving configuration. The readout ends at
	// the procedure variants; the alloc rate is the PR gate (<= 8/op).
	ReadoutNsPerOp     float64 `json:"readout_ns_per_op"`
	ReadoutAllocsPerOp float64 `json:"readout_allocs_per_op"`

	// Fixed-concurrency sweeps, modeled on storage-engine benchmark
	// workloads: the same batch (and the same cold gzip build) at worker
	// counts 1, 2, and 4, so the JSON carries real parallel data points
	// instead of a single GOMAXPROCS-dependent row. Each entry records
	// the effective GOMAXPROCS during its own measurement: a 4-worker
	// row timed on a 1-core runner is not a parallel data point, and the
	// reader can tell.
	BatchNsByWorkers     map[string]WorkerSweepEntry `json:"batch_ns_by_workers"`
	ColdBuildNsByWorkers map[string]WorkerSweepEntry `json:"cold_build_ns_by_workers"`
	// ColdBuildParallelSpeedup = cold build at 1 worker / at 4 workers.
	// null unless the 4-worker row really had >= 4 processors available —
	// a speedup "measured" on fewer cores is scheduler noise, not
	// parallelism, and must not satisfy (or fail) the CI gate.
	ColdBuildParallelSpeedup *float64 `json:"cold_build_parallel_speedup"`
	// ColdBuildPhases breaks the sequential (1-worker) tcas build into
	// its phases, in ns/op.
	ColdBuildPhases *BuildPhaseNs `json:"cold_build_phase_ns"`

	// Workloads holds one tail-latency report per loadgen scenario
	// (read_heavy, write_heavy, balanced): an open-loop Zipfian schedule
	// driven over the real HTTP slice path against a fresh in-process
	// server. Filled by RunWorkloads; CI gates errors == 0 on every entry
	// and a smoke-level p99 bound on read_heavy.
	Workloads []loadgen.Report `json:"workloads"`
}

// WorkerSweepEntry is one row of a fixed-concurrency sweep: the
// measured time plus the effective GOMAXPROCS while it ran.
type WorkerSweepEntry struct {
	Ns         int64 `json:"ns"`
	GoMaxProcs int   `json:"gomaxprocs"`
}

// BuildPhaseNs is the cold-build phase breakdown (sdg.BuildStats) in
// nanoseconds per build. The modref_* keys split the mod/ref phase into
// the dense solver's sub-phases: variable interning, per-procedure
// local effect extraction, and the bottom-up fixpoint over the
// call-graph condensation (their sum is below modref, which also
// covers build-signature hashing).
type BuildPhaseNs struct {
	ModRef         float64 `json:"modref"`
	ModRefIntern   float64 `json:"modref_intern"`
	ModRefLocal    float64 `json:"modref_local"`
	ModRefFixpoint float64 `json:"modref_fixpoint"`
	PDG            float64 `json:"pdg"`
	Connect        float64 `json:"connect"`
}

// benchConfig returns the named workload configuration.
func benchConfig(name string) workload.BenchConfig {
	for _, c := range workload.Benchmarks() {
		if c.Name == name {
			return c
		}
	}
	panic("experiments: unknown bench suite " + name)
}

func specOf(vs []sdg.VertexID) core.Configs {
	out := make(core.Configs, 0, len(vs))
	for _, v := range vs {
		out = append(out, core.Config{Vertex: v})
	}
	return out
}

// RunEngineBench measures cold vs. warm slicing and sequential vs. batch
// throughput, with iters iterations per timed loop and the given SliceAll
// worker-pool size (0 = GOMAXPROCS).
func RunEngineBench(iters, workers int) (*EngineBench, error) {
	if iters <= 0 {
		iters = 20
	}
	eb := &EngineBench{
		GeneratedAt:      time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		Iterations:       iters,
		WorkersRequested: par.Workers(workers),
	}

	// Cold: the one-shot pipeline rebuilds the SDG and its encoding for
	// every request (the paper's Fig. 14 running example).
	prog := workload.Fig1Program()
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		g := sdg.MustBuild(prog)
		crit := specOf(core.PrintfCriterion(g, "main"))
		if _, err := core.Specialize(g, crit); err != nil {
			return nil, err
		}
	}
	eb.ColdNsPerOp = float64(time.Since(t0).Nanoseconds()) / float64(iters)

	// Warm: one engine serves every request from its caches. The loop
	// also collects the Fig. 21 per-phase breakdown and the allocation
	// rate.
	g := sdg.MustBuild(prog)
	eng := engine.New(g)
	if err := eng.Warm(); err != nil {
		return nil, err
	}
	crit := specOf(core.PrintfCriterion(g, "main"))
	warmup, err := eng.Specialize(crit)
	if err != nil {
		return nil, err
	}
	var phases core.Timings
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		res, err := eng.Specialize(crit)
		if err != nil {
			return nil, err
		}
		phases.Add(res.Timings)
	}
	warm := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	eb.WarmNsPerOp = float64(warm.Nanoseconds()) / float64(iters)
	eb.WarmAllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)
	eb.WarmBytesPerOp = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(iters)
	if eb.WarmNsPerOp > 0 {
		eb.WarmSpeedup = eb.ColdNsPerOp / eb.WarmNsPerOp
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(iters) }
	eb.WarmPhases = &PhaseNs{
		Prestar:     per(phases.Prestar),
		Automaton:   per(phases.AutomatonOps),
		Determinize: per(phases.AutomatonDeterminize),
		Minimize:    per(phases.AutomatonMinimize),
		Readout:     per(phases.Readout),
	}

	// Readout isolation: re-run only Alg. 1 lines 9–24 against the warm
	// result's A6 — the steady state of a slicing service, once the
	// readout's pooled scratch has grown to the program.
	roIters := 4 * iters
	for i := 0; i < 8; i++ { // scratch pool warm-up
		if _, err := core.ReadoutOnly(warmup); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	for i := 0; i < roIters; i++ {
		if _, err := core.ReadoutOnly(warmup); err != nil {
			return nil, err
		}
	}
	eb.ReadoutNsPerOp = float64(time.Since(t0).Nanoseconds()) / float64(roIters)
	runtime.ReadMemStats(&ms1)
	eb.ReadoutAllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(roIters)

	// Batch: ≥16 criteria over one Siemens-sized suite, sequential one-shot
	// vs. SliceAll through the shared engine.
	cfg := workload.SmallBenchmarks()[0]
	eb.BatchSuite = cfg.Name
	bprog := workload.Generate(cfg)
	bg := sdg.MustBuild(bprog)
	var seeds [][]sdg.VertexID
	for _, s := range bg.Sites {
		if s.Lib && s.Callee == "printf" && len(s.ActualIns) > 0 &&
			bg.Procs[s.CallerProc].Name == "main" {
			seeds = append(seeds, s.ActualIns)
		}
	}
	const batchSize = 16
	var crits [][]sdg.VertexID
	for i := 0; len(crits) < batchSize; i++ {
		crits = append(crits, seeds[i%len(seeds)])
	}
	eb.BatchSize = len(crits)

	t0 = time.Now()
	for _, c := range crits {
		gg := sdg.MustBuild(bprog)
		if _, err := core.Specialize(gg, specOf(c)); err != nil {
			return nil, err
		}
	}
	eb.SeqNs = time.Since(t0).Nanoseconds()

	beng := engine.New(bg)
	reqs := make([]engine.Request, len(crits))
	for i, c := range crits {
		reqs[i] = engine.Request{Mode: engine.ModePoly, Spec: specOf(c)}
	}
	t0 = time.Now()
	resps, stats := beng.SliceAll(reqs, engine.BatchOptions{Workers: workers})
	eb.BatchNs = time.Since(t0).Nanoseconds()
	eb.Workers = stats.Workers
	for _, r := range resps {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	if eb.BatchNs > 0 {
		eb.BatchSpeedup = float64(eb.SeqNs) / float64(eb.BatchNs)
	}

	// Fixed-concurrency sweep of the warm batch through SliceAll at 1, 2,
	// and 4 workers. Worker counts are explicit, not GOMAXPROCS, so the
	// rows stay comparable across machines; whether they *speed anything
	// up* still depends on available cores (gomaxprocs records that).
	sweep := []int{1, 2, 4}
	eb.BatchNsByWorkers = map[string]WorkerSweepEntry{}
	for _, w := range sweep {
		t0 = time.Now()
		resps, _ := beng.SliceAll(reqs, engine.BatchOptions{Workers: w})
		eb.BatchNsByWorkers[fmt.Sprint(w)] = WorkerSweepEntry{
			Ns:         time.Since(t0).Nanoseconds(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
		}
		for _, r := range resps {
			if r.Err != nil {
				return nil, r.Err
			}
		}
	}

	// Cold-build sweep on the gzip suite (97 procedures — wide enough
	// call-graph levels that the procedure-parallel phases have real work
	// to spread): mod/ref + interface hashes + PDG bodies + wiring at
	// fixed worker counts.
	gzProg := lang.MustParse(workload.GenerateSource(benchConfig("gzip")))
	const coldIters = 3
	eb.ColdBuildNsByWorkers = map[string]WorkerSweepEntry{}
	for _, w := range sweep {
		t0 = time.Now()
		for i := 0; i < coldIters; i++ {
			sdg.MustBuildWorkers(gzProg, w)
		}
		eb.ColdBuildNsByWorkers[fmt.Sprint(w)] = WorkerSweepEntry{
			Ns:         time.Since(t0).Nanoseconds() / int64(coldIters),
			GoMaxProcs: runtime.GOMAXPROCS(0),
		}
	}
	// The speedup is only a measurement when the 4-worker row really had
	// 4 processors; on narrower machines it stays null rather than
	// reporting scheduler noise as (anti-)scaling.
	if e4 := eb.ColdBuildNsByWorkers["4"]; e4.Ns > 0 && e4.GoMaxProcs >= 4 {
		sp := float64(eb.ColdBuildNsByWorkers["1"].Ns) / float64(e4.Ns)
		eb.ColdBuildParallelSpeedup = &sp
	}
	bs := sdg.MustBuildWorkers(gzProg, 1).BuildStats()
	eb.ColdBuildPhases = &BuildPhaseNs{
		ModRef:         float64(bs.ModRef.Nanoseconds()),
		ModRefIntern:   float64(bs.ModRefIntern.Nanoseconds()),
		ModRefLocal:    float64(bs.ModRefLocal.Nanoseconds()),
		ModRefFixpoint: float64(bs.ModRefFixpoint.Nanoseconds()),
		PDG:            float64(bs.PDG.Nanoseconds()),
		Connect:        float64(bs.Connect.Nanoseconds()),
	}

	// Incremental: a chain of single-procedure edits on the gzip suite
	// (97 procedures — the scale where incrementality matters; on the
	// 9-procedure tcas the per-version fixed costs dominate both paths
	// and the ratio mostly measures noise). Each version is analyzed
	// twice — advanced from the previous version's warmed engine, and
	// cold-built from scratch — and both paths are warmed (encoding,
	// reachable automaton), so the ratio is end-to-end time to the first
	// polyvariant slice.
	tc := benchConfig("gzip")
	eb.AdvanceSuite = tc.Name
	baseSrc := workload.GenerateSource(tc)
	const anchor = "int acc = a0 + a1 + a2;"
	if !strings.Contains(baseSrc, anchor) {
		return nil, fmt.Errorf("experiments: advance anchor %q not in %s suite", anchor, tc.Name)
	}
	edits := iters
	if edits > 12 {
		edits = 12
	}
	eb.AdvanceEdits = edits
	cur := engine.New(sdg.MustBuild(lang.MustParse(baseSrc)))
	if err := cur.Warm(); err != nil {
		return nil, err
	}
	var incrNs, coldNs int64
	for k := 1; k <= edits; k++ {
		editedSrc := strings.Replace(baseSrc, anchor, fmt.Sprintf("int acc = a0 + a1 + a2 + %d;", k), 1)
		advProg := lang.MustParse(editedSrc)
		coldProg := lang.MustParse(editedSrc)

		t0 = time.Now()
		adv, _, err := cur.Advance(advProg)
		if err != nil {
			return nil, err
		}
		if err := adv.Warm(); err != nil {
			return nil, err
		}
		incrNs += time.Since(t0).Nanoseconds()

		// The cold baseline is pinned to one worker: the ratio measures
		// what Advance avoids recomputing, not how many cores the machine
		// happens to have (the parallel story is cold_build_ns_by_workers).
		t0 = time.Now()
		cold := engine.New(sdg.MustBuildWorkers(coldProg, 1))
		if err := cold.Warm(); err != nil {
			return nil, err
		}
		coldNs += time.Since(t0).Nanoseconds()

		cur = adv
	}
	eb.IncrementalNsPerOp = float64(incrNs) / float64(edits)
	eb.AdvanceColdNsPerOp = float64(coldNs) / float64(edits)
	if eb.IncrementalNsPerOp > 0 {
		eb.AdvanceSpeedup = eb.AdvanceColdNsPerOp / eb.IncrementalNsPerOp
	}
	return eb, nil
}

// WriteJSON writes the measurement to path (e.g. BENCH_engine.json).
func (eb *EngineBench) WriteJSON(path string) error {
	data, err := json.MarshalIndent(eb, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
