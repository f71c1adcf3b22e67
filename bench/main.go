// Command bench is the serving benchmark of specslice: four closed-loop
// workloads over the paper's Fig. 17 Siemens suites, driven against a
// spawned `specslice serve` (or `specslice route -workers 2`) process, with
// a correctness gate on the responses and an in-process traced replay that
// splits each op's time by layer. See README.md.
//
//	bench --workload warm_read --seed 1 --seconds 20 --trace 0
//	bench compare A/*.json -- B/*.json
//
// Run from the repository root; bench/run.sh builds and runs it.
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"specslice/internal/cluster"
	"specslice/internal/lang"
	"specslice/internal/server"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root declares the same names, units and directions, with the bounds.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"rss_mb", "MiB", "lower"},
}

var perLayer = []metricDef{
	{"server.decode_ms", "ms", "lower"},
	{"server.key_ms", "ms", "lower"},
	{"server.cache_ms", "ms", "lower"},
	{"server.encode_ms", "ms", "lower"},
	{"server.response_kb", "KiB", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.evictions_per_op", "1/op", "lower"},
	{"server.deduped_per_op", "1/op", "lower"},
	{"server.advance_share", "ratio", "higher"},
	{"server.cache_mb", "MiB", "lower"},
	{"lang.parse_ms", "ms", "lower"},
	{"lang.normalize_ms", "ms", "lower"},
	{"funcptr.eliminate_ms", "ms", "lower"},
	{"sdg.build_ms", "ms", "lower"},
	{"dataflow.modref_ms", "ms", "lower"},
	{"sdg.pdg_ms", "ms", "lower"},
	{"sdg.connect_ms", "ms", "lower"},
	{"sdg.advance_ms", "ms", "lower"},
	{"sdg.procs_rebuilt_share", "ratio", "lower"},
	{"slice.summary_ms", "ms", "lower"},
	{"core.encode_ms", "ms", "lower"},
	{"core.reachable_ms", "ms", "lower"},
	{"engine.footprint_ms", "ms", "lower"},
	{"engine.slice_ms", "ms", "lower"},
	{"engine.alloc_kb_per_op", "KiB", "lower"},
	{"pds.prestar_ms", "ms", "lower"},
	{"fsa.determinize_ms", "ms", "lower"},
	{"fsa.minimize_ms", "ms", "lower"},
	{"fsa.det_states", "count", "lower"},
	{"core.readout_ms", "ms", "lower"},
	{"mono.slice_ms", "ms", "lower"},
	{"emit.source_ms", "ms", "lower"},
	{"cluster.hop_ms", "ms", "lower"},
	{"cluster.dedup_waits_per_op", "1/op", "lower"},
	{"cluster.retries_per_op", "1/op", "lower"},
	{"cluster.shard_imbalance", "ratio", "lower"},
	{"bench.client_cpu_share", "ratio", "lower"},
	{"bench.tracing_overhead_share", "ratio", "lower"},
	{"bench.unattributed_share", "ratio", "lower"},
}

// The run's shape: set-up repeats (setup_s is their median), the body
// sampling stride of the correctness gate, and the closed-loop clients.
const (
	setupRuns  = 5
	keepEvery  = 50
	maxClients = 2
)

//go:embed pins.json
var pinsJSON []byte

// pins fixes, per workload, a seed and the SHA-256 of the first PinOps ops
// generated from it. Every run regenerates them first, so a change to the
// corpus generator, the editor or the Zipf sampler cannot silently change
// the benchmark's inputs.
type pins struct {
	PinOps    int                  `json:"pin_ops"`
	Workloads map[string]inputsPin `json:"workloads"`
}

type inputsPin struct {
	Seed   int64  `json:"seed"`
	SHA256 string `json:"sha256"`
}

func checkPins(w *workloadSpec) error {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return fmt.Errorf("pins.json: %w", err)
	}
	pin, ok := p.Workloads[w.name]
	if !ok {
		return fmt.Errorf("pins.json has no entry for %s", w.name)
	}
	in, err := generate(w, pin.Seed, p.PinOps)
	if err != nil {
		return err
	}
	if got := in.hash(); got != pin.SHA256 {
		return fmt.Errorf("%s inputs for pinned seed %d hash to %s, pins.json says %s: the input generators changed", w.name, pin.Seed, got, pin.SHA256)
	}
	return nil
}

// printPins writes a pins.json for the current generators: `bench pin`
// regenerates it when a change to the inputs is intended.
func printPins(out io.Writer) error {
	p := pins{PinOps: 200, Workloads: map[string]inputsPin{}}
	for i := range workloads {
		w := &workloads[i]
		in, err := generate(w, 1, p.PinOps)
		if err != nil {
			return err
		}
		p.Workloads[w.name] = inputsPin{Seed: 1, SHA256: in.hash()}
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// fingerprint describes the machine and code a result was measured on.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func machineFingerprint(root string) fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		Go:         runtime.Version(),
		Commit:     commitOf(root),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// commitOf is the git commit of root, or, outside a git checkout, "src:"
// and a digest of the Go sources.
func commitOf(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	var all bytes.Buffer
	for _, f := range files {
		b, _ := os.ReadFile(f)
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(&all, "%s %d\n", rel, len(b))
		all.Write(b)
	}
	sum := sha256.Sum256(all.Bytes())
	return "src:" + hex.EncodeToString(sum[:8])
}

// record is everything one run measured. It is printed before the result
// line, and compare reads it back.
type record struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Trace        bool               `json:"trace"`
	InputsSHA256 string             `json:"inputs_sha256"`
	Fingerprint  fingerprint        `json:"fingerprint"`
	Ops          int                `json:"ops"`
	TimedOps     int                `json:"timed_ops"` // the ops the end-to-end times are taken over
	Failed       int                `json:"failed"`
	Correct      bool               `json:"correct"`
	Metrics      map[string]float64 `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type runConfig struct {
	spec    *workloadSpec
	seed    int64
	seconds float64
	trace   bool
	root    string // repository root: holds cmd/specslice
	bin     string // the built specslice binary
	setups  int
	// tracePath receives the traced replay's spans.
	tracePath string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if len(os.Args) > 1 && os.Args[1] == "pin" {
		if err := printPins(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: warm_read, edit_stream, cold_miss or routed_read")
	seed := fs.Int64("seed", 1, "input seed; equal seeds give equal inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1 adds the traced replay and prints the per-layer metrics")
	_ = fs.Parse(os.Args[1:])
	if err := mainRun(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// mainRun runs one workload from the repository root and prints the run
// record and the result line.
func mainRun(name string, seed int64, seconds float64, trace bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	bin, err := buildServer(".", ".bench_build")
	if err != nil {
		return err
	}
	rec, err := run(runConfig{
		spec: w, seed: seed, seconds: seconds, trace: trace, root: ".", bin: bin,
		setups: setupRuns, tracePath: "bench-trace.json",
	})
	if err != nil {
		return err
	}
	line, err := json.Marshal(map[string]*record{"bench": rec})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	res := result{Correct: rec.Correct, Attempted: rec.Ops, Failed: rec.Failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: rec.Metrics[d.name], Unit: d.unit}
	}
	if line, err = json.Marshal(res); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// buildServer builds ./cmd/specslice into dir and returns the binary.
func buildServer(root, dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	bin := filepath.Join(abs, "specslice")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/specslice")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build ./cmd/specslice: %w", err)
	}
	return bin, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// run measures one workload: set-up, warm-up, the closed-loop window, the
// correctness gate and, when tracing, the replay.
func run(cfg runConfig) (*record, error) {
	w := cfg.spec
	if err := checkPins(w); err != nil {
		return nil, err
	}
	in, err := generate(w, cfg.seed, w.warmup+w.ops)
	if err != nil {
		return nil, err
	}
	rec := &record{
		Workload:     w.name,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Trace:        cfg.trace,
		InputsSHA256: in.hash(),
		Fingerprint:  machineFingerprint(cfg.root),
		Metrics:      map[string]float64{},
	}
	m := rec.Metrics
	if cfg.trace {
		// A layer the workload bypasses reports 0.
		for _, d := range perLayer {
			m[d.name] = 0
		}
	}
	ctl := newClient()

	var srv *serverProc
	defer func() { srv.stop() }()
	var setups []float64
	for i := 0; i < max(cfg.setups, 1); i++ {
		srv.stop()
		t0 := time.Now()
		if srv, err = startServer(cfg.bin, w); err != nil {
			return nil, err
		}
		if err := waitHealthy(ctl, srv.url); err != nil {
			return nil, err
		}
		if err := preload(ctl, srv.url, in); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m["setup_s"] = median(setups)

	clients := make([]*http.Client, min(maxClients, runtime.NumCPU()))
	for i := range clients {
		clients[i] = newClient()
	}
	warmFailed := 0
	for _, r := range closedLoop(srv.url, in, 0, in.warmup, time.Time{}, clients, 0).results {
		if r.failed {
			warmFailed++
		}
	}

	pids := processTree(srv.cmd.Process.Pid)
	before, err := fetchStats(ctl, srv.url)
	if err != nil {
		return nil, err
	}
	cpu0, self0 := cpuSeconds(pids), selfCPUSeconds()
	stopRSS, rssCh := make(chan struct{}), make(chan []float64, 1)
	go sampleRSS(pids, stopRSS, rssCh)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	loop := closedLoop(srv.url, in, in.warmup, len(in.ops), deadline, clients, keepEvery)
	close(stopRSS)
	rss := <-rssCh
	serverCPU, clientCPU := cpuSeconds(pids)-cpu0, selfCPUSeconds()-self0
	after, err := fetchStats(ctl, srv.url)
	if err != nil {
		return nil, err
	}
	if in.warmup+len(loop.results) == len(in.ops) {
		logf("%s: all %d generated ops ran before the deadline; the window was %v", w.name, len(loop.results), loop.elapsed)
	}
	if cfg.trace && w.routed {
		if m["cluster.hop_ms"], err = hopProbe(ctl, srv.url, in, after); err != nil {
			return nil, err
		}
	}
	srv.stop()

	n := len(loop.results)
	if n == 0 {
		return nil, fmt.Errorf("no op completed in the measured window")
	}
	var bytesTotal float64
	for _, r := range loop.results {
		bytesTotal += float64(r.bytes)
		if r.failed {
			rec.Failed++
		}
	}
	rec.Ops = n
	lat, secs := fasterHalf(loop.results, loop.elapsed)
	rec.TimedOps = len(lat)
	m["throughput_ops_s"] = float64(len(lat)) / secs
	m["p50_ms"] = quantile(lat, 0.50)
	m["p99_ms"] = quantile(lat, 0.99)
	m["rss_mb"] = median(rss)
	e2eLayerMetrics(m, before, after, n, bytesTotal, clientCPU, serverCPU)

	mismatches := gate(in, loop.kept)
	for _, msg := range mismatches {
		logf("correctness: workload %s seed %d %s", w.name, cfg.seed, msg)
	}
	rec.Correct = rec.Failed == 0 && warmFailed == 0 && len(mismatches) == 0
	logf("%s seed %d: %d ops in %.2fs, %d in the faster half: %.1f ops/s, p50 %.2fms p99 %.2fms; %d failed (%d in warm-up), %d bodies checked, %d mismatches",
		w.name, cfg.seed, n, loop.elapsed.Seconds(), rec.TimedOps, m["throughput_ops_s"], m["p50_ms"], m["p99_ms"], rec.Failed, warmFailed, len(loop.kept), len(mismatches))

	if cfg.trace {
		ok, err := tracedReplay(cfg, in, loop.kept, m)
		if err != nil {
			return nil, err
		}
		rec.Correct = rec.Correct && ok
	}
	return rec, nil
}

// e2eLayerMetrics derives the per-layer counts and ratios of the
// closed-loop window from /v1/stats deltas.
func e2eLayerMetrics(m map[string]float64, before, after *cluster.StatsResponse, ops int, bytesTotal, clientCPU, serverCPU float64) {
	per := func(d int64) float64 { return float64(d) / float64(ops) }
	b, a := before.Cache, after.Cache
	if lookups := (a.Hits - b.Hits) + (a.Misses - b.Misses); lookups > 0 {
		m["server.cache_hit_ratio"] = float64(a.Hits-b.Hits) / float64(lookups)
	}
	m["server.evictions_per_op"] = per(a.Evictions - b.Evictions)
	m["server.deduped_per_op"] = per(a.Deduped - b.Deduped)
	if builds := a.Builds - b.Builds; builds > 0 {
		m["server.advance_share"] = float64(a.Advances-b.Advances) / float64(builds)
	}
	m["server.cache_mb"] = float64(a.Bytes) / (1 << 20)
	m["server.response_kb"] = bytesTotal / float64(ops) / 1024
	m["cluster.dedup_waits_per_op"] = per(after.Router.DedupWaits - before.Router.DedupWaits)
	m["cluster.retries_per_op"] = per(after.Router.Retries - before.Router.Retries)
	if len(after.Shards) > 0 && len(after.Shards) == len(before.Shards) {
		var total, most float64
		for i, s := range after.Shards {
			d := float64(s.Routed - before.Shards[i].Routed)
			total += d
			most = math.Max(most, d)
		}
		if total > 0 {
			m["cluster.shard_imbalance"] = most / (total / float64(len(after.Shards)))
		}
	}
	if clientCPU+serverCPU > 0 {
		m["bench.client_cpu_share"] = clientCPU / (clientCPU + serverCPU)
	}
}

// tracedReplay runs the replay untraced for a quarter of the measured
// window, then traced over the same ops, derives the per-layer times and
// writes the spans to cfg.tracePath. It reports whether the replay's
// results matched the server's.
func tracedReplay(cfg runConfig, in *inputs, kept map[int][]byte, m map[string]float64) (bool, error) {
	budget := time.Duration(cfg.seconds / 4 * float64(time.Second))
	plain, err := replay(in, cfg.spec, false, 0, budget, kept)
	if err != nil {
		return false, err
	}
	if plain.ops == 0 {
		return false, fmt.Errorf("the replay served no measured op")
	}
	traced, err := replay(in, cfg.spec, true, plain.ops, 0, kept)
	if err != nil {
		return false, err
	}
	ops := float64(traced.ops)
	self := selfTimes(traced.r.tr.spans)
	for _, d := range perLayer {
		if base, ok := strings.CutSuffix(d.name, "_ms"); ok && d.name != "cluster.hop_ms" {
			m[d.name] = float64(self[base]) / 1e6 / ops
		}
	}
	var total time.Duration
	for _, s := range traced.r.tr.spans {
		if s.Parent < 0 {
			total += time.Duration(s.End - s.Start)
		}
	}
	if total > 0 {
		m["bench.unattributed_share"] = float64(self[rootSpan]) / float64(total)
	}
	m["bench.tracing_overhead_share"] = (traced.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds()
	m["engine.alloc_kb_per_op"] = float64(plain.allocBytes) / 1024 / float64(plain.ops)
	r := traced.r
	if r.procsReused+r.procsRebuilt > 0 {
		m["sdg.procs_rebuilt_share"] = float64(r.procsRebuilt) / float64(r.procsReused+r.procsRebuilt)
	}
	if r.polyResults > 0 {
		m["fsa.det_states"] = float64(r.detStates) / float64(r.polyResults)
	}
	logf("%s replay: %d ops, %.2fs untraced, %.2fs traced, %.1f%% unattributed",
		cfg.spec.name, traced.ops, plain.wall.Seconds(), traced.wall.Seconds(), 100*m["bench.unattributed_share"])

	f, err := os.Create(cfg.tracePath)
	if err != nil {
		return false, err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload": cfg.spec.name, "seed": cfg.seed, "ops": traced.ops, "spans": traced.r.tr.spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return false, fmt.Errorf("write %s: %w", cfg.tracePath, err)
	}

	bad := append(plain.mismatches, traced.mismatches...)
	for _, msg := range bad {
		logf("correctness: workload %s seed %d %s", cfg.spec.name, cfg.seed, msg)
	}
	return len(bad) == 0 && plain.failed == 0 && traced.failed == 0, nil
}

// hopProbe measures what the router adds to a warm op: one client sends
// sampled measured ops alternately through the router and straight to the
// worker owning the op's family, and takes the difference of the medians.
func hopProbe(c *http.Client, routerURL string, in *inputs, st *cluster.StatsResponse) (float64, error) {
	var ids []string
	urls := map[string]string{}
	for _, s := range st.Shards {
		if s.Healthy && !s.Draining {
			ids = append(ids, s.ID)
			urls[s.ID] = s.URL
		}
	}
	ring := cluster.NewRing(ids)
	const samples = 200
	step := max(1, (len(in.ops)-in.warmup)/samples)
	var viaRouter, direct []float64
	var buf bytes.Buffer
	for j, i := 0, in.warmup; j < samples && i < len(in.ops); j, i = j+1, i+step {
		prog, err := lang.Parse(in.sources[in.ops[i].program])
		if err != nil {
			return 0, err
		}
		id, ok := ring.Lookup(server.FamilyKey(procNames(prog)))
		if !ok {
			return 0, fmt.Errorf("hop probe: no healthy worker")
		}
		body := requestBody(in, i)
		targets := []string{routerURL, urls[id]}
		if j%2 == 1 {
			targets[0], targets[1] = targets[1], targets[0]
		}
		for _, t := range targets {
			t0 := time.Now()
			status, err := post(c, t+"/v1/slice", body, &buf)
			d := float64(time.Since(t0)) / 1e6
			if err != nil || status != http.StatusOK {
				return 0, fmt.Errorf("hop probe op %d via %s: status %d, %v", i, t, status, err)
			}
			if t == routerURL {
				viaRouter = append(viaRouter, d)
			} else {
				direct = append(direct, d)
			}
		}
	}
	return median(viaRouter) - median(direct), nil
}
