// Command specslice slices a MicroC program.
//
// Usage:
//
//	specslice -mode poly  -criterion printf[:proc] file.mc
//	specslice -mode mono  -criterion line:17 file.mc
//	specslice -mode weiser -criterion printf file.mc
//	specslice -mode feature -criterion stmt:main:"prod = 1" file.mc
//	specslice -criteria "printf:main;line:17;line:23" -workers 4 file.mc
//	specslice serve -addr :8080
//
// Modes: poly (specialization slicing, the paper's Alg. 1), mono (Binkley's
// monovariant executable slicing), weiser (Weiser-style baseline), feature
// (paper §7 feature removal; the criterion seeds a *forward* slice that is
// removed). The sliced program is printed to stdout.
//
// With -criteria, a semicolon-separated list of criteria is served as one
// batch through the shared slicing engine (SDG, PDS encoding, and summary
// edges built once) across -workers parallel workers; each slice is printed
// with a "// === slice" header, and per-request failures are reported to
// stderr without aborting the batch.
//
// The serve subcommand runs the HTTP/JSON slicing service (POST /v1/slice,
// GET /v1/stats, GET /healthz) backed by a content-addressed engine cache;
// see internal/server and the README's Serving section.
//
// The route subcommand runs the sharded topology on one machine: it
// spawns N `specslice serve` workers as subprocesses on ephemeral
// loopback ports and fronts them with the coordinator/router, which
// consistent-hashes program families across the workers, deduplicates
// in-flight builds cluster-wide, health-checks membership (rebalancing
// deterministically when a worker dies or recovers), and applies
// per-tenant token-bucket admission plus hot-shard load-shedding (429 +
// Retry-After):
//
//	specslice route -workers 4 -addr :8080
//	specslice route -workers 4 -tenant-rate 200 -shard-inflight 64
//
// On SIGINT/SIGTERM the router drains in-flight requests, then each
// worker is terminated gracefully (workers drain their own in-flight
// requests and exit). See internal/cluster and the README's Sharded
// serving section.
//
// The bench subcommand drives a named workload scenario (read_heavy,
// write_heavy, balanced) against the real HTTP slice path with an
// open-loop Zipfian schedule and prints the tail-latency report:
//
//	specslice bench -scenario read_heavy -rate 400 -duration 10s
//	specslice bench -scenario write_heavy -url http://host:8080
//
// Without -url it boots its own in-process server on a loopback listener;
// see internal/loadgen and the README's Load testing section.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"encoding/json"
	"net/http"

	"specslice"
	"specslice/internal/cluster"
	"specslice/internal/loadgen"
	"specslice/internal/server"
)

// serve runs the HTTP slicing service until SIGINT/SIGTERM, then drains
// in-flight requests.
func serve(args []string) {
	fs := flag.NewFlagSet("specslice serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cacheEntries := fs.Int("cache-entries", 64, "engine cache entry budget (<0 = unbounded)")
	cacheMB := fs.Int64("cache-mb", 512, "engine cache byte budget in MiB (<0 = unbounded)")
	maxProgramKB := fs.Int64("max-program-kb", 1024, "largest accepted program source in KiB")
	maxCriteria := fs.Int("max-criteria", 256, "largest accepted criterion batch")
	workers := fs.Int("workers", 0, "per-batch worker-pool size (0 = GOMAXPROCS)")
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: specslice serve [flags]")
		fs.Usage()
		os.Exit(2)
	}

	srv, err := server.New(server.Config{
		CacheMaxEntries: *cacheEntries,
		CacheMaxBytes:   *cacheMB << 20,
		MaxProgramBytes: *maxProgramKB << 10,
		MaxCriteria:     *maxCriteria,
		Workers:         *workers,
	})
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Log the resolved address (not the flag) so :0 reports its bound port:
	// the benchmark, the router and TestServeBinary read the port from this
	// line.
	log.Printf("specslice: listening on %s (cache: %d entries, %d MiB)", ln.Addr(), *cacheEntries, *cacheMB)
	if err := srv.Serve(ctx, ln); err != nil {
		fatal(err)
	}
	log.Printf("specslice: drained, bye")
}

// route runs the sharded serving topology: N spawned worker subprocesses
// behind the consistent-hash router, until SIGINT/SIGTERM.
func route(args []string) {
	fs := flag.NewFlagSet("specslice route", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "router listen address")
	workers := fs.Int("workers", 4, "worker subprocesses to spawn")
	cacheEntries := fs.Int("cache-entries", 64, "per-worker engine cache entry budget (<0 = unbounded)")
	cacheMB := fs.Int64("cache-mb", 512, "per-worker engine cache byte budget in MiB (<0 = unbounded)")
	maxProgramKB := fs.Int64("max-program-kb", 1024, "largest accepted program source in KiB")
	maxCriteria := fs.Int("max-criteria", 256, "largest accepted criterion batch")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant admitted requests/sec (0 = unlimited)")
	tenantBurst := fs.Int("tenant-burst", 0, "per-tenant token-bucket burst (0 = ceil(rate))")
	shardInFlight := fs.Int64("shard-inflight", 128, "per-shard in-flight depth before shedding (<0 = unlimited)")
	shardHotMB := fs.Int64("shard-hot-mb", 0, "per-shard cache byte budget before shedding, in MiB (0 = disabled)")
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: specslice route [flags]")
		fs.Usage()
		os.Exit(2)
	}
	if *workers < 1 {
		fatal(fmt.Errorf("route needs at least 1 worker"))
	}

	bin, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	procs, err := cluster.SpawnWorkers(bin, *workers, func(int) []string {
		return []string{
			"-cache-entries", strconv.Itoa(*cacheEntries),
			"-cache-mb", strconv.FormatInt(*cacheMB, 10),
			"-max-program-kb", strconv.FormatInt(*maxProgramKB, 10),
			"-max-criteria", strconv.Itoa(*maxCriteria),
		}
	})
	if err != nil {
		fatal(err)
	}
	stopWorkers := func() {
		for _, p := range procs {
			if err := p.Stop(15 * time.Second); err != nil {
				log.Printf("specslice route: %v", err)
			}
		}
	}

	rt := cluster.NewRouter(cluster.Config{
		MaxProgramBytes:  *maxProgramKB << 10,
		MaxCriteria:      *maxCriteria,
		TenantRatePerSec: *tenantRate,
		TenantBurst:      *tenantBurst,
		ShardMaxInFlight: *shardInFlight,
		ShardHotBytes:    *shardHotMB << 20,
	})
	for _, p := range procs {
		rt.AddWorker(p.ID, p.URL())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt.Start(ctx)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		stopWorkers()
		fatal(err)
	}
	log.Printf("specslice route: listening on %s (%d workers)", ln.Addr(), len(procs))
	hs := &http.Server{Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		stopWorkers()
		fatal(err)
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		log.Printf("specslice route: shutdown: %v", err)
	}
	stopWorkers()
	log.Printf("specslice route: drained, bye")
}

// bench runs one workload scenario and prints its report as JSON.
func bench(args []string) {
	fs := flag.NewFlagSet("specslice bench", flag.ExitOnError)
	scenario := fs.String("scenario", "read_heavy", "workload scenario: read_heavy | write_heavy | balanced")
	rate := fs.Float64("rate", 0, "target throughput in ops/sec (0 = the scenario default)")
	duration := fs.Duration("duration", 10*time.Second, "scheduled run length")
	seed := fs.Int64("seed", 1, "schedule seed; equal seeds replay identical runs")
	url := fs.String("url", "", "slicing service base URL (empty = boot an in-process server)")
	maxInFlight := fs.Int("max-inflight", 0, "in-flight request cap (0 = default 256)")
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: specslice bench [flags]")
		fs.Usage()
		os.Exit(2)
	}

	sc, err := loadgen.ScenarioByName(*scenario)
	if err != nil {
		fatal(err)
	}
	sched, err := loadgen.BuildSchedule(sc, *rate, *duration, *seed)
	if err != nil {
		fatal(err)
	}
	log.Printf("specslice bench: %s, %d ops over %v (%d program versions, seed %d)",
		sc.Name, len(sched.Ops), *duration, len(sched.Sources), *seed)
	opts := loadgen.Options{MaxInFlight: *maxInFlight}
	var rep *loadgen.Report
	if *url != "" {
		rep, err = loadgen.Run(*url, sched, opts)
	} else {
		rep, err = loadgen.RunInProcess(sched, opts)
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	log.Printf("specslice bench: %.0f/%.0f ops/sec achieved, p50 %v p99 %v p99.9 %v, %d errors, %d shed",
		rep.AchievedOpsPerSec, rep.TargetOpsPerSec,
		time.Duration(rep.P50NS), time.Duration(rep.P99NS), time.Duration(rep.P999NS),
		rep.Errors, rep.Shed)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serve(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "route" {
		route(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		bench(os.Args[2:])
		return
	}
	mode := flag.String("mode", "poly", "poly | mono | weiser | feature")
	criterion := flag.String("criterion", "printf", `criterion: "printf[:proc]", "line:N", or "stmt:proc:label"`)
	criteria := flag.String("criteria", "", `batch mode: semicolon-separated criteria served through one engine`)
	workers := flag.Int("workers", 0, "batch worker-pool size (0 = GOMAXPROCS)")
	check := flag.Bool("check", false, "run the reslicing self-check (poly only)")
	stats := flag.Bool("stats", false, "print SDG and slice statistics to stderr")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: specslice [flags] file.mc")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := specslice.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	prog, err = prog.EliminateIndirectCalls()
	if err != nil {
		fatal(err)
	}
	g, err := prog.SDG()
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "SDG: %+v\n", g.Stats())
	}

	if *criteria != "" {
		batch(g, *mode, *criteria, *workers, *stats, *check)
		return
	}

	crit, err := parseCriterion(g, *criterion)
	if err != nil {
		fatal(err)
	}

	var sl *specslice.Slice
	switch *mode {
	case "poly":
		sl, err = g.SpecializationSlice(crit)
	case "mono":
		sl, err = g.MonovariantSlice(crit)
	case "weiser":
		sl, err = g.WeiserSlice(crit)
	case "feature":
		sl, err = g.RemoveFeature(crit)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "specialized versions: %v\n", sl.VariantCounts())
	}
	if *check {
		if err := sl.SelfCheck(); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "reslicing self-check passed")
	}
	out, err := sl.Program()
	if err != nil {
		fatal(err)
	}
	fmt.Print(out.Source())
}

// batch serves every semicolon-separated criterion through the shared
// engine and prints each slice under a header comment.
func batch(g *specslice.SDG, mode, criteria string, workers int, stats, check bool) {
	var bm specslice.BatchMode
	switch mode {
	case "poly":
		bm = specslice.BatchPoly
	case "mono":
		bm = specslice.BatchMono
	case "weiser":
		bm = specslice.BatchWeiser
	case "feature":
		bm = specslice.BatchFeature
	default:
		fatal(fmt.Errorf("unknown mode %q", mode))
	}
	if check && bm != specslice.BatchPoly {
		fatal(fmt.Errorf("-check applies to poly mode only"))
	}

	var reqs []specslice.BatchRequest
	for _, spec := range strings.Split(criteria, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		crit, err := parseCriterion(g, spec)
		if err != nil {
			fatal(err)
		}
		reqs = append(reqs, specslice.BatchRequest{Criterion: crit, Mode: bm, Label: spec})
	}
	if len(reqs) == 0 {
		fatal(fmt.Errorf("no criteria in %q", criteria))
	}

	results, bstats := g.Engine().SliceAll(reqs, specslice.BatchOptions{Workers: workers})
	if stats {
		fmt.Fprintf(os.Stderr, "batch: %d requests, %d failed, %d workers, wall %v, work %v\n",
			bstats.Requests, bstats.Failed, bstats.Workers, bstats.Wall, bstats.Work)
	}
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "specslice: %s: %v\n", r.Label, r.Err)
			continue
		}
		if check {
			if err := r.Slice.SelfCheck(); err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "specslice: %s: %v\n", r.Label, err)
				continue
			}
		}
		out, err := r.Slice.Program()
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "specslice: %s: %v\n", r.Label, err)
			continue
		}
		fmt.Printf("// === slice %s (%v) ===\n%s", r.Label, r.Duration.Round(time.Microsecond), out.Source())
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func parseCriterion(g *specslice.SDG, s string) (specslice.Criterion, error) {
	switch {
	case s == "printf":
		return g.PrintfCriterion(""), nil
	case strings.HasPrefix(s, "printf:"):
		return g.PrintfCriterion(strings.TrimPrefix(s, "printf:")), nil
	case strings.HasPrefix(s, "line:"):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "line:"))
		if err != nil {
			return specslice.Criterion{}, fmt.Errorf("bad line number in %q", s)
		}
		return g.LineCriterion(n), nil
	case strings.HasPrefix(s, "stmt:"):
		rest := strings.TrimPrefix(s, "stmt:")
		proc, label, ok := strings.Cut(rest, ":")
		if !ok {
			return specslice.Criterion{}, fmt.Errorf("stmt criterion needs proc:label, got %q", rest)
		}
		return g.StmtCriterion(proc, label), nil
	}
	return specslice.Criterion{}, fmt.Errorf("unknown criterion %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "specslice:", err)
	os.Exit(1)
}
