// Package experiments regenerates every table and figure of the paper's
// evaluation (§8, Figs. 17–22), the §4.2 determinize observation, the §4.3
// exponential family, and the §5 wc speed-up measurement. Each table
// renders as text rows matching the paper's columns; EXPERIMENTS.md records
// paper-vs-measured values.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"specslice/internal/core"
	"specslice/internal/emit"
	"specslice/internal/interp"
	"specslice/internal/lang"
	"specslice/internal/mono"
	"specslice/internal/sdg"
	"specslice/internal/slice"
	"specslice/internal/workload"
)

// SliceResult holds the measurements of one slice of one suite.
type SliceResult struct {
	Criterion string

	ClosureVertices int
	MonoVertices    int // closure + added-back extras
	PolyVertices    int // slice elements, counting replicas
	MonoPctIncrease float64
	PolyPctIncrease float64

	VariantCounts map[string]int

	MonoTime     time.Duration
	PolyTime     time.Duration
	AutomatonOps time.Duration

	MonoAllocBytes uint64
	PolyAllocBytes uint64
	AutoAllocBytes uint64

	StatesBeforeDeterminize int
	StatesAfterDeterminize  int

	// PerProcPoly maps each specialized variant to its share (%) of the
	// original PDG's vertices; PerProcMono likewise per procedure.
	PerProcPoly []ProcPoint
	PerProcMono map[string]float64
}

// ProcPoint is one Fig.-20 scatter point.
type ProcPoint struct {
	Proc    string
	PolyPct float64
	MonoPct float64
	IsExtra bool // an extra copy beyond the first
}

// SuiteResult holds one benchmark suite's measurements.
type SuiteResult struct {
	Config      workload.BenchConfig
	SourceLines int
	Stats       sdg.Stats
	Slices      []SliceResult
}

// RunSuite generates the suite, builds its SDG, and takes every slice.
func RunSuite(cfg workload.BenchConfig) (*SuiteResult, error) {
	src := workload.GenerateSource(cfg)
	prog := lang.MustParse(src)
	g := sdg.MustBuild(prog)
	res := &SuiteResult{
		Config:      cfg,
		SourceLines: strings.Count(src, "\n"),
		Stats:       g.Statistics(),
	}

	var criteria [][]sdg.VertexID
	for _, s := range g.Sites {
		if s.Lib && s.Callee == "printf" && g.Procs[s.CallerProc].Name == "main" {
			criteria = append(criteria, append([]sdg.VertexID(nil), s.ActualIns...))
		}
	}
	for i, crit := range criteria {
		sr, err := runSlice(prog, crit, fmt.Sprintf("printf#%d", i))
		if err != nil {
			return nil, fmt.Errorf("%s slice %d: %w", cfg.Name, i, err)
		}
		res.Slices = append(res.Slices, *sr)
	}
	return res, nil
}

// runSlice measures one criterion with both algorithms on one graph. The
// monovariant measurement includes the summary-edge fixpoint Binkley's
// algorithm needs; the polyvariant one needs none.
func runSlice(prog *lang.Program, critTemplate []sdg.VertexID, name string) (*SliceResult, error) {
	sr := &SliceResult{Criterion: name, VariantCounts: map[string]int{}, PerProcMono: map[string]float64{}}
	g := sdg.MustBuild(prog)

	// Monovariant measurement.
	a0 := allocated()
	t0 := time.Now()
	mres := mono.Binkley(g, slice.ComputeSummaries(g), critTemplate)
	if _, err := emit.Program(g, mres.Variants()); err != nil {
		return nil, fmt.Errorf("mono emit: %w", err)
	}
	sr.MonoTime = time.Since(t0)
	sr.MonoAllocBytes = allocated() - a0
	sr.ClosureVertices = len(mres.Closure)
	sr.MonoVertices = len(mres.Slice)

	origSizes := map[string]int{}
	for _, p := range g.Procs {
		origSizes[p.Name] = len(p.Vertices)
	}
	monoSizes := mres.PerProcSizes()
	for proc, n := range monoSizes {
		sr.PerProcMono[proc] = 100 * float64(n) / float64(origSizes[proc])
	}

	// Polyvariant measurement.
	var cfgs core.Configs
	for _, v := range critTemplate {
		cfgs = append(cfgs, core.Config{Vertex: v})
	}
	a1 := allocated()
	t1 := time.Now()
	pres, err := core.Specialize(g, cfgs)
	if err != nil {
		return nil, err
	}
	if _, err := emit.Program(g, pres.Variants()); err != nil {
		return nil, fmt.Errorf("poly emit: %w", err)
	}
	sr.PolyTime = time.Since(t1)
	sr.PolyAllocBytes = allocated() - a1
	sr.AutomatonOps = pres.Timings.AutomatonOps + pres.Timings.Prestar
	variants := pres.Variants()
	for _, v := range variants {
		sr.PolyVertices += len(v.Vertices)
	}
	sr.VariantCounts = pres.VariantCounts()
	sr.StatesBeforeDeterminize = pres.StatesBeforeDeterminize
	sr.StatesAfterDeterminize = pres.StatesAfterDeterminize

	seen := map[string]int{}
	for _, v := range variants {
		orig := v.Orig.Name
		seen[orig]++
		sr.PerProcPoly = append(sr.PerProcPoly, ProcPoint{
			Proc:    orig,
			PolyPct: 100 * float64(len(v.Vertices)) / float64(origSizes[orig]),
			MonoPct: sr.PerProcMono[orig],
			IsExtra: seen[orig] > 1,
		})
	}

	if sr.ClosureVertices > 0 {
		sr.MonoPctIncrease = 100 * float64(sr.MonoVertices-sr.ClosureVertices) / float64(sr.ClosureVertices)
		sr.PolyPctIncrease = 100 * float64(sr.PolyVertices-sr.ClosureVertices) / float64(sr.ClosureVertices)
	}
	return sr, nil
}

func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// RunAll runs every configured suite.
func RunAll(cfgs []workload.BenchConfig) ([]*SuiteResult, error) {
	var out []*SuiteResult
	for _, cfg := range cfgs {
		r, err := RunSuite(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// GeoMean computes the geometric mean of (100+x)/100-style ratios the paper
// uses; inputs are percentages, the result is a percentage.
func GeoMean(pcts []float64) float64 {
	if len(pcts) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range pcts {
		s += math.Log(1 + p/100)
	}
	return 100 * (math.Exp(s/float64(len(pcts))) - 1)
}

// Fig17 renders the test-program table.
func Fig17(results []*SuiteResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 17: test programs\n")
	fmt.Fprintf(&sb, "%-14s %9s %8s %7s %9s %7s %7s\n",
		"Program", "#Versions", "#Lines", "#Procs", "#Vertices", "#Sites", "#Slices")
	for _, r := range results {
		fmt.Fprintf(&sb, "%-14s %9d %8d %7d %9d %7d %7d\n",
			r.Config.Name, r.Config.Versions, r.SourceLines, r.Stats.Procs,
			r.Stats.Vertices, r.Stats.CallSites, len(r.Slices))
	}
	return sb.String()
}

// Fig18 renders the distribution of specialized-version counts.
func Fig18(results []*SuiteResult) string {
	hist := map[int]int{}
	for _, r := range results {
		for _, s := range r.Slices {
			for _, n := range s.VariantCounts {
				hist[n]++
			}
		}
	}
	var keys []int
	total, multi := 0, 0
	for k, v := range hist {
		keys = append(keys, k)
		total += v
		if k > 1 {
			multi += v
		}
	}
	sort.Ints(keys)
	var sb strings.Builder
	sb.WriteString("Fig. 18: distribution of the number of specialized versions per procedure\n")
	fmt.Fprintf(&sb, "%-10s %s\n", "#Versions", "#Procedures")
	for _, k := range keys {
		fmt.Fprintf(&sb, "%-10d %d\n", k, hist[k])
	}
	if total > 0 {
		fmt.Fprintf(&sb, "single-version procedures: %.1f%% (paper: 90.6%%)\n",
			100*float64(total-multi)/float64(total))
	}
	return sb.String()
}

// Fig19 renders the slice-growth table.
func Fig19(results []*SuiteResult) string {
	var sb strings.Builder
	sb.WriteString("Fig. 19: % increase in #PDG vertices relative to the closure slice\n")
	fmt.Fprintf(&sb, "%-14s %7s %12s %12s\n", "Program", "#Slices", "Mono %incr", "Poly %incr")
	var allMono, allPoly []float64
	for _, r := range results {
		var m, p []float64
		for _, s := range r.Slices {
			m = append(m, s.MonoPctIncrease)
			p = append(p, s.PolyPctIncrease)
		}
		allMono = append(allMono, m...)
		allPoly = append(allPoly, p...)
		fmt.Fprintf(&sb, "%-14s %7d %12.1f %12.1f\n", r.Config.Name, len(r.Slices), mean(m), mean(p))
	}
	fmt.Fprintf(&sb, "%-14s %7s %12.1f %12.1f   (paper geomeans: 7.1 and 9.4)\n",
		"geomean", "", GeoMean(allMono), GeoMean(allPoly))
	return sb.String()
}

// Fig20 renders the per-procedure scatter summary.
func Fig20(results []*SuiteResult) string {
	var ratios []float64
	larger, similar := 0, 0
	var rows []string
	for _, r := range results {
		for _, s := range r.Slices {
			for _, pt := range s.PerProcPoly {
				if pt.MonoPct <= 0 || pt.PolyPct <= 0 {
					continue
				}
				ratios = append(ratios, pt.PolyPct/pt.MonoPct)
				if pt.MonoPct > pt.PolyPct*1.5 {
					larger++
				} else {
					similar++
				}
				if len(rows) < 25 {
					rows = append(rows, fmt.Sprintf("  %-14s %-10s poly=%6.1f%% mono=%6.1f%%",
						r.Config.Name, pt.Proc, pt.PolyPct, pt.MonoPct))
				}
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("Fig. 20: per-procedure sizes, polyvariant vs monovariant (sample of points)\n")
	for _, row := range rows {
		sb.WriteString(row + "\n")
	}
	g := 0.0
	for _, x := range ratios {
		g += math.Log(x)
	}
	if len(ratios) > 0 {
		g = math.Exp(g / float64(len(ratios)))
	}
	fmt.Fprintf(&sb, "points: %d; mono >1.5x poly: %d; geomean(poly%%/mono%%) = %.0f%% (paper: 93%%)\n",
		len(ratios), larger, 100*g)
	return sb.String()
}

// Fig21 renders the timing table.
func Fig21(results []*SuiteResult) string {
	var sb strings.Builder
	sb.WriteString("Fig. 21: slicing times (seconds)\n")
	fmt.Fprintf(&sb, "%-14s %12s %12s %14s\n", "Program", "Mono", "Poly", "PDS+FSA ops")
	var ratios []float64
	for _, r := range results {
		var m, p, a time.Duration
		for _, s := range r.Slices {
			m += s.MonoTime
			p += s.PolyTime
			a += s.AutomatonOps
		}
		n := time.Duration(len(r.Slices))
		if n == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%-14s %12.4f %12.4f %14.4f\n",
			r.Config.Name, (m / n).Seconds(), (p / n).Seconds(), (a / n).Seconds())
		if m > 0 {
			ratios = append(ratios, float64(p)/float64(m))
		}
	}
	g := 0.0
	for _, x := range ratios {
		g += math.Log(x)
	}
	if len(ratios) > 0 {
		g = math.Exp(g / float64(len(ratios)))
	}
	fmt.Fprintf(&sb, "poly/mono geomean: %.1fx (paper: 2.7x small suites, 4.7x large)\n", g)
	return sb.String()
}

// Fig22 renders the memory table (allocation during slicing, as the
// platform-neutral analogue of the paper's peak-RSS numbers).
func Fig22(results []*SuiteResult) string {
	var sb strings.Builder
	sb.WriteString("Fig. 22: memory (MB allocated during slicing)\n")
	fmt.Fprintf(&sb, "%-14s %12s %12s\n", "Program", "Mono", "Poly")
	for _, r := range results {
		var m, p uint64
		for _, s := range r.Slices {
			m += s.MonoAllocBytes
			p += s.PolyAllocBytes
		}
		n := uint64(len(r.Slices))
		if n == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%-14s %12.2f %12.2f\n",
			r.Config.Name, float64(m/n)/1e6, float64(p/n)/1e6)
	}
	return sb.String()
}

// DeterminizeTable renders the §4.2 observation: determinize shrinks the
// automata arising from Prestar.
func DeterminizeTable(results []*SuiteResult) string {
	var sb strings.Builder
	sb.WriteString("§4.2: determinize input vs output states (paper: output 4.4%–34% smaller)\n")
	fmt.Fprintf(&sb, "%-14s %10s %10s %8s\n", "Program", "Before", "After", "Shrink%")
	for _, r := range results {
		var b, a int
		for _, s := range r.Slices {
			b += s.StatesBeforeDeterminize
			a += s.StatesAfterDeterminize
		}
		if b == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%-14s %10d %10d %8.1f\n", r.Config.Name, b, a, 100*float64(b-a)/float64(b))
	}
	return sb.String()
}

// Fig13Table measures the §4.3 exponential family.
func Fig13Table(maxK int) string {
	var sb strings.Builder
	sb.WriteString("Fig. 13 / §4.3: exponential family Pk (live-global patterns = 2^k − 1)\n")
	fmt.Fprintf(&sb, "%2s %12s %14s %10s\n", "k", "#variants", "2^k−1", "time")
	for k := 1; k <= maxK; k++ {
		g := sdg.MustBuild(workload.PkProgram(k))
		var cfgs core.Configs
		for _, v := range core.PrintfCriterion(g, "main") {
			cfgs = append(cfgs, core.Config{Vertex: v})
		}
		t0 := time.Now()
		res, err := core.Specialize(g, cfgs)
		if err != nil {
			fmt.Fprintf(&sb, "%2d error: %v\n", k, err)
			continue
		}
		fmt.Fprintf(&sb, "%2d %12d %14d %10s\n",
			k, res.VariantCounts()["Pk"], (1<<k)-1, time.Since(t0).Round(time.Millisecond))
	}
	return sb.String()
}

// WcTable measures the §5 executable-slice speed-up on the wc-like program:
// steps executed by slices on each printf vs the original.
func WcTable() string {
	var sb strings.Builder
	sb.WriteString("§5: wc executable-slice speed-up (interpreter steps; paper: slices run in 32.5% of original time)\n")
	prog := workload.WcProgram()
	input := workload.WcInput(strings.Repeat("the quick brown fox\njumps over the lazy dog\n", 40))
	orig, err := interp.Run(prog, interp.Options{Input: input})
	if err != nil {
		return err.Error()
	}
	g := sdg.MustBuild(prog)
	var printfs []*sdg.Site
	for _, s := range g.Sites {
		if s.Lib && s.Callee == "printf" {
			printfs = append(printfs, s)
		}
	}
	names := []string{"lines", "words", "chars"}
	var ratios []float64
	for i, site := range printfs {
		var cfgs core.Configs
		for _, v := range site.ActualIns {
			cfgs = append(cfgs, core.Config{Vertex: v})
		}
		res, err := core.Specialize(g, cfgs)
		if err != nil {
			return err.Error()
		}
		out, err := emit.Program(g, res.Variants())
		if err != nil {
			return err.Error()
		}
		run, err := interp.Run(out, interp.Options{Input: input})
		if err != nil {
			return err.Error()
		}
		ratio := 100 * float64(run.Steps) / float64(orig.Steps)
		ratios = append(ratios, ratio)
		fmt.Fprintf(&sb, "slice on printf(%s): %d steps vs %d (%.1f%% of original)\n",
			names[i%len(names)], run.Steps, orig.Steps, ratio)
	}
	g2 := 0.0
	for _, r := range ratios {
		g2 += math.Log(r)
	}
	if len(ratios) > 0 {
		g2 = math.Exp(g2 / float64(len(ratios)))
	}
	fmt.Fprintf(&sb, "geomean: %.1f%% of original steps\n", g2)
	return sb.String()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
