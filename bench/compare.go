package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareMain implements `bench compare A... -- B...`: A holds the parent's
// runs and B the change's, each file the saved standard output of runs.
// For every workload and end-to-end metric it prints both sides' median
// and quartiles and a verdict against the metric's bound in
// BENCHMARK.json. It refuses runs from different machines or inputs.
func compareMain(args []string, out io.Writer) int {
	var a, b []string
	side := &a
	for _, arg := range args {
		if arg == "--" {
			side = &b
			continue
		}
		*side = append(*side, arg)
	}
	if len(a) == 0 || len(b) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json... -- B.json...")
		return 2
	}
	ra, err := loadRecords(a)
	if err == nil {
		var rb []*record
		if rb, err = loadRecords(b); err == nil {
			var bounds map[string]float64
			if bounds, err = loadBounds("BENCHMARK.json"); err == nil {
				err = compare(ra, rb, bounds, out)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	return 0
}

// loadRecords reads every run record ({"bench": …} lines) in files.
func loadRecords(files []string) ([]*record, error) {
	var recs []*record
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var line struct {
				Bench *record `json:"bench"`
			}
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Bench != nil {
				recs = append(recs, line.Bench)
			}
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no run records in %s", strings.Join(files, " "))
	}
	return recs, nil
}

// loadBounds reads each end-to-end metric's bound from BENCHMARK.json.
func loadBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

func compare(ra, rb []*record, bounds map[string]float64, out io.Writer) error {
	machine := func(f fingerprint) fingerprint { f.Commit = ""; return f }
	want := machine(ra[0].Fingerprint)
	inputs := map[string]string{}
	for _, r := range append(append([]*record(nil), ra...), rb...) {
		if got := machine(r.Fingerprint); got != want {
			return fmt.Errorf("machine fingerprints differ: %+v vs %+v", want, got)
		}
		k := fmt.Sprintf("%s/%d", r.Workload, r.Seed)
		if h, ok := inputs[k]; ok && h != r.InputsSHA256 {
			return fmt.Errorf("%s seed %d: inputs hash differently across runs", r.Workload, r.Seed)
		}
		inputs[k] = r.InputsSHA256
	}
	fmt.Fprintf(out, "%-12s %-17s %30s %30s %8s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
	for _, w := range workloads {
		sa, sb := byWorkload(ra, w.name), byWorkload(rb, w.name)
		if len(sa) == 0 || len(sb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			va, vb := values(sa, d.name), values(sb, d.name)
			qa, qb := quartiles(va), quartiles(vb)
			v := verdict(d, bounds[d.name], sa, sb)
			fmt.Fprintf(out, "%-12s %-17s %30s %30s %+7.1f%%  %s\n", w.name, d.name, fmtQ(qa), fmtQ(qb), 100*(qb[1]-qa[1])/qa[1], v)
		}
	}
	return nil
}

// byWorkload returns the untraced runs of one workload.
func byWorkload(rs []*record, name string) []*record {
	var out []*record
	for _, r := range rs {
		if r.Workload == name && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []*record, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[metric]
	}
	return out
}

// quartiles returns q1, median and q3 as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method, which
// extrapolates for small samples); one value gives that value three times.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}

// verdict applies the choosing-metrics rules to one metric: worse when B's
// median is worse than A's by more than the bound; improved when it is
// better by more than A's own quartile spread and B wins at least nine in
// ten runs paired by seed (every run, when no seeds pair); unresolved when
// either side spreads wider than the bound, unless every B run beats every
// A run or the other way round; unchanged otherwise.
func verdict(d metricDef, bound float64, sa, sb []*record) string {
	better := func(x, y float64) bool { // x is better than y
		if d.better == "higher" {
			return x > y
		}
		return x < y
	}
	va, vb := values(sa, d.name), values(sb, d.name)
	qa, qb := quartiles(va), quartiles(vb)
	allBetter, allWorse := true, true
	for _, x := range vb {
		for _, y := range va {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	spread := max((qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1])
	if spread > bound {
		switch {
		case allBetter:
			return "improved"
		case allWorse:
			return "worse"
		}
		return fmt.Sprintf("unresolved (spread %.1f%% > bound %.0f%%)", 100*spread, 100*bound)
	}
	worse := (qb[1] - qa[1]) / qa[1]
	if d.better == "higher" {
		worse = -worse
	}
	if worse > bound {
		return "worse"
	}
	wins, pairs := 0, 0
	for _, x := range sb {
		for _, y := range sa {
			if x.Seed == y.Seed {
				pairs++
				if better(x.Metrics[d.name], y.Metrics[d.name]) {
					wins++
				}
			}
		}
	}
	won := allBetter
	if pairs > 0 {
		won = float64(wins) >= 0.9*float64(pairs)
	}
	if -worse*qa[1] > qa[2]-qa[0] && won {
		return "improved"
	}
	return "unchanged"
}
