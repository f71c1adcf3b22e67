package specslice_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"strings"
	"testing"

	"specslice"
	"specslice/internal/lang"
	"specslice/internal/workload"
)

// sliceCorpusDigest pins the slices the public API emits on the 8 Siemens
// suites (see TestSliceCorpusDigest). Re-pin it only in a change that means
// to alter slice output, and say so in CHANGES.md; a performance change
// must leave it alone.
const sliceCorpusDigest = "9081cab412489941515dab7c703ebd5f1e7318a76ddb58017811f017200ee097"

// TestSliceCorpusDigest hashes, for every per-procedure printf criterion
// and every 4th line criterion of the 8 Siemens suites, the polyvariant and
// monovariant slices: emitted source, sorted variant counts and vertex
// count. The bench gate only compares the server with the same commit's
// public API, so this constant is what ties slice output across commits.
func TestSliceCorpusDigest(t *testing.T) {
	h := sha256.New()
	lines, sliced := 0, 0
	for _, cfg := range workload.SmallBenchmarks() {
		src := lang.Print(workload.Generate(cfg))
		prog, err := specslice.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		s, err := prog.SDG()
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		for _, proc := range prog.ProcNames() {
			sliced += hashSlices(h, s, s.PrintfCriterion(proc), fmt.Sprintf("%s printf:%s", cfg.Name, proc))
		}
		n := strings.Count(src, "\n") + 1
		lines += n
		for line := 1; line <= n; line += 4 {
			sliced += hashSlices(h, s, s.LineCriterion(line), fmt.Sprintf("%s line:%d", cfg.Name, line))
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d slices over %d source lines", sliced, lines)
	if got != sliceCorpusDigest {
		t.Fatalf("slice corpus digest %s, pinned %s", got, sliceCorpusDigest)
	}
}

// featureRemovalCorpusDigest pins the feature removals the public API
// emits on the 8 Siemens suites (see TestFeatureRemovalCorpusDigest),
// under the same re-pin rule as sliceCorpusDigest.
const featureRemovalCorpusDigest = "7141a3f5ed0bb2297e2d13253a0b27d20b480cbfd3fd2096c996dfb027f027d7"

// TestFeatureRemovalCorpusDigest hashes the feature removal from every 16th
// line criterion of the 8 Siemens suites: its emitted source, variant
// counts and vertex count, or its error. Feature removal intersects the
// reachable configurations with a complement, so this ties that
// automaton's language across commits, which TestSliceCorpusDigest's poly
// and mono slices do not.
func TestFeatureRemovalCorpusDigest(t *testing.T) {
	h := sha256.New()
	removals, criteria := 0, 0
	for _, cfg := range workload.SmallBenchmarks() {
		src := lang.Print(workload.Generate(cfg))
		prog, err := specslice.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		s, err := prog.SDG()
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		n := strings.Count(src, "\n") + 1
		for line := 1; line <= n; line += 16 {
			sl, err := s.RemoveFeature(s.LineCriterion(line))
			fmt.Fprintf(h, "%s line:%d\n", cfg.Name, line)
			removals += writeSlice(h, sl, err)
			criteria++
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d removals, %d errors", removals, criteria-removals)
	if got != featureRemovalCorpusDigest {
		t.Fatalf("feature removal corpus digest %s, pinned %s", got, featureRemovalCorpusDigest)
	}
}

// hashSlices writes the poly and mono slices of c into h, or their errors
// (a criterion that selects nothing is one), and returns how many slices it
// wrote.
func hashSlices(h hash.Hash, s *specslice.SDG, c specslice.Criterion, label string) int {
	poly, err := s.SpecializationSlice(c)
	fmt.Fprintf(h, "%s poly\n", label)
	n := writeSlice(h, poly, err)
	mono, err := s.MonovariantSlice(c)
	fmt.Fprintf(h, "%s mono\n", label)
	return n + writeSlice(h, mono, err)
}

func writeSlice(h hash.Hash, sl *specslice.Slice, err error) int {
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
		return 0
	}
	defer sl.Release()
	src, err := sl.Source()
	if err != nil {
		src = "emit error " + err.Error()
	}
	counts := sl.VariantCounts()
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%d ", name, counts[name])
	}
	fmt.Fprintf(h, "\n%d vertices\n%s\n", sl.Vertices(), src)
	return 1
}
