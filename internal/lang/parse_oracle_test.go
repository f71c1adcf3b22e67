package lang_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"specslice/internal/interp"
	"specslice/internal/lang"
	"specslice/internal/workload"
)

// oracleCorpus returns the 12 Fig. 17 suites, as generated and as
// normalized, and the paper figures.
func oracleCorpus() map[string]string {
	srcs := map[string]string{
		"fig1":  workload.Fig1Source,
		"fig2":  workload.Fig2Source,
		"fig15": workload.Fig15Source,
		"fig16": workload.Fig16Source,
		"p4":    workload.PkSource(4),
		"wc":    workload.WcSource,
	}
	for _, cfg := range workload.Benchmarks() {
		src := workload.GenerateSource(cfg)
		srcs[cfg.Name] = src
		srcs[cfg.Name+" normalized"] = lang.Print(lang.MustParse(src))
	}
	return srcs
}

// respell returns src with its lines doubled and re-indented under a
// leading comment: the same program, with every position moved.
func respell(src string) string {
	return "// respelled\n" + strings.NewReplacer("\n", "\n\n", "\n  ", "\n\n\t ").Replace(src)
}

// TestParseMatchesReferenceCorpus holds Parse to the reference front end
// (lang.DiffReference) on the Fig. 17 suites and the paper figures.
func TestParseMatchesReferenceCorpus(t *testing.T) {
	for name, src := range oracleCorpus() {
		if d := lang.DiffReference(src); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
}

// TestCanonicalizeCorpus checks the canonical-numbering contract
// (Canonicalize(p) leaves p deep-equal to Parse of its text) on the Fig. 17
// suites and the paper figures, as written and respelled.
func TestCanonicalizeCorpus(t *testing.T) {
	for name, src := range oracleCorpus() {
		if !lang.CheckCanonical(t, src) || !lang.CheckCanonical(t, respell(src)) {
			t.Errorf("%s does not parse", name)
		}
	}
}

// TestCanonicalizeEditorSteps checks the canonical-numbering contract on
// every version of 200 unrestricted editor steps over each Siemens suite,
// respelled so that no position is already canonical.
func TestCanonicalizeEditorSteps(t *testing.T) {
	versions := 0
	for _, cfg := range workload.SmallBenchmarks() {
		ed := workload.NewEditor(workload.Generate(cfg), cfg.Seed)
		for step := 0; step < 200; step++ {
			ed.Step()
			if !lang.CheckCanonical(t, respell(ed.Source())) {
				t.Fatalf("%s step %d does not parse (edits %v)", cfg.Name, step, ed.Ops)
			}
			versions++
		}
	}
	if versions != 1600 {
		t.Fatalf("%d versions checked, want 1600", versions)
	}
}

// TestTempNamesDoNotCaptureUserNames: normalization temporaries used to be
// named _t1, _t2, ... whatever the program declared. A global of that name
// was shadowed by the temporary, so a program printed a different value
// than the same program with the global renamed; a local of that name was
// rejected as a duplicate. Both spellings now behave alike, and the local
// one parses and round-trips.
func TestTempNamesDoNotCaptureUserNames(t *testing.T) {
	const tmpl = `int %[1]s;
int h(int a) { return a; }
int main() { %[1]s = 5; int x = h(h(1)) + %[1]s; printf("%%d", x); return 0; }`
	run := func(src string) []string {
		t.Helper()
		res, err := interp.Run(lang.MustParse(src), interp.Options{})
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		return res.Output
	}
	captured, renamed := run(fmt.Sprintf(tmpl, "_t1")), run(fmt.Sprintf(tmpl, "gv"))
	if !reflect.DeepEqual(captured, renamed) || !reflect.DeepEqual(renamed, []string{"6"}) {
		t.Errorf("global _t1 prints %v, renamed %v; want [6] for both", captured, renamed)
	}

	local := `int h(int a) { return a; }
int main() { int _t1 = 4; int x = h(h(_t1)) * 2; printf("%d", x); return 0; }`
	if _, err := lang.ReferenceParse(local); err == nil || !strings.Contains(err.Error(), "duplicate local") {
		t.Errorf("the reference front end accepted a local _t1 (err %v); this test no longer shows the fault", err)
	}
	prog, err := lang.Parse(local)
	if err != nil {
		t.Fatalf("local _t1: %v", err)
	}
	text := lang.Print(prog)
	again, err := lang.Parse(text)
	if err != nil || lang.Print(again) != text {
		t.Fatalf("local _t1 does not round-trip (%v):\n%s", err, text)
	}
	if out := run(local); !reflect.DeepEqual(out, []string{"8"}) {
		t.Errorf("local _t1 prints %v, want [8]", out)
	}
}

// BenchmarkParse parses the normalized text of the 8 Siemens suites, the
// text a cache miss parses, per iteration.
func BenchmarkParse(b *testing.B) {
	var srcs []string
	size := 0
	for _, cfg := range workload.SmallBenchmarks() {
		src := lang.Print(workload.Generate(cfg))
		srcs = append(srcs, src)
		size += len(src)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, src := range srcs {
			if _, err := lang.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
