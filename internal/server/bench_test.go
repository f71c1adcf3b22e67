package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"specslice/internal/lang"
	"specslice/internal/workload"
)

// coldMissBodies returns one POST /v1/slice body per Siemens suite
// (workload.SmallBenchmarks): a poly printf criterion in main. Every
// procedure but main gets the suite's name as a suffix, because the
// generator names procedures p0, p1, … in every suite and FamilyKey is the
// sorted procedure names: without it, suites with equal procedure counts
// would share a version chain and advance across each other.
func coldMissBodies(tb testing.TB) [][]byte {
	var bodies [][]byte
	for _, cfg := range workload.SmallBenchmarks() {
		p, err := lang.Parse(workload.GenerateSource(cfg))
		if err != nil {
			tb.Fatalf("%s: %v", cfg.Name, err)
		}
		suffixProcs(p, "_"+cfg.Name)
		body, err := json.Marshal(SliceRequest{
			Program:  lang.Print(p),
			Criteria: []CriterionRequest{{Kind: "printf", Proc: "main", Mode: "poly"}},
		})
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// suffixProcs appends suffix to the name of every procedure but main, and
// to every reference to one.
func suffixProcs(p *lang.Program, suffix string) {
	procs := map[string]bool{}
	for _, f := range p.Funcs {
		if f.Name != "main" {
			procs[f.Name] = true
			f.Name += suffix
		}
	}
	for _, f := range p.Funcs {
		lang.WalkStmts(f.Body, func(s lang.Stmt) {
			if c, ok := s.(*lang.CallStmt); ok && procs[c.Callee] {
				c.Callee += suffix
			}
			for _, e := range lang.StmtExprs(s) {
				lang.WalkExprs(e, func(x lang.Expr) {
					switch x := x.(type) {
					case *lang.FuncRef:
						if procs[x.Name] {
							x.Name += suffix
						}
					case *lang.CallExpr:
						if procs[x.Callee] {
							x.Callee += suffix
						}
					}
				})
			}
		})
	}
}

// BenchmarkColdMiss drives POST /v1/slice through Handler() over the 8
// Siemens suites in turn, with a one-entry cache, so every request misses
// and pays what the cold_miss workload's misses pay: key memo, parse,
// cold build, engine warm-up, slice, emit and JSON. Run with -benchmem;
// bytes/op is the allocation volume that sets how often the collector
// runs on the miss path.
func BenchmarkColdMiss(b *testing.B) {
	s, err := New(Config{CacheMaxEntries: 1})
	if err != nil {
		b.Fatal(err)
	}
	bodies := coldMissBodies(b)
	h := s.Handler()
	serve := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/slice", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	// One round fills the key memo, so the measured requests are the
	// steady state: the text is known, its engine has been evicted.
	for _, body := range bodies {
		serve(body)
	}
	before := s.Cache().Stats().ColdBuilds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(bodies[i%len(bodies)])
	}
	b.StopTimer()
	if got := s.Cache().Stats().ColdBuilds - before; got != int64(b.N) {
		b.Fatalf("cold_builds grew by %d over %d requests, want %d", got, b.N, b.N)
	}
}

// BenchmarkDecodeSliceRequest decodes the 8 Siemens request bodies with
// the one-pass decoder and with the encoding/json reference it replaced.
// Run with -benchmem; bytes/s is request bytes decoded.
func BenchmarkDecodeSliceRequest(b *testing.B) {
	bodies := coldMissBodies(b)
	total := 0
	for _, body := range bodies {
		total += len(body)
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte) (SliceRequest, error)
	}{
		{"onepass", DecodeSliceRequest},
		{"reference", func(body []byte) (SliceRequest, error) {
			return referenceDecodeSliceRequest(bytes.NewReader(body))
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(total))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, body := range bodies {
					if _, err := bc.decode(body); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkMixedWarmHit drives warm POST /v1/slice requests that rotate
// over the 8 Siemens suites and six criterion sets each (main's printf and
// every printf, polyvariant and monovariant, and two statement lines), so
// each engine's queries differ from one request to the next. Run with
// -benchmem.
func BenchmarkMixedWarmHit(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	var bodies [][]byte
	for _, cfg := range workload.SmallBenchmarks() {
		src := workload.GenerateSource(cfg)
		lines := strings.Count(src, "\n")
		for _, c := range []CriterionRequest{
			{Kind: "printf", Proc: "main"},
			{Kind: "printf"},
			{Kind: "printf", Proc: "main", Mode: "mono"},
			{Kind: "printf", Mode: "mono"},
			{Kind: "line", Line: lines / 3},
			{Kind: "line", Line: 2 * lines / 3},
		} {
			body, err := json.Marshal(SliceRequest{Program: src, Criteria: []CriterionRequest{c}})
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	h := s.Handler()
	serve := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/slice", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	for _, body := range bodies {
		serve(body) // build every engine
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(bodies[i%len(bodies)])
	}
}
