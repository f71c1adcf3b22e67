package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"specslice/internal/server"
	"specslice/internal/workload"
)

// BenchmarkRoutedWarmHit drives warm POST /v1/slice requests for one
// Siemens suite through an in-process router in front of one worker, over
// loopback HTTP: the path a routed warm hit pays, the router's read,
// decode, key memo and forward on top of the worker's. Run with
// -benchmem; the allocations are the whole process's, client, router and
// worker together.
func BenchmarkRoutedWarmHit(b *testing.B) {
	lc, err := StartLocal(1, server.Config{}, Config{Logf: func(string, ...any) {}})
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	var src string
	for _, cfg := range workload.SmallBenchmarks() {
		if cfg.Name == "tot_info" {
			src = workload.GenerateSource(cfg)
		}
	}
	body, err := json.Marshal(server.SliceRequest{Program: src, Criteria: []server.CriterionRequest{{Kind: "printf", Proc: "main"}}})
	if err != nil {
		b.Fatal(err)
	}
	url := lc.URL() + "/v1/slice"
	serve := func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %v", resp.StatusCode, err)
		}
	}
	serve() // build the engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
