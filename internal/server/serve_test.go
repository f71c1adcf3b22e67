package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"specslice"
	"specslice/internal/workload"
)

// TestServeDrainsInFlight cancels Serve's context while a request's gzip
// cold build is in flight. The drain must let that request finish: it
// gets a 200 whose results are byte-identical to a direct slice, and Serve
// returns nil. The cancel only counts once the listener is closed (the
// shutdown has begun) with the build still running; an attempt whose build
// finished first is retried on a fresh server.
func TestServeDrainsInFlight(t *testing.T) {
	var src string
	for _, cfg := range workload.Benchmarks() {
		if cfg.Name == "gzip" {
			src = workload.GenerateSource(cfg)
		}
	}
	crit := []CriterionRequest{{Kind: "printf", Proc: "main"}}
	want := directResults(t, specslice.MustParse(src).Source(), crit)
	body, err := json.Marshal(SliceRequest{Program: src, Criteria: crit})
	if err != nil {
		t.Fatal(err)
	}

	for attempt := 1; ; attempt++ {
		s, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		served := make(chan error, 1)
		go func() { served <- s.Serve(ctx, ln) }()

		type reply struct {
			status int
			body   []byte
			err    error
		}
		replied := make(chan reply, 1)
		go func() {
			resp, err := http.Post("http://"+addr+"/v1/slice", "application/json", bytes.NewReader(body))
			if err != nil {
				replied <- reply{err: err}
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			_, err = buf.ReadFrom(resp.Body)
			replied <- reply{status: resp.StatusCode, body: buf.Bytes(), err: err}
		}()

		waitFor(t, func() bool { return s.Cache().Stats().InFlight == 1 })
		cancel()
		waitFor(t, func() bool {
			c, err := net.Dial("tcp", addr)
			if err == nil {
				c.Close()
			}
			return err != nil
		})
		inFlight := s.Cache().Stats().InFlight == 1

		r := <-replied
		if r.err != nil {
			t.Fatalf("request during drain: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("request during drain: status %d: %s", r.status, r.body)
		}
		var resp SliceResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			t.Fatalf("bad response JSON: %v\n%s", err, r.body)
		}
		if got := resultsJSON(t, resp); !bytes.Equal(got, want) {
			t.Fatalf("drained response differs from a direct slice:\n%s\nwant:\n%s", got, want)
		}
		if err := <-served; err != nil {
			t.Fatalf("Serve after drain: %v", err)
		}
		if inFlight {
			return
		}
		if attempt == 5 {
			t.Fatal("in 5 attempts the build never outlasted the start of the shutdown")
		}
		t.Logf("attempt %d: the build finished before the shutdown began; retrying", attempt)
	}
}

// TestServeBinary runs the real specslice binary: serve on an ephemeral
// port read from its "listening on" line, answer Fig. 1's printf slice
// byte-identically to a direct slice, then drain on SIGTERM, log the
// "drained" line and exit 0.
func TestServeBinary(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGTERM semantics are POSIX")
	}
	if testing.Short() {
		t.Skip("builds and execs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "specslice")
	build := exec.Command("go", "build", "-o", bin, "specslice/cmd/specslice")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	var (
		mu   sync.Mutex
		logs []string
	)
	addrRe := regexp.MustCompile(`listening on ([0-9.:]+)`)
	addrc := make(chan string, 1)
	eof := make(chan struct{})
	go func() {
		defer close(eof)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			mu.Lock()
			logs = append(logs, sc.Text())
			mu.Unlock()
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
	}()
	var url string
	select {
	case addr := <-addrc:
		url = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("server never logged its listen address")
	}

	crit := []CriterionRequest{{Kind: "printf", Proc: "main"}}
	status, resp, raw := postSlice(t, url, SliceRequest{Program: workload.Fig1Source, Criteria: crit})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	want := directResults(t, specslice.MustParse(workload.Fig1Source).Source(), crit)
	if got := resultsJSON(t, resp); !bytes.Equal(got, want) {
		t.Fatalf("served results differ from a direct slice:\n%s\nwant:\n%s", got, want)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-eof:
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit within 30s of SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if all := strings.Join(logs, "\n"); !strings.Contains(all, "drained") {
		t.Fatalf("no drained line in the server log:\n%s", all)
	}
}
