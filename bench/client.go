package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"specslice/internal/cluster"
	"specslice/internal/server"
)

// serverProc is a spawned `specslice serve` or `specslice route -workers 2`
// process. It leads its own process group, so stopping it also reaches the
// router's workers.
type serverProc struct {
	cmd *exec.Cmd
	url string
	log *logTail
}

// startServer spawns the server for w on an ephemeral loopback port and
// returns once the process has reported its address.
func startServer(bin string, w *workloadSpec) (*serverProc, error) {
	args := []string{"serve", "-addr", "127.0.0.1:0"}
	if w.routed {
		args = []string{"route", "-addr", "127.0.0.1:0", "-workers", "2"}
	}
	if w.cacheEntries > 0 {
		args = append(args, "-cache-entries", strconv.Itoa(w.cacheEntries))
	}
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	lt := &logTail{addr: make(chan string, 1)}
	cmd.Stdout = lt
	cmd.Stderr = lt
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, log: lt}
	select {
	case addr := <-lt.addr:
		p.url = "http://" + addr
		return p, nil
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("server never reported its address; log:\n%s", lt.String())
	}
}

// stop sends SIGTERM to the process group (the server drains and exits),
// escalates to SIGKILL after 20 s, and waits for the process to end.
func (p *serverProc) stop() {
	if p == nil || p.cmd.Process == nil || p.cmd.ProcessState != nil {
		return
	}
	pgid := -p.cmd.Process.Pid
	_ = syscall.Kill(pgid, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait() // a drained server exits 0; any other status changes nothing here
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = syscall.Kill(pgid, syscall.SIGKILL)
		<-done
	}
	// The router stops its workers before it exits; this catches any that
	// outlived it.
	_ = syscall.Kill(pgid, syscall.SIGKILL)
}

// logTail keeps the last lines a server printed and reports the address
// from its own "listening on" line (the router relays worker lines with a
// "[wN]" prefix, which are skipped).
type logTail struct {
	mu      sync.Mutex
	partial []byte
	lines   []string
	addr    chan string
}

func (l *logTail) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, b...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			break
		}
		line := string(l.partial[:i])
		l.partial = l.partial[i+1:]
		if len(l.lines) == 50 {
			l.lines = l.lines[1:]
		}
		l.lines = append(l.lines, line)
		if _, rest, ok := strings.Cut(line, "listening on "); ok && !strings.HasPrefix(line, "[") {
			addr, _, _ := strings.Cut(rest, " ")
			select {
			case l.addr <- addr:
			default:
			}
		}
	}
	return len(b), nil
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// newClient returns an HTTP client holding at most one keep-alive
// connection, so each closed-loop client uses exactly one.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// post sends body to url and reads the whole response into buf.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(c *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ready after 30s (last error %v)", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// preload slices printf in main of every corpus program once, so every
// base program's engine is built and warm before traffic starts.
func preload(c *http.Client, base string, in *inputs) error {
	var buf bytes.Buffer
	for i := 0; i < in.corpus; i++ {
		body, err := json.Marshal(server.SliceRequest{
			Program:  in.sources[i],
			Criteria: []server.CriterionRequest{{Kind: "printf", Proc: "main"}},
		})
		if err != nil {
			return err
		}
		status, err := post(c, base+"/v1/slice", body, &buf)
		if err != nil {
			return fmt.Errorf("preload program %d: %w", i, err)
		}
		if status != http.StatusOK || hasError(buf.Bytes()) {
			return fmt.Errorf("preload program %d: status %d: %.200s", i, status, buf.Bytes())
		}
	}
	return nil
}

// requestBody is the POST /v1/slice body of ops[i].
func requestBody(in *inputs, i int) []byte {
	o := in.ops[i]
	b, err := json.Marshal(server.SliceRequest{Program: in.sources[o.program], Criteria: o.criteria})
	if err != nil {
		panic(err) // a SliceRequest of strings and ints always marshals
	}
	return b
}

// opResult is one measured op: latency from send to fully read body, and
// when the body was read, counted from the start of the loop.
type opResult struct {
	index   int
	done    time.Duration
	latency time.Duration
	bytes   int
	failed  bool
}

type loopResult struct {
	results []opResult
	kept    map[int][]byte // every keepEvery-th response body, by op index
	elapsed time.Duration
}

// closedLoop runs ops[from:to] in order from len(clients) closed-loop
// clients: each sends its next op only after reading the previous reply.
// A client stops at the deadline (zero means none) or when the ops run
// out. Every keepEvery-th body (counted from from) is kept for the
// correctness gate.
func closedLoop(base string, in *inputs, from, to int, deadline time.Time, clients []*http.Client, keepEvery int) *loopResult {
	var next atomic.Int64
	next.Store(int64(from))
	per := make([][]opResult, len(clients))
	kept := make([]map[int][]byte, len(clients))
	url := base + "/v1/slice"
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		kept[c] = map[int][]byte{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				body := requestBody(in, i)
				t0 := time.Now()
				status, err := post(clients[c], url, body, &buf)
				lat := time.Since(t0)
				per[c] = append(per[c], opResult{
					index:   i,
					done:    t0.Add(lat).Sub(start),
					latency: lat,
					bytes:   buf.Len(),
					failed:  err != nil || status != http.StatusOK || hasError(buf.Bytes()),
				})
				if keepEvery > 0 && (i-from)%keepEvery == 0 {
					kept[c][i] = bytes.Clone(buf.Bytes())
				}
			}
		}()
	}
	wg.Wait()
	out := &loopResult{elapsed: time.Since(start), kept: map[int][]byte{}}
	for c := range clients {
		out.results = append(out.results, per[c]...)
		for i, b := range kept[c] {
			out.kept[i] = b
		}
	}
	sort.Slice(out.results, func(a, b int) bool { return out.results[a].index < out.results[b].index })
	return out
}

var errorKey = []byte(`"error":`)

// hasError reports an unescaped "error": key in a JSON body — a
// per-criterion failure or an error response — without decoding it. A
// quote preceded by an odd number of backslashes is inside a string.
func hasError(body []byte) bool {
	for off := 0; ; {
		i := bytes.Index(body[off:], errorKey)
		if i < 0 {
			return false
		}
		i += off
		bs := 0
		for j := i - 1; j >= 0 && body[j] == '\\'; j-- {
			bs++
		}
		if bs%2 == 0 {
			return true
		}
		off = i + 1
	}
}

// The end-to-end times are taken over the faster half of the measured
// window's one-second slices. A 2-vCPU VM on a shared host slows for seconds
// at a time: there, a CPU loop lost up to 40% for 1–5 s. Those stretches set
// the tail of a whole-window sample, so its p99 spread 19% (IQR/median) over
// twenty runs of edit_stream on that VM, against 13% for its p50. A
// change to the program slows every slice alike, so it still shows; a stall
// the program itself causes for less than half the window does not.
const sliceLength = time.Second

// fasterHalf splits a loop's window into slices of about sliceLength and
// keeps the half of them in which the most ops completed. It returns the
// latencies, in ms and sorted, of the ops that completed in the kept slices,
// and those slices' total length in seconds.
func fasterHalf(results []opResult, elapsed time.Duration) ([]float64, float64) {
	n := max(1, int(math.Round(float64(elapsed)/float64(sliceLength))))
	width := elapsed / time.Duration(n)
	slot := func(r opResult) int { return min(int(r.done/width), n-1) }
	count := make([]int, n)
	for _, r := range results {
		count[slot(r)]++
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return count[order[a]] > count[order[b]] })
	kept := make([]bool, n)
	for _, i := range order[:(n+1)/2] {
		kept[i] = true
	}
	var lat []float64
	for _, r := range results {
		if kept[slot(r)] {
			lat = append(lat, float64(r.latency)/1e6)
		}
	}
	sort.Float64s(lat)
	return lat, (width * time.Duration((n+1)/2)).Seconds()
}

// quantile returns the q-quantile of sorted samples by rank ⌈q·n⌉.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q * float64(len(sorted))))
	return sorted[max(r, 1)-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// fetchStats reads GET /v1/stats; a router's body carries the router and
// shards blocks, a worker's leaves them empty.
func fetchStats(c *http.Client, base string) (*cluster.StatsResponse, error) {
	resp, err := c.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	var st cluster.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return &st, nil
}

// processTree returns root and every process descended from it.
func processTree(root int) []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return []int{root}
	}
	parent := map[int]int{}
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if f := procStat(pid); len(f) > 1 {
			parent[pid], _ = strconv.Atoi(f[1])
		}
	}
	tree := []int{root}
	for i := 0; i < len(tree); i++ {
		for pid, pp := range parent {
			if pp == tree[i] {
				tree = append(tree, pid)
			}
		}
	}
	return tree
}

// procStat returns the fields of /proc/<pid>/stat after the command name,
// starting with the state.
func procStat(pid int) []string {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return nil
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return nil
	}
	return strings.Fields(string(b[i+1:]))
}

// cpuSeconds sums user+system CPU time of pids (clock ticks at 100 Hz).
func cpuSeconds(pids []int) float64 {
	var ticks float64
	for _, pid := range pids {
		if f := procStat(pid); len(f) > 12 {
			u, _ := strconv.ParseFloat(f[11], 64)
			s, _ := strconv.ParseFloat(f[12], 64)
			ticks += u + s
		}
	}
	return ticks / 100
}

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// rssMiB sums the resident set of pids.
func rssMiB(pids []int) float64 {
	var pages float64
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
		if err != nil {
			continue
		}
		if f := strings.Fields(string(b)); len(f) > 1 {
			n, _ := strconv.ParseFloat(f[1], 64)
			pages += n
		}
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// sampleRSS samples rssMiB(pids) every 250 ms until stop closes, then
// sends the samples.
func sampleRSS(pids []int, stop <-chan struct{}, out chan<- []float64) {
	var samples []float64
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		samples = append(samples, rssMiB(pids))
		select {
		case <-stop:
			out <- samples
			return
		case <-t.C:
		}
	}
}
