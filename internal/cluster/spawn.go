package cluster

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// Proc is one spawned `specslice serve` worker subprocess.
type Proc struct {
	ID   string
	Addr string // bound host:port, discovered from the worker's log line
	Cmd  *exec.Cmd
}

// URL returns the worker's base URL.
func (p *Proc) URL() string { return "http://" + p.Addr }

// Stop sends SIGTERM (the worker drains in-flight requests and exits)
// and waits up to timeout before escalating to SIGKILL.
func (p *Proc) Stop(timeout time.Duration) error {
	if p.Cmd.Process == nil {
		return nil
	}
	p.Cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- p.Cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		p.Cmd.Process.Kill()
		return fmt.Errorf("cluster: worker %s did not drain in %v, killed", p.ID, timeout)
	}
}

// SpawnWorkers starts n `specslice serve` subprocesses of the given
// binary on ephemeral loopback ports; argsFor(i) supplies worker i's
// extra flags (cache budgets, request limits). Each
// worker's bound port is discovered from its "listening on" log line;
// the rest of its stderr is relayed to ours with an id prefix. On any
// failure the already-started workers are stopped.
func SpawnWorkers(bin string, n int, argsFor func(i int) []string) ([]*Proc, error) {
	var procs []*Proc
	fail := func(err error) ([]*Proc, error) {
		for _, p := range procs {
			p.Stop(5 * time.Second)
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i)
		args := []string{"serve", "-addr", "127.0.0.1:0"}
		if argsFor != nil {
			args = append(args, argsFor(i)...)
		}
		cmd := exec.Command(bin, args...)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			return fail(err)
		}
		cmd.Stdout = os.Stdout
		if err := cmd.Start(); err != nil {
			return fail(fmt.Errorf("cluster: start worker %s: %w", id, err))
		}
		p := &Proc{ID: id, Cmd: cmd}
		procs = append(procs, p)

		// The serve command logs the resolved address ("listening on
		// 127.0.0.1:PORT") exactly so supervisors like this one can bind
		// :0 and still find the port.
		sc := bufio.NewScanner(stderr)
		addrCh := make(chan string, 1)
		go func() {
			for sc.Scan() {
				line := sc.Text()
				if idx := strings.Index(line, "listening on "); idx >= 0 {
					rest := line[idx+len("listening on "):]
					if sp := strings.IndexByte(rest, ' '); sp >= 0 {
						rest = rest[:sp]
					}
					select {
					case addrCh <- rest:
					default:
					}
				}
				fmt.Fprintf(os.Stderr, "[%s] %s\n", id, line)
			}
		}()
		select {
		case addr := <-addrCh:
			p.Addr = addr
		case <-time.After(15 * time.Second):
			return fail(fmt.Errorf("cluster: worker %s never reported its address", id))
		}
	}
	return procs, nil
}
