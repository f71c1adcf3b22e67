package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"specslice/internal/server"
)

// Local is a whole cluster inside one process: N slicing servers, each on
// its own loopback listener, fronted by a router on a listener of its
// own. Requests still cross real HTTP between router and workers, so the
// routing, shedding, and drain paths are the ones a multi-process
// deployment exercises — only the process boundary is folded away. Used
// by the routed loadgen scenarios and the cluster tests; `specslice
// route` runs the real subprocess topology (see Spawn).
type Local struct {
	Router *Router

	routerLn net.Listener
	routerHS *http.Server
	cancel   context.CancelFunc

	workers []*localWorker
}

type localWorker struct {
	id string
	ln net.Listener
	hs *http.Server
}

// StartLocal boots n workers with the given server config plus a router
// with the given router config, and returns once everything is serving.
func StartLocal(n int, scfg server.Config, rcfg Config) (*Local, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 worker, got %d", n)
	}
	lc := &Local{Router: NewRouter(rcfg)}
	for i := 0; i < n; i++ {
		srv, err := server.New(scfg)
		if err != nil {
			lc.Close()
			return nil, fmt.Errorf("cluster: worker %d: %w", i, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			lc.Close()
			return nil, err
		}
		lw := &localWorker{
			id: fmt.Sprintf("w%d", i),
			ln: ln,
			hs: &http.Server{Handler: srv.Handler()},
		}
		go lw.hs.Serve(ln)
		lc.workers = append(lc.workers, lw)
		lc.Router.AddWorker(lw.id, "http://"+ln.Addr().String())
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lc.Close()
		return nil, err
	}
	lc.routerLn = rln
	lc.routerHS = &http.Server{Handler: lc.Router.Handler()}
	go lc.routerHS.Serve(rln)
	ctx, cancel := context.WithCancel(context.Background())
	lc.cancel = cancel
	lc.Router.Start(ctx)
	return lc, nil
}

// URL returns the router's base URL.
func (lc *Local) URL() string { return "http://" + lc.routerLn.Addr().String() }

// KillWorker abruptly stops worker i's HTTP server — no drain, as if the
// process died. The router discovers it via a failed forward or probe.
func (lc *Local) KillWorker(i int) {
	lw := lc.workers[i]
	lw.hs.Close()
	lw.ln.Close()
}

// Close shuts the cluster down: router first (so nothing routes into a
// closing worker), then every worker, draining each.
func (lc *Local) Close() error {
	if lc.cancel != nil {
		lc.cancel()
	}
	var first error
	if lc.routerHS != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := lc.routerHS.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
	}
	for _, lw := range lc.workers {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := lw.hs.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
	}
	return first
}
