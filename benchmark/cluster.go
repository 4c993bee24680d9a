package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/transport"
)

// cluster is one ready-to-run engine and the means to shut it down.
type cluster struct {
	eng *engine.Engine
	// stop closes the engine and waits until every worker has exited.
	stop func()
	// mesh is the TCP cluster formation time: ListenCluster until the
	// worker mesh is up (0 in process).
	mesh time.Duration
}

// setup builds the workload's engine for one seed: in process, or as a
// TCP-loopback cluster whose workers run on goroutines of this process.
// tap, when non-nil, counts and times every peer's sends.
func (w *Workload) setup(seed int64, tap *sendTap) (*cluster, error) {
	spec := w.spec(seed)
	if w.TCPWorkers == 0 {
		topo, err := spec.Build()
		if err != nil {
			return nil, err
		}
		e, err := engine.New(topo, spec.Engine, spec.Initial)
		if err != nil {
			return nil, err
		}
		return &cluster{eng: e, stop: e.Close}, nil
	}
	return setupTCP(spec, w.TCPWorkers, tap)
}

// setupTCP forms the cluster from the same public pieces distrib.StartHost
// and distrib.RunWorker use, so that the transport endpoints can be
// wrapped before the engines take them.
func setupTCP(spec distrib.JobSpec, workers int, tap *sendTap) (*cluster, error) {
	if err := spec.Validate(workers); err != nil {
		return nil, err
	}
	t0 := time.Now()
	host, err := transport.ListenCluster("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// A worker that cannot join or build its engine leaves the controller
	// waiting; the benchmark's watchdog ends such a run.
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := serveWorker(host.Addr(), tap); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
			}
		}()
	}
	e, err := startController(host, workers, spec, tap)
	if err != nil {
		wg.Wait()
		return nil, err
	}
	mesh := time.Since(t0)
	return &cluster{eng: e, stop: func() { e.Close(); wg.Wait() }, mesh: mesh}, nil
}

func startController(host *transport.ClusterHost, workers int, spec distrib.JobSpec, tap *sendTap) (*engine.Engine, error) {
	if err := host.Accept(workers); err != nil {
		return nil, fmt.Errorf("accept workers: %w", err)
	}
	meta, err := distrib.EncodeSpec(spec)
	if err != nil {
		return nil, err
	}
	metas := make([][]byte, workers)
	for i := range metas {
		metas[i] = meta
	}
	ep, err := host.Start(metas)
	if err != nil {
		return nil, err
	}
	ep = tap.wrap(ep)
	topo, err := spec.Build()
	if err != nil {
		ep.Close()
		return nil, err
	}
	e, err := engine.NewDistributed(topo, spec.Engine, spec.Initial, ep, spec.NodePeers)
	if err != nil {
		ep.Close()
		return nil, err
	}
	return e, nil
}

// serveWorker joins the cluster, builds the worker engine from the spec in
// the handshake and serves until the controller says bye. Only join and
// build failures are returned: at shutdown a worker may see the
// controller's link close before it reads the bye frame, which is not a
// failure of the run.
func serveWorker(ctrlAddr string, tap *sendTap) error {
	ep, welcome, err := transport.JoinCluster(ctrlAddr, "127.0.0.1:0", 1)
	if err != nil {
		return fmt.Errorf("worker join: %w", err)
	}
	ep = tap.wrap(ep)
	spec, err := distrib.DecodeSpec(welcome.Meta)
	if err != nil {
		ep.Close()
		return err
	}
	topo, err := spec.Build()
	if err != nil {
		ep.Close()
		return err
	}
	e, err := engine.NewWorker(topo, spec.Engine, spec.Initial, ep, spec.NodePeers)
	if err != nil {
		ep.Close()
		return err
	}
	_ = e.ServeWorker()
	return nil
}

// sendTap counts and times the sends of every endpoint it wraps. It keeps
// totals only; the probe takes per-period differences.
type sendTap struct {
	frames, bytes, ns atomic.Int64
}

// wrap decorates ep; a nil tap leaves it untouched.
func (t *sendTap) wrap(ep transport.Endpoint) transport.Endpoint {
	if t == nil {
		return ep
	}
	return &tappedEndpoint{Endpoint: ep, tap: t}
}

type tappedEndpoint struct {
	transport.Endpoint
	tap *sendTap
}

func (e *tappedEndpoint) Send(peer int, data []byte) error {
	n := int64(len(data)) // data belongs to the transport once sent
	t0 := time.Now()
	err := e.Endpoint.Send(peer, data)
	e.tap.ns.Add(int64(time.Since(t0)))
	e.tap.frames.Add(1)
	e.tap.bytes.Add(n)
	return err
}
