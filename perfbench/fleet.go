package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/dist"
)

// fleet is an in-process coordinator with its workers, all served over
// httptest loopback.
type fleet struct {
	coord   *httptest.Server
	servers []*httptest.Server
	workers []*dist.Worker
	client  *dist.Client
}

// startFleet starts a coordinator and n registered workers.
func startFleet(ctx context.Context, n int) (*fleet, error) {
	coord, err := dist.NewCoordinator(dist.Options{})
	if err != nil {
		return nil, err
	}
	f := &fleet{coord: httptest.NewServer(coord.Handler())}
	for i := 0; i < n; i++ {
		mux := http.NewServeMux()
		srv := httptest.NewServer(mux)
		f.servers = append(f.servers, srv)
		w := dist.NewWorker(dist.WorkerOptions{
			Coordinator:  f.coord.URL,
			Self:         srv.URL,
			Workers:      fleetReplayWorkers,
			PollInterval: 5 * time.Millisecond,
		})
		mux.Handle("/", w.Handler())
		if err := w.Register(ctx); err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	f.client = dist.NewClient(f.coord.URL)
	return f, nil
}

// sweeps returns the number of functional sweeps the fleet's workers ran.
func (f *fleet) sweeps() uint64 {
	var n uint64
	for _, w := range f.workers {
		n += w.SweepCount()
	}
	return n
}

// stop closes every server; Close waits for in-flight requests.
func (f *fleet) stop() {
	for _, s := range f.servers {
		s.Close()
	}
	f.coord.Close()
}
