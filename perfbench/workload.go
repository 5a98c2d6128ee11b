package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"syscall"
	"time"

	"repro/sim"
)

// Every workload runs gccx on the paper's 8-way machine with functional
// warming, U=1000 and the recommended W, so the caches, TLBs and branch
// predictor of every measured unit start warmed by functional warming.
const (
	program       = "gccx"
	unitSize      = 1000
	replayWorkers = 2 // replay goroutines of a local request; never above nproc here
	// The in-process fleet has fleetWorkers workers with
	// fleetReplayWorkers replay goroutines each.
	fleetWorkers       = 2
	fleetReplayWorkers = 1
)

// workload is one request shape the benchmark drives.
type workload struct {
	name   string
	length uint64
	// sampling adds the request's sample-size option (Units or Interval).
	sampling sim.RequestOption
	// freshStore gives every request its own empty on-disk store, so each
	// one sweeps, captures, journals and commits.
	freshStore bool
	// fleet sends the requests through the in-process loopback fleet.
	fleet bool
}

var workloads = []*workload{
	{name: "sweep-bound", length: 40_000_000, sampling: sim.Units(50), freshStore: true},
	{name: "replay-bound", length: 4_000_000, sampling: sim.Interval(2)},
	{name: "fleet-loopback", length: 4_000_000, sampling: sim.Interval(2), fleet: true},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// events are the progress-event arrival times of one request, measured
// from the request's start; negative when the event never arrived.
type events struct {
	mu            sync.Mutex
	start         time.Time
	lastCaptured  time.Duration
	firstReplayed time.Duration
}

func newEvents() *events {
	return &events{start: time.Now(), lastCaptured: -1, firstReplayed: -1}
}

func (e *events) observe(p sim.Progress) {
	at := time.Since(e.start)
	e.mu.Lock()
	defer e.mu.Unlock()
	switch p.Kind {
	case sim.EventUnitCaptured:
		e.lastCaptured = at
	case sim.EventUnitReplayed:
		if e.firstReplayed < 0 {
			e.firstReplayed = at
		}
	}
}

// sample is one measured request.
type sample struct {
	wall, cpu time.Duration
	ev        *events
	rep       *sim.Report
	counts    counts
}

// counts are the simulated quantities of one request. A change that only
// speeds the simulator up must leave every one of them identical.
type counts struct {
	Units         uint64       `json:"units"`
	SweepInsts    uint64       `json:"sweep_insts"`
	DetailedInsts uint64       `json:"detailed_insts"`
	SimCycles     uint64       `json:"sim_cycles"`
	StoreHits     uint64       `json:"store_hits"`
	StoreMisses   uint64       `json:"store_misses"`
	FleetSweeps   uint64       `json:"fleet_sweeps"`
	CPI           sim.Estimate `json:"cpi"`
	EPI           sim.Estimate `json:"epi"`
}

func countsOf(rep *sim.Report) counts {
	res := rep.Result()
	c := counts{
		Units:         uint64(len(res.Units)),
		SweepInsts:    res.FastFwdInsts,
		DetailedInsts: res.MeasuredInsts + res.WarmingInsts,
		CPI:           rep.CPI,
		EPI:           rep.EPI,
	}
	for _, u := range res.Units {
		c.SimCycles += u.Cycles
	}
	return c
}

// sameReport reports whether two reports carry bit-identical estimates and
// per-unit measurements.
func sameReport(a, b *sim.Report) bool {
	return a.CPI == b.CPI && a.EPI == b.EPI && reflect.DeepEqual(a.Result().Units, b.Result().Units)
}

// bench holds one workload's set-up state and runs its requests.
type bench struct {
	w    *workload
	cfg  sim.Config
	j    uint64 // phase offset, from the seed
	k    uint64 // sampling interval of the plan
	work string // scratch directory for stores, removed at exit

	prog  *sim.Workload // the generated program, for the traced run's layer calls
	sess  *sim.Session  // filled-store session (replay-bound), paired local session (fleet-loopback)
	fleet *fleet
	dirs  int
}

func newBench(w *workload, seed uint64, work string) (*bench, error) {
	b := &bench{w: w, cfg: sim.Config8Way(), work: work}
	prog, err := generate(w.length)
	if err != nil {
		return nil, err
	}
	b.prog = prog
	plan := sim.ResolvePlan(b.request(nil), prog)
	b.k = plan.K
	b.j = seed % b.k
	return b, nil
}

// generate builds the workload's program outside any session.
func generate(length uint64) (*sim.Workload, error) {
	s, err := sim.Open()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Workload(program, length)
}

// request builds the workload's request; ev, when non-nil, records its
// progress events.
func (b *bench) request(ev *events) *sim.Request {
	opts := []sim.RequestOption{
		sim.Length(b.w.length),
		sim.Machine(b.cfg),
		sim.Warming(sim.FunctionalWarming),
		sim.UnitSize(unitSize),
		sim.Warmup(sim.RecommendedW(b.cfg)),
		b.w.sampling,
		sim.Phase(b.j),
		sim.Workers(replayWorkers),
	}
	if ev != nil {
		opts = append(opts, sim.OnProgress(ev.observe))
	}
	return sim.NewRequest(program, opts...)
}

// newDir returns a fresh, empty directory under the scratch directory.
func (b *bench) newDir(prefix string) string {
	b.dirs++
	return filepath.Join(b.work, fmt.Sprintf("%s-%d", prefix, b.dirs))
}

// openSession opens a session with a fresh empty store and generates the
// workload in it.
func (b *bench) openSession() (*sim.Session, error) {
	s, err := sim.Open(sim.WithStore(b.newDir("store")), sim.WithWorkers(replayWorkers))
	if err != nil {
		return nil, err
	}
	if _, err := s.Workload(program, b.w.length); err != nil {
		closeSession(s)
		return nil, err
	}
	return s, nil
}

// closeSession closes s and deletes its store.
func closeSession(s *sim.Session) {
	if s == nil {
		return
	}
	dir := s.StoreDir()
	s.Close()
	os.RemoveAll(dir)
}

// setup does one set-up of the workload and returns the report of the
// request that filled the store or warmed the fleet (nil when the set-up
// runs none). Close the previous set-up's state first.
func (b *bench) setup(ctx context.Context) (*sim.Report, error) {
	switch {
	case b.w.freshStore:
		s, err := b.openSession()
		if err != nil {
			return nil, err
		}
		b.sess = s
		return nil, nil
	case b.w.fleet:
		f, err := startFleet(ctx, fleetWorkers)
		if err != nil {
			return nil, err
		}
		b.fleet = f
		return f.client.Run(ctx, b.request(nil))
	default:
		s, err := b.openSession()
		if err != nil {
			return nil, err
		}
		b.sess = s
		return s.Run(ctx, b.request(nil))
	}
}

// pairLocal opens the local session a fleet-loopback run is compared
// with, and runs the request once on it (which also fills its store).
func (b *bench) pairLocal(ctx context.Context) (*sim.Report, error) {
	s, err := b.openSession()
	if err != nil {
		return nil, err
	}
	b.sess = s
	return s.Run(ctx, b.request(nil))
}

func (b *bench) close() {
	closeSession(b.sess)
	b.sess = nil
	if b.fleet != nil {
		b.fleet.stop()
		b.fleet = nil
	}
}

// measure runs one request the way the workload sends it and times it.
func (b *bench) measure(ctx context.Context) (*sample, error) {
	if b.w.freshStore {
		// A fresh empty store per request; opening it is not timed.
		s, err := b.openSession()
		if err != nil {
			return nil, err
		}
		defer closeSession(s)
		return b.timeRequest(ctx, s, nil)
	}
	return b.timeRequest(ctx, b.sess, b.fleet)
}

// pair times the request on the other side of the local/fleet pair:
// locally on the filled store for fleet-loopback, on a loopback fleet
// otherwise. The fleet starts with the caches the workload's own
// requests see: empty for sweep-bound, warmed for replay-bound.
func (b *bench) pair(ctx context.Context, n int) ([]*sample, error) {
	var out []*sample
	for i := 0; i < n; i++ {
		var s *sample
		var err error
		switch {
		case b.w.fleet:
			s, err = b.timeRequest(ctx, b.sess, nil)
		case b.w.freshStore:
			var f *fleet
			if f, err = startFleet(ctx, fleetWorkers); err != nil {
				return nil, err
			}
			s, err = b.timeRequest(ctx, nil, f)
			f.stop()
		default:
			if b.fleet == nil {
				if b.fleet, err = startFleet(ctx, fleetWorkers); err != nil {
					return nil, err
				}
				if _, err = b.fleet.client.Run(ctx, b.request(nil)); err != nil {
					return nil, err
				}
			}
			s, err = b.timeRequest(ctx, nil, b.fleet)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// timeRequest sends one request to the fleet f when it is non-nil and to
// the session sess otherwise, and times it.
func (b *bench) timeRequest(ctx context.Context, sess *sim.Session, f *fleet) (*sample, error) {
	var hits0, misses0, sweeps0 uint64
	if f != nil {
		sweeps0 = f.sweeps()
	} else {
		hits0, misses0, _ = sess.StoreStats()
	}

	cpu0 := cpuTime()
	ev := newEvents()
	req := b.request(ev)
	var rep *sim.Report
	var err error
	if f != nil {
		rep, err = f.client.Run(ctx, req)
	} else {
		rep, err = sess.Run(ctx, req)
	}
	wall := time.Since(ev.start)
	cpu := cpuTime() - cpu0
	if err != nil {
		return nil, err
	}
	c := countsOf(rep)
	if f != nil {
		c.FleetSweeps = f.sweeps() - sweeps0
	} else {
		hits, misses, _ := sess.StoreStats()
		c.StoreHits, c.StoreMisses = hits-hits0, misses-misses0
	}
	return &sample{wall: wall, cpu: cpu, ev: ev, rep: rep, counts: c}, nil
}

// cpuTime returns the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
