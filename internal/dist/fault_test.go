package dist

// The deterministic crash/resume matrix: every scenario here drives the
// fleet through an injected fault (see faults.go) at a reproducible
// trigger point and asserts the run still completes with a report
// bit-identical to the local single-process engine — and, for the sweep
// handoff, that the journaled resume actually bounded the duplicated
// work.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/uarch"
	"repro/sim"
)

// newFaultCluster wires a coordinator and one loopback worker per
// WorkerOptions entry (Coordinator/Self filled in; fast polling and
// retry defaults applied unless set). Fault plans are armed by the
// caller after this returns, so registration RPCs never consume
// occurrences.
func newFaultCluster(t *testing.T, copt Options, wopts []WorkerOptions) *cluster {
	t.Helper()
	coord, err := NewCoordinator(copt)
	if err != nil {
		t.Fatal(err)
	}
	csrv := httptest.NewServer(coord.Handler())
	t.Cleanup(csrv.Close)
	cl := &cluster{coord: coord, coordURL: csrv.URL}
	for i := range wopts {
		opt := wopts[i]
		opt.Coordinator = csrv.URL
		if opt.Workers == 0 {
			opt.Workers = 1
		}
		if opt.PollInterval == 0 {
			opt.PollInterval = 5 * time.Millisecond
		}
		if opt.RetryBase == 0 {
			opt.RetryBase = time.Millisecond
		}
		var h http.Handler
		wsrv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(rw, r)
		}))
		t.Cleanup(wsrv.Close)
		opt.Self = wsrv.URL
		w := NewWorker(opt)
		h = w.Handler()
		if err := w.Register(context.Background()); err != nil {
			t.Fatal(err)
		}
		cl.workers = append(cl.workers, w)
	}
	return cl
}

func (cl *cluster) sweepExecTotal() uint64 {
	var n uint64
	for _, w := range cl.workers {
		n += w.SweepExecInsts()
	}
	return n
}

// TestLeaseExpiryHandoff is the crash-safe sweep e2e: the sweep owner
// is killed mid-sweep (stream severed exactly as a process death), the
// lease expires, and the surviving worker wins the claim, resumes from
// the dead owner's uploaded journal, and finishes the run — with the
// report bit-identical to the local engine and the fleet-wide sweep
// work well under two cold sweeps.
func TestLeaseExpiryHandoff(t *testing.T) {
	req := testRequest()
	want := baseline(t, req)

	// Both workers arm the same kill: whichever wins the sweep claim
	// dies on its 51st captured unit. The survivor resumes from the
	// journal (keyframe 4, uploaded every keyframe), so its own capture
	// count stays far below the trigger — the fault fires exactly once
	// no matter which worker owned the sweep first.
	faults := []*Faults{NewFaults(), NewFaults()}
	wopts := []WorkerOptions{
		{Keyframe: 4, ResumeInterval: 1, Faults: faults[0]},
		{Keyframe: 4, ResumeInterval: 1, Faults: faults[1]},
	}
	cl := newFaultCluster(t, Options{LeaseTTL: 250 * time.Millisecond}, wopts)
	for _, f := range faults {
		f.Arm(FaultKillMidSweep, 50, 1)
	}

	rep, err := cl.coord.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "handoff run", rep.Result(), want)

	if fired := faults[0].Fired(FaultKillMidSweep) + faults[1].Fired(FaultKillMidSweep); fired != 1 {
		t.Fatalf("kill-mid-sweep fired %d times, want exactly 1", fired)
	}
	// The journaled handoff must beat two cold sweeps — and with a
	// 1-keyframe journal cadence the overlap is a handful of units, so
	// hold it to 1.5 sweeps.
	total := cl.sweepExecTotal()
	if total >= want.FastFwdInsts*3/2 {
		t.Fatalf("fleet executed %d sweep insts; want < 1.5x one sweep (%d)",
			total, want.FastFwdInsts)
	}
	if total <= want.FastFwdInsts {
		t.Fatalf("fleet executed %d sweep insts <= one sweep (%d); the kill cannot have happened",
			total, want.FastFwdInsts)
	}
}

// TestFaultKillMidStream kills a worker on its 6th replayed unit; the
// shard requeues to the survivor and the merged report is untouched.
func TestFaultKillMidStream(t *testing.T) {
	req := testRequest()
	want := baseline(t, req)

	f := NewFaults()
	cl := newFaultCluster(t, Options{}, []WorkerOptions{{Faults: f}, {}})
	f.Arm(FaultKillMidStream, 5, 1)

	rep, err := cl.coord.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "kill-mid-stream run", rep.Result(), want)
	if f.Fired(FaultKillMidStream) != 1 {
		t.Fatalf("kill-mid-stream fired %d times, want 1", f.Fired(FaultKillMidStream))
	}
}

// TestRetrySurfaced drops the worker's first two coordinator RPCs after
// dispatch (the sweep claim): the worker retries with backoff and each
// retried attempt surfaces as an EventRetry progress event naming the
// operation, while the run itself is unharmed.
func TestRetrySurfaced(t *testing.T) {
	req := testRequest()
	want := baseline(t, req)

	f := NewFaults()
	cl := newFaultCluster(t, Options{}, []WorkerOptions{{Faults: f}})
	f.Arm(FaultDropRPC, 0, 2)

	var mu sync.Mutex
	var retries []sim.Progress
	req.Progress = func(ev sim.Progress) {
		if ev.Kind == sim.EventRetry {
			mu.Lock()
			retries = append(retries, ev)
			mu.Unlock()
		}
	}
	rep, err := cl.coord.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "retried run", rep.Result(), want)
	if f.Fired(FaultDropRPC) != 2 {
		t.Fatalf("drop-rpc fired %d times, want 2", f.Fired(FaultDropRPC))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(retries) < 2 {
		t.Fatalf("got %d EventRetry events, want >= 2", len(retries))
	}
	for i, ev := range retries[:2] {
		if ev.Attempt != i+1 {
			t.Errorf("retry %d: Attempt = %d, want %d", i, ev.Attempt, i+1)
		}
		if !strings.Contains(ev.Note, "sweep claim") {
			t.Errorf("retry %d: Note %q does not name the operation", i, ev.Note)
		}
	}
}

// TestClientFallback points a client with a local fallback session at a
// dead coordinator: after its connect retries (each surfaced as
// EventRetry) it emits EventFallback and completes the run in-process,
// bit-identical to a plain local run.
func TestClientFallback(t *testing.T) {
	req := testRequest()
	want := baseline(t, req)

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // nothing listens: every connect fails

	local, err := sim.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	c := NewClient(dead.URL)
	c.Fallback = local
	c.Retries = 2
	c.RetryBase = time.Millisecond

	var mu sync.Mutex
	var retries, fallbacks int
	req.Progress = func(ev sim.Progress) {
		mu.Lock()
		switch ev.Kind {
		case sim.EventRetry:
			retries++
		case sim.EventFallback:
			fallbacks++
		}
		mu.Unlock()
	}
	rep, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "fallback run", rep.Result(), want)
	mu.Lock()
	defer mu.Unlock()
	if retries != 1 {
		t.Errorf("got %d EventRetry events, want 1 (2 attempts)", retries)
	}
	if fallbacks != 1 {
		t.Errorf("got %d EventFallback events, want 1", fallbacks)
	}
}

// TestClientNoFallbackOnRejection: a deterministic 4xx rejection must
// not degrade to a local run (it would fail or diverge identically).
func TestClientNoFallbackOnRejection(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		http.Error(rw, "no such workload", http.StatusBadRequest)
	}))
	defer srv.Close()

	local, err := sim.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	c := NewClient(srv.URL)
	c.Fallback = local
	c.Retries = 2
	c.RetryBase = time.Millisecond
	if _, err := c.Run(context.Background(), testRequest()); err == nil {
		t.Fatal("run succeeded; want the coordinator's rejection surfaced")
	}
}

// TestHeartbeatExpiry: a worker that registered with a heartbeat
// interval and then fell silent leaves the live dispatch set after
// three intervals, and one beat restores it.
func TestHeartbeatExpiry(t *testing.T) {
	coord, err := NewCoordinator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord.addWorker("http://worker-a", 5*time.Millisecond)
	coord.AddWorker("http://worker-b") // no heartbeat: exempt from expiry

	if n := len(coord.liveWorkers()); n != 2 {
		t.Fatalf("live workers at registration = %d, want 2", n)
	}
	time.Sleep(60 * time.Millisecond)
	live := coord.liveWorkers()
	if len(live) != 1 || live[0].url != "http://worker-b" {
		t.Fatalf("after silence: live = %v, want only the heartbeat-less worker", workerURLs(live))
	}
	coord.workerByURL("http://worker-a").beat()
	if n := len(coord.liveWorkers()); n != 2 {
		t.Fatalf("live workers after beat = %d, want 2", n)
	}
}

func workerURLs(ws []*workerRef) []string {
	var urls []string
	for _, w := range ws {
		urls = append(urls, w.url)
	}
	return urls
}

// TestPartialEndpoints round-trips journals through the coordinator's
// partial endpoints: the bytes a sweep owner uploads are kept and served
// as uploaded — by the live coordinator and, from its store, by a
// restarted one — and a corrupt upload is rejected without clobbering
// the good journal: the "corruption degrades, never poisons" half of
// the resume contract at the fleet layer.
func TestPartialEndpoints(t *testing.T) {
	prog := testProg(t)
	cfg := uarch.Config8Way()
	plan := sim.ResolvePlan(testRequest(), prog)
	params := plan.CheckpointParams()
	params.Keyframe = 4
	key := checkpoint.KeyFor(prog, cfg, params)
	hash := key.Hash()

	// Journal a genuine half-sweep so the uploaded bytes validate.
	var journals [][]byte
	jw := checkpoint.BufferWriter(key, prog.Length/params.U, 1, func(journal []byte) {
		journals = append(journals, append([]byte(nil), journal...))
	})
	captured := 0
	_, err := checkpoint.CaptureResumable(context.Background(), prog, cfg, params, jw, func(*checkpoint.Unit) bool {
		captured++
		return captured < 30
	})
	if err != nil || len(journals) < 2 {
		t.Fatalf("half-sweep failed: err=%v journals=%d", err, len(journals))
	}
	last := journals[len(journals)-1]
	want, err := checkpoint.DecodePartial(bytes.NewReader(last), key)
	if err != nil {
		t.Fatal(err)
	}

	storeDir := t.TempDir()
	serve := func() (*Worker, *httptest.Server) {
		t.Helper()
		coord, err := NewCoordinator(Options{StoreDir: storeDir})
		if err != nil {
			t.Fatal(err)
		}
		coord.retainRun(hash, key, false)
		srv := httptest.NewServer(coord.Handler())
		return NewWorker(WorkerOptions{Coordinator: srv.URL, Self: "http://self"}), srv
	}
	served := func(srv *httptest.Server) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/partials/" + hash)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("journal download: %s (%v)", resp.Status, err)
		}
		return body
	}

	w, srv := serve()
	for _, j := range journals {
		if err := w.uploadPartial(context.Background(), key, j, nil); err != nil {
			t.Fatalf("journal upload: %v", err)
		}
	}
	got, err := w.fetchPartial(context.Background(), key)
	if err != nil || got == nil {
		t.Fatalf("journal fetch: rs=%v err=%v", got != nil, err)
	}
	if len(got.Units) != len(want.Units) || got.SweepInsts != want.SweepInsts {
		t.Fatalf("journal round-trip: got %d units @%d insts, want %d @%d",
			len(got.Units), got.SweepInsts, len(want.Units), want.SweepInsts)
	}
	if !bytes.Equal(served(srv), last) {
		t.Fatal("the coordinator does not serve the journal bytes it was sent")
	}

	// A corrupt upload must be rejected (400) and leave the good journal.
	hreq, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/partials/"+hash,
		strings.NewReader("not a journal"))
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt journal upload: %s, want 400", resp.Status)
	}
	got, err = w.fetchPartial(context.Background(), key)
	if err != nil || got == nil || len(got.Units) != len(want.Units) {
		t.Fatalf("good journal lost after corrupt upload: rs=%v err=%v", got != nil, err)
	}
	srv.Close()

	// A restarted coordinator serves the last upload from its store,
	// byte for byte.
	_, srv = serve()
	defer srv.Close()
	if !bytes.Equal(served(srv), last) {
		t.Fatal("after a restart the coordinator serves other bytes than the last upload")
	}
}

// TestOwnerJournalIsOneStream: the sweep owner writes its sweep once.
// Each journal upload is a byte prefix of the next, and the last of the
// sweep upload that follows.
func TestOwnerJournalIsOneStream(t *testing.T) {
	prog := testProg(t)
	cfg := uarch.Config8Way()
	params := sim.ResolvePlan(testRequest(), prog).CheckpointParams()
	key := checkpoint.KeyFor(prog, cfg, params)
	hash := key.Hash()

	coord, err := NewCoordinator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord.retainRun(hash, key, false)
	var mu sync.Mutex
	var journals [][]byte
	var sweep []byte
	inner := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			mu.Lock()
			switch {
			case strings.HasPrefix(r.URL.Path, "/v1/partials/"):
				journals = append(journals, body)
			case strings.HasPrefix(r.URL.Path, "/v1/sweeps/"):
				sweep = body
			}
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	w := NewWorker(WorkerOptions{Coordinator: srv.URL, Self: "http://self", Keyframe: 4, ResumeInterval: 1})
	params.Keyframe = 4
	set, swept, err := w.ensureSet(context.Background(), key, prog, cfg, params, nil, nil)
	if err != nil || !swept {
		t.Fatalf("owner sweep: swept=%v err=%v", swept, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(journals) < 2 || sweep == nil {
		t.Fatalf("owner uploaded %d journals and sweep=%v, want several and one", len(journals), sweep != nil)
	}
	for i, j := range journals {
		next := sweep
		if i+1 < len(journals) {
			next = journals[i+1]
		}
		if len(j) >= len(next) || !bytes.Equal(j, next[:len(j)]) {
			t.Fatalf("journal upload %d of %d (%d bytes) is not a prefix of the next upload (%d bytes)",
				i+1, len(journals), len(j), len(next))
		}
	}
	if got, err := checkpoint.DecodeSet(bytes.NewReader(sweep), key); err != nil || len(got.Units) != len(set.Units) {
		t.Fatalf("sweep upload does not decode to the owner's set (err %v)", err)
	}
}

// feedCancelCtx is a context that cancels itself the first time the
// journal feed of checkpoint.CaptureResumable polls it, so a test can
// land a cancellation exactly while a resumed sweep emits its journaled
// units.
type feedCancelCtx struct {
	context.Context
	cancel context.CancelFunc
	fired  atomic.Bool
}

func (c *feedCancelCtx) Err() error {
	// The feed is the one closure of CaptureResumable that polls ctx.
	if pc, _, _, ok := runtime.Caller(1); ok && strings.Contains(runtime.FuncForPC(pc).Name(), "checkpoint.CaptureResumable.func") {
		c.fired.Store(true)
		c.cancel()
	}
	return c.Context.Err()
}

// TestOwnerSweepCancelledWhileFeeding: a sweep owner resuming a fleet
// journal and cancelled (a coordinator kill, a lease handoff) while it
// emits the journaled units must fail the sweep — never cache or upload
// a set with units missing.
func TestOwnerSweepCancelledWhileFeeding(t *testing.T) {
	prog := testProg(t)
	cfg := uarch.Config8Way()
	params := sim.ResolvePlan(testRequest(), prog).CheckpointParams()
	params.Keyframe = 4
	key := checkpoint.KeyFor(prog, cfg, params)
	hash := key.Hash()

	var journal []byte
	jw := checkpoint.BufferWriter(key, prog.Length/params.U, 1, func(j []byte) {
		journal = append(journal[:0], j...)
	})
	captured := 0
	if _, err := checkpoint.CaptureResumable(context.Background(), prog, cfg, params, jw, func(*checkpoint.Unit) bool {
		captured++
		return captured < 30
	}); err != nil || journal == nil {
		t.Fatalf("half-sweep failed: err=%v journal=%v", err, journal != nil)
	}

	coord, err := NewCoordinator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord.retainRun(hash, key, false)
	var sweeps atomic.Int32
	inner := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/sweeps/") {
			sweeps.Add(1)
		}
		inner.ServeHTTP(rw, r)
	}))
	defer srv.Close()
	w := NewWorker(WorkerOptions{Coordinator: srv.URL, Self: "http://self", Keyframe: 4, ResumeInterval: 1})
	if err := w.uploadPartial(context.Background(), key, journal, nil); err != nil {
		t.Fatal(err)
	}

	ctx := &feedCancelCtx{}
	ctx.Context, ctx.cancel = context.WithCancel(context.Background())
	defer ctx.cancel()
	set, _, err := w.ensureSet(ctx, key, prog, cfg, params, nil, nil)
	if !ctx.fired.Load() {
		t.Fatal("the owner never fed the fleet journal")
	}
	if err == nil || set != nil {
		t.Fatalf("owner sweep cancelled while feeding the journal: set=%v err=%v, want an error", set != nil, err)
	}
	if cached, _ := w.cache.Get(key); cached != nil { //simlint:discard a memory-only cache never fails
		t.Fatal("the cut sweep was cached")
	}
	if n := sweeps.Load(); n != 0 {
		t.Fatalf("the cut sweep was uploaded %d times", n)
	}
}
